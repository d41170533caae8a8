"""An integer box ``values^width`` as a fixed tile under batches of prefixes.

The singular scan, the finite-field counts and the brute-force weight
oracle all walk such a box, in lexicographic order.  ``box_batches`` splits
it into a tile, the combinations of the last coordinates, which is the same
for every prefix, and batches of prefixes over the first coordinates.  The
scan evaluates the two parts apart and multiplies them; ``box_blocks``
materializes the rows ``head + prefix + tile row`` for callers that want
whole rows.  A batch times the tile is at most ``BLOCK_ROWS`` rows, so
memory stays bounded whatever the box size.
"""
from __future__ import annotations

from itertools import islice, product

import numpy as np

# Rows per batch x tile.  A fixed cap, not a tuning knob: it bounds peak memory.
BLOCK_ROWS = 4096


def box_batches(values, width: int):
    """The box ``product(values, repeat=width)`` as ``(tile, batches)``.

    ``tile`` is an int64 array of every combination of the last t
    coordinates, in lexicographic order, with t as large as
    ``len(values)**t <= BLOCK_ROWS`` allows.  ``batches`` yields int64 arrays
    of at most ``BLOCK_ROWS // len(tile)`` prefixes over the first
    ``width - t`` coordinates, in lexicographic order.  The box is every
    ``prefix + row``, for each batch, each prefix in it and each tile row,
    in that order.
    """
    values = [int(v) for v in values]
    m = len(values)
    t = 0
    while t < width and m ** (t + 1) <= BLOCK_ROWS:
        t += 1
    tile = np.array(values, dtype=np.int64)[np.indices((m,) * t).reshape(t, m**t).T]
    prefixes = product(values, repeat=width - t)
    size = BLOCK_ROWS // len(tile)

    def batches():
        while batch := list(islice(prefixes, size)):
            yield np.array(batch, dtype=np.int64).reshape(len(batch), width - t)

    return tile, batches()


def box_blocks(values, width: int, head: tuple[int, ...] = ()):
    """Yield the rows ``head + t`` for ``t`` in ``product(values, repeat=width)``,
    in that order, as int64 arrays of at most ``BLOCK_ROWS`` rows: one
    block per batch of :func:`box_batches`."""
    tile, batches = box_batches(values, width)
    h, cut = len(head), len(head) + width - tile.shape[1]
    for pre in batches:
        block = np.empty((len(pre) * len(tile), h + width), dtype=np.int64)
        block[:, :h] = head
        block[:, h:cut] = np.repeat(pre, len(tile), axis=0)
        block[:, cut:] = np.tile(tile, (len(pre), 1))
        yield block

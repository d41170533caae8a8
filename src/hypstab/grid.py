"""Blocks of an integer box, in lexicographic order.

The singular scan, the finite-field counts and the brute-force weight
oracle all walk a box ``head x values^width``.  ``box_blocks`` yields it as
int64 arrays of at most ``BLOCK_ROWS`` rows each, so the callers can work on
whole blocks with numpy while memory stays bounded whatever the box size.
"""
from __future__ import annotations

from itertools import islice, product

import numpy as np

# Rows per block.  A fixed cap, not a tuning knob: it bounds peak memory.
BLOCK_ROWS = 4096


def box_blocks(values, width: int, head: tuple[int, ...] = ()):
    """Yield the rows ``head + t`` for ``t`` in ``product(values, repeat=width)``,
    in that order, as int64 arrays of at most ``BLOCK_ROWS`` rows."""
    values = [int(v) for v in values]
    m = len(values)
    # The last ``t`` coordinates form a fixed tile of m**t rows; each block
    # repeats it under a run of prefixes for the first ``width - t``.
    t = 0
    while t < width and m ** (t + 1) <= BLOCK_ROWS:
        t += 1
    tile = np.array(values, dtype=np.int64)[np.indices((m,) * t).reshape(t, m**t).T]
    prefixes = product(values, repeat=width - t)
    h = len(head)
    while batch := list(islice(prefixes, BLOCK_ROWS // len(tile))):
        pre = np.array(batch, dtype=np.int64).reshape(len(batch), width - t)
        block = np.empty((len(batch) * len(tile), h + width), dtype=np.int64)
        block[:, :h] = head
        block[:, h : h + width - t] = np.repeat(pre, len(tile), axis=0)
        block[:, h + width - t :] = np.tile(tile, (len(batch), 1))
        yield block

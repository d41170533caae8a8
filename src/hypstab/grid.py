"""An integer box ``values^width`` as a fixed tile under batches of prefixes.

The singular scan and the brute-force weight oracle walk such a box; the
scan's finite-field counts ride on its walk, and a prime p with p // 2
above the height walks its own box of residues.  A box splits into a tile,
the combinations of the last coordinates, which is the same for every
prefix, and prefixes over the first coordinates.  ``canonical_split`` gives the scan the canonical
rows of a box, those whose first nonzero entry is a lead, as canonical
prefixes times the tile plus the zero prefix times the tile's canonical
rows.  ``box_split`` gives the oracle the whole box of its walked
coordinates ``r[:n-1]`` as prefixes times the tile, in lexicographic order.
Neither materializes a row: each caller evaluates the prefix and tile parts
apart and combines them.  Every array is at most ``BLOCK_ROWS`` rows, so
memory stays bounded whatever the box size.  A tile (and the canonical
split's ``is_lead``) depends only on the box's shape, so it is built once
per shape, cached and read-only; the scan caches the residue and lead words
of its checks on a canonical tile beside it, under the same key and the
checks, and the weight oracle its tile's row sums, zero row and ends of the
last coordinate, under the same key.  :mod:`~hypstab.modp` caches the same
way, per Macaulay matrix shape, the column and shift codes and the row
numbering its proofs would otherwise rebuild from ``monomials``.  A box
whose tile holds every coordinate has no prefix: ``box_split`` then yields
one empty prefix, and the oracle walks the tile alone.
``exact_dtype`` is the package's one choice between int64 and Python ints,
and ``monomials`` its one monomial order: the Macaulay columns of
:mod:`~hypstab.modp` and, read backwards, the expansions of
:func:`~hypstab.linalg.transformed_supports`.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice, product

import numpy as np

# Rows per array.  A fixed cap, not a tuning knob: it bounds peak memory.
BLOCK_ROWS = 4096


def exact_dtype(bound: int):
    """The dtype for integers proven at most ``bound`` in absolute value,
    partial results included: int64 below 2**63, where it is exact (its
    overflow would be silent), else Python ints (``object``)."""
    return np.int64 if bound < 2**63 else object


def monomials(nvars: int, degree: int) -> np.ndarray:
    """Exponent vectors of every monomial of ``degree``, one per row, in
    descending lex order with x_n most significant."""
    # Built from x_n down: each partial monomial is repeated once for every
    # value of the next exponent, from what is left of the degree (``room``)
    # down to 0, and what is left then is x_0's exponent.
    room = np.array([degree], dtype=np.int64)
    columns = []
    for _ in range(nvars - 1):
        parent = np.repeat(np.arange(room.size), room + 1)
        offsets = np.arange(parent.size) - np.searchsorted(parent, parent)
        columns = [c[parent] for c in columns] + [room[parent] - offsets]
        room = offsets
    exps = np.empty((room.size, nvars), dtype=np.int64)
    exps[:, 0] = room
    for k, c in enumerate(columns):
        exps[:, nvars - 1 - k] = c
    return exps


def _tile(values: range | tuple[int, ...], most: int) -> np.ndarray:
    """Every combination of t coordinates in ``values``, in lexicographic
    order, as an int64 array, with t <= ``most`` as large as
    ``len(values)**t <= BLOCK_ROWS`` allows."""
    m, t = len(values), 0
    while t < most and m ** (t + 1) <= BLOCK_ROWS:
        t += 1
    return np.array(values, dtype=np.int64)[np.indices((m,) * t).reshape(t, m**t).T]


# The two splits' tiles depend only on the box's shape, so they are cached,
# read-only, keyed on ``values`` (a range or a tuple of ints).  ``cap`` is
# ``BLOCK_ROWS`` at the call, part of the key because it decides the width.


@lru_cache(maxsize=16)
def _box_tile(values: range | tuple[int, ...], width: int, cap: int) -> np.ndarray:
    tile = _tile(values, width)
    tile.flags.writeable = False
    return tile


@lru_cache(maxsize=16)
def _canonical_tile(
    values: range | tuple[int, ...], top: int, width: int, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    tile = _tile(values, width - 1)
    first = np.zeros(len(tile), dtype=np.int64)
    for col in tile.T[::-1]:
        first = np.where(col != 0, col, first)
    is_lead = (first >= 1) & (first <= top)
    tile.flags.writeable = is_lead.flags.writeable = False
    return tile, is_lead


def _batches(rows, width: int, size: int):
    """The tuples of ``rows`` as int64 arrays of at most ``size`` rows."""
    while batch := list(islice(rows, size)):
        yield np.array(batch, dtype=np.int64).reshape(len(batch), width)


def box_split(values: range | tuple[int, ...], width: int):
    """The rows of ``product(values, repeat=width)`` as ``(tile, prefixes)``.

    ``tile`` is the read-only int64 array of every combination of the last t
    coordinates, in lexicographic order, with t <= ``width`` as large as
    ``len(values)**t <= BLOCK_ROWS`` allows.  ``prefixes`` yields int64
    arrays of at most ``BLOCK_ROWS`` combinations of the first ``width - t``
    coordinates, in lexicographic order (one empty prefix when the tile
    spans every coordinate).  The rows, in order, are each prefix followed
    by each tile row.  The weight oracle walks ``r[:n-1]`` this way and
    solves each row's last coordinate ``r_{n-1}`` as an interval.
    """
    tile = _box_tile(values, width, BLOCK_ROWS)
    cut = width - tile.shape[1]
    return tile, _batches(product(values, repeat=cut), cut, BLOCK_ROWS)


def canonical_split(values: range | tuple[int, ...], top: int, width: int):
    """The rows of ``product(values, repeat=width)`` whose first nonzero
    entry is in 1..``top``, as ``(tile, is_lead, prefixes)``.

    ``tile`` is the read-only int64 array of every combination of the last t
    coordinates, in lexicographic order, with t < ``width`` (so the first
    nonzero entry of a row with a nonzero prefix lies in the prefix) as large
    as ``len(values)**t <= BLOCK_ROWS`` allows.  ``is_lead`` marks the tile
    rows whose first nonzero entry is in 1..``top``.  ``prefixes`` yields
    int64 arrays of at most ``BLOCK_ROWS`` such rows over the first
    ``width - t`` coordinates.  The rows are every ``prefix + tile row``,
    and the zero prefix followed by each tile row that ``is_lead`` marks.
    """
    leads = [v for v in values if 1 <= v <= top]
    tile, is_lead = _canonical_tile(values, top, width, BLOCK_ROWS)
    cut = width - tile.shape[1]
    prefixes = (
        (0,) * k + row
        for k in range(cut)
        for row in product(leads, *[values] * (cut - k - 1))
    )
    return tile, is_lead, _batches(prefixes, cut, BLOCK_ROWS)

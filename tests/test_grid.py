"""The box's two splits (the whole box and its canonical rows), and the
weight oracle's lexicographic order against a plain enumeration."""
from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest

from hypstab import enumerate_weight_oracle, grid, parse_poly, torus
from hypstab.grid import BLOCK_ROWS, box_split

from conftest import random_support_poly


@pytest.mark.parametrize(
    "values, width, head",
    [
        (range(-3, 4), 6, (1,)),  # tiles of 7^4 rows
        (range(-3, 4), 2, (0, 0, 2)),
        (range(7), 0, (0, 0, 0, 1)),  # empty box: one empty prefix, empty tile
        (range(3), 7, ()),  # 3^7 rows, tile of 3^7 > cap / 2
        (range(-200, 201), 2, ()),  # oracle, n = 2: one-column tile
        (range(5000), 1, ()),  # more values than the cap: prefixes in two batches
    ],
)
def test_blocks_match_product(values, width, head):
    """Each prefix batch times the tile, read row-major behind a fixed
    ``head``, is ``head + product(values, repeat=width)`` in order."""
    tile, prefixes = box_split(values, width)
    batches = list(prefixes)
    assert tile.dtype == np.int64 and len(tile) <= BLOCK_ROWS
    assert all(b.dtype == np.int64 and len(b) <= BLOCK_ROWS for b in batches)
    tile_rows = [tuple(int(v) for v in row) for row in tile]
    rows = [
        head + tuple(int(v) for v in pre) + row for b in batches for pre in b for row in tile_rows
    ]
    assert rows == [head + t for t in product(values, repeat=width)]


@pytest.mark.parametrize(
    "m, width, t", [(7, 6, 4), (7, 2, 2), (3, 7, 7), (5, 6, 5), (5000, 1, 0), (2, 0, 0)]
)
def test_tile_is_the_largest_that_fits(m, width, t):
    tile = grid._tile(list(range(m)), width)
    assert tile.shape == (m**t, t)
    split_tile, prefixes = box_split(range(m), width)
    assert np.array_equal(split_tile, tile)
    batches = list(prefixes)
    assert all(b.shape[1] == width - t for b in batches)
    assert sum(len(b) for b in batches) * len(tile) == m**width


def test_cached_tiles_are_read_only(monkeypatch):
    tile, _ = box_split(range(-2, 3), 3)
    canonical, is_lead, _ = grid.canonical_split(range(-2, 3), 2, 3)
    assert box_split(range(-2, 3), 3)[0] is tile
    assert grid.canonical_split(range(-2, 3), 2, 3)[1] is is_lead
    for cached in (tile, canonical, is_lead):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0
    # The cap is part of the key: a smaller one gets its own, narrower tile.
    monkeypatch.setattr(grid, "BLOCK_ROWS", 5)
    assert box_split(range(-2, 3), 3)[0].shape == (5, 1)
    assert grid.canonical_split(range(-2, 3), 2, 3)[0].shape == (5, 1)


def test_oracle_box_arrays_are_cached_read_only(monkeypatch):
    """The oracle's box arrays are built once per (bound, width, cap),
    beside the box's tile, and nothing can write to them."""
    tile, sums, zero, lo, hi = cached = torus._oracle_box(3, 2, grid.BLOCK_ROWS)
    assert all(a is b for a, b in zip(torus._oracle_box(3, 2, grid.BLOCK_ROWS), cached))
    assert tile is box_split(range(-3, 4), 2)[0]
    for array in (tile, sums, lo, hi):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    rows = list(product(range(-3, 4), repeat=2))
    assert sums.tolist() == [sum(r) for r in rows] and rows[zero] == (0, 0)
    assert lo.tolist() == [max(-3, -3 - sum(r)) for r in rows]
    assert hi.tolist() == [min(3, 3 - sum(r)) for r in rows]
    # A patched cap gets its own entry: here a one-column tile.
    monkeypatch.setattr(grid, "BLOCK_ROWS", 7)
    narrow = torus._oracle_box(3, 2, grid.BLOCK_ROWS)
    assert narrow[0].shape == (7, 1) and narrow[0] is box_split(range(-3, 4), 2)[0]
    assert narrow[2] == 3 and narrow[1].tolist() == list(range(-3, 4))
    assert torus._oracle_box(3, 2, 4096)[0] is tile


def test_exact_dtype_switches_at_2_to_the_63():
    assert grid.exact_dtype(2**63 - 1) is np.int64
    assert grid.exact_dtype(2**63) is object


def _canonical_rows(values, top, width):
    return sorted(
        row
        for row in product(values, repeat=width)
        if any(row) and 1 <= next(v for v in row if v) <= top
    )


@pytest.mark.parametrize(
    "values, top, width, rows",
    [
        (range(-3, 4), 3, 7, 4096),  # scan, n = 6: tile of 7^4, prefixes over 3
        (range(-2, 3), 2, 3, 4096),  # tile capped at width - 1
        (range(7), 1, 4, 4096),  # field count
        (range(2), 1, 7, 4096),
        (range(-2, 3), 2, 4, 5),  # one-column tile, prefixes in several batches
        (range(3), 1, 3, 2),  # empty tile: every row is a prefix
        (range(-1, 2), 1, 1, 4096),
    ],
)
def test_canonical_split_covers_the_canonical_rows_once(monkeypatch, values, top, width, rows):
    monkeypatch.setattr(grid, "BLOCK_ROWS", rows)
    tile, is_lead, prefixes = grid.canonical_split(values, top, width)
    t = tile.shape[1]
    assert t < width and len(values) ** t <= rows
    assert t == width - 1 or len(values) ** (t + 1) > rows
    batches = list(prefixes)
    assert all(b.dtype == np.int64 and b.shape[1] == width - t for b in batches)
    assert all(len(b) <= rows for b in batches)
    tile_rows = [tuple(int(v) for v in row) for row in tile]
    assert tile_rows == list(product(values, repeat=t))
    found = [
        tuple(int(v) for v in pre) + row for b in batches for pre in b for row in tile_rows
    ] + [(0,) * (width - t) + row for row, lead in zip(tile_rows, is_lead) if lead]
    assert sorted(found) == _canonical_rows(values, top, width)


def _oracle_reference(f, bound, strict):
    """First zero-sum vector in lexicographic order whose pairing with every
    support monomial is >= 1 (strict) or >= 0."""
    least = 1 if strict else 0
    for head in product(range(-bound, bound + 1), repeat=f.n):
        r = head + (-sum(head),)
        if abs(r[-1]) > bound or not any(r):
            continue
        if all(sum(a * b for a, b in zip(r, exp)) >= least for exp in f.support()):
            return r
    return None


def test_oracle_first_hit_is_lexicographic():
    rng = random.Random(5)
    for _ in range(8):
        f = random_support_poly(rng, 2, rng.choice([3, 4]))
        for strict in (True, False):
            # Bound 40: 81 x 81 vectors, in two blocks.
            witness = enumerate_weight_oracle(f, 40, strict)
            expected = _oracle_reference(f, 40, strict)
            assert (witness.r if witness else None) == expected, (f.terms, strict)


@pytest.mark.parametrize("rows", [7, 50, 4096])
def test_oracle_matches_plain_enumeration(monkeypatch, rows):
    """Random supports for n in 1..4 and d in 2..4, with bounds 1..6 (1..3
    at n = 4), both modes.  The oracle walks ``r[:n-1]``.  At 4096 rows the
    tile spans every walked coordinate (one empty prefix), at 50 a bound of
    4 or more leaves a one-column tile at n = 3, and at 7 a bound of 4 or
    more leaves an empty tile at n = 3; at 7 rows n = 4 takes its prefixes
    in several batches."""
    monkeypatch.setattr(grid, "BLOCK_ROWS", rows)
    rng = random.Random(rows)
    for _ in range(60):
        n, d = rng.randint(1, 4), rng.randint(2, 4)
        bound = rng.randint(1, 3 if n == 4 else 6)
        f = random_support_poly(rng, n, d)
        for strict in (True, False):
            witness = enumerate_weight_oracle(f, bound, strict)
            expected = _oracle_reference(f, bound, strict)
            assert (witness.r if witness else None) == expected, (f.terms, bound, strict)


@pytest.mark.parametrize("rows", [7, 4096])
@pytest.mark.parametrize(
    "text, n, bound, strict, expected",
    [
        # x0^3 pairs to 3 r0, a column with a_{n-1} = 0: the rows with
        # r0 < 0 hold no member, although x1*x2^2 alone allows r0 = -3.
        ("x0^3 + x1*x2^2", 2, 3, False, (0, -3, 3)),
        ("x0^3 + x1*x2^2", 2, 3, True, (1, -3, 2)),
        ("x0^3 + x1^3 + x2*x3^2", 3, 2, False, (0, 0, -2, 2)),
        # On the zero row the interval starts at 0, the zero vector: the
        # witness takes r_{n-1} = 1.
        ("x0^3 + x1^3", 2, 3, False, (0, 1, -1)),
        ("x0^3 + x1^3 + x2^3", 3, 3, False, (0, 0, 1, -1)),
        ("x0^4 + x1^4 + x2^4 + x3^4", 4, 2, False, (0, 0, 0, 1, -1)),
        ("x0^3 + x1^3", 2, 3, True, (1, 1, -2)),
        # x2^3 bounds r1 only from above, r1 <= -r0; |r2| <= bound makes
        # the row r0 = -3 start at r1 = 0, not at -bound.
        ("x2^3", 2, 3, False, (-3, 0, 3)),
        ("x2^3", 2, 3, True, (-3, 0, 3)),
        ("x3^3", 3, 2, False, (-2, -2, 2, 2)),
        # The only row left, r0 = 1, needs r1 >= 1, and |r2| <= 1 needs
        # r1 <= 0: no member.
        ("x0^3 + x1^3", 2, 1, True, None),
    ],
)
def test_oracle_interval_edges(monkeypatch, rows, text, n, bound, strict, expected):
    """Supports built so that each edge of the interval on ``r_{n-1}``
    decides the witness, checked by hand and against the reference."""
    monkeypatch.setattr(grid, "BLOCK_ROWS", rows)
    f = parse_poly(text, n)
    assert _oracle_reference(f, bound, strict) == expected
    witness = enumerate_weight_oracle(f, bound, strict)
    assert (witness.r if witness else None) == expected

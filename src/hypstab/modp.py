"""Smoothness proven by one rank computation modulo a prime.

Let F be f with its denominators cleared and its content removed, so that
F has coprime integer coefficients (a content divisible by ``PRIME`` would
make all of M vanish mod ``PRIME``), and let D = (n+1)(d-2)+1.  The
Macaulay matrix M of the partials in degree D has one row for each pair
(i, m), m a monomial of degree D-(d-1), holding the coefficients of
m * dF/dx_i, and one column for each monomial of degree D.
:func:`prove_smooth` reduces M modulo ``PRIME`` and reports smoothness
proven when M has full column rank there.

Soundness, for every prime p.  Let P be a point of P^n over the algebraic
closure of Q at which every partial of F vanishes, and let v_P be the vector
of the degree-D monomials evaluated at P.  Row (i, m) of M times v_P is
(m * dF/dx_i)(P) = 0, so M v_P = 0, and v_P != 0 because x_j^D(P) != 0 for a
coordinate P_j != 0.  So M has a nonzero kernel, every maximal minor of the
integer matrix M is 0, and so is its residue mod p: reduction mod p cannot
raise the rank.  Full column rank mod p therefore proves that V(f) has no
singular point over the algebraic closure of Q.

The converse only decides how often the test succeeds.  When V(f) is
smooth, the n+1 partials have no common zero, so they form a regular
sequence and (by Macaulay) their ideal contains every form of degree D: M
has full column rank over Q, hence mod all but finitely many primes.

Elimination.  Rows with at most two nonzero entries pivot first.  A pivot
on such a row in its column a subtracts a multiple of it from every row with
an entry in a: that row loses the entry in a and gains or changes at most
the one in the pivot row's other column b, so it never gets longer and these
pivots cost no fill-in (structured Gaussian elimination).  Single-entry
pivots, which change no other entry at all, are taken for all rows at once
in numpy and settle every column of a Fermat-type form; two-entry pivots run
one at a time on sparse rows and settle every column of the cyclic cubic
surface and the Klein quartic, whose partials are binomials.  Every pivot
adds one to the rank and removes its row and column, so the matrix has full
column rank exactly when the pivots and the rank of what is left cover every
column.  What is left is eliminated densely in int64, entries kept in
[0, PRIME) so that each product fits.  Macaulay's square choice of rows goes
first and the other rows join only if it runs out of pivots, which for a
general form nearly halves the work.  A matrix of more than ``MAX_CELLS``
cells is not tested, and the caller keeps its heuristic data.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .polynomials import HomogeneousPoly, primitive_form
from .verdicts import InternalConsistencyError

PRIME = 2**31 - 1
# Largest Macaulay matrix tested, in cells (rows x columns).  It admits the
# quintic surface (880 x 560) and bounds the dense core to 4 MB.
MAX_CELLS = 2**19


@dataclass(frozen=True)
class SmoothnessProof:
    """The Macaulay matrix of the partials in ``degree`` has full column
    rank ``rank`` modulo ``prime``: V(f) has no singular point."""

    prime: int
    degree: int
    rank: int

    def __str__(self) -> str:
        return (
            f"exact: the Macaulay matrix of the partials in degree {self.degree} "
            f"has full column rank {self.rank} mod {self.prime}"
        )


def macaulay_shape(n: int, d: int) -> tuple[int, int, int]:
    """Degree D, row count and column count of the Macaulay matrix of the
    partials of a degree-``d`` form in ``n + 1`` variables."""
    degree = (n + 1) * (d - 2) + 1
    return degree, (n + 1) * comb(degree - d + 1 + n, n), comb(degree + n, n)


def _monomials(nvars: int, degree: int) -> np.ndarray:
    """Exponent vectors of every monomial of ``degree``, one per row, in
    descending lex order with x_n most significant."""
    # Built from x_n down: each row is repeated once for every value of the
    # next exponent, from what is left of the degree down to 0.
    exps = np.zeros((1, 0), dtype=np.int64)
    for _ in range(nvars - 1):
        room = degree - exps.sum(axis=1)
        counts = room + 1
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        exps = np.column_stack([np.repeat(exps, counts, axis=0), np.repeat(room, counts) - offsets])
    return np.column_stack([exps, degree - exps.sum(axis=1)])[:, ::-1]


def _macaulay_rows(
    f: HomogeneousPoly, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The Macaulay matrix as (row, column, value mod PRIME), one entry per
    nonzero cell, and the number of rows in Macaulay's square choice, which
    are numbered first: row (i, m) with m_k < d-1 for every k < i, one per
    column (x^a gets (x^a / x_i^(d-1)) * dF/dx_i for the first i with
    a_i >= d-1).  For a general f these alone have full rank.

    Columns follow :func:`_monomials`, a monomial order taken descending, so
    a row's first column is its leading term; the rows of each partial are
    numbered in ascending order of leading term.  On a dense disguised
    quintic surface, ascending columns eliminate 3x slower and descending
    rows 1.4x slower."""
    nvars = f.nvars
    F = primitive_form(f)
    # Exponents packed base degree+1, so a product's code is the sum of codes
    # and the codes of the degree-D monomials descend in column order.  Codes
    # are below (degree+1)^nvars; Python ints hold them where int64 cannot
    # (a quadric in 64 or more variables).
    dtype = np.int64 if (degree + 1) ** nvars <= 2**63 else object
    radix = np.array([(degree + 1) ** k for k in range(nvars)], dtype=dtype)
    columns = _monomials(nvars, degree)
    ascending = (columns @ radix)[::-1]
    # The shifts m of degree D-(d-1) are the columns x_n^(d-1) * m, in order.
    shifts = columns[columns[:, -1] >= f.d - 1][::-1]
    shifts[:, -1] -= f.d - 1
    shift_codes = shifts @ radix
    square = np.concatenate([np.all(shifts[:, :i] < f.d - 1, axis=1) for i in range(nvars)])
    nsquare = int(np.count_nonzero(square))
    numbers = np.where(square, np.cumsum(square) - 1, nsquare + np.cumsum(~square) - 1)
    # Every term of every partial at once: partial, exponent, value mod PRIME.
    terms = [
        (i, exp, c.numerator * exp[i] % PRIME) for i in range(nvars) for exp, c in F.terms if exp[i]
    ]
    terms = [term for term in terms if term[2]]
    partial = np.array([i for i, _, _ in terms], dtype=np.int64)
    exps = np.array([exp for _, exp, _ in terms], dtype=np.int64).reshape(-1, nvars)
    codes = shift_codes[:, None] + (exps @ radix - radix[partial])
    where = np.minimum(np.searchsorted(ascending, codes), ascending.size - 1)
    outside = ascending[where] != codes
    if outside.any():
        shift, term = np.argwhere(outside)[0]
        monomial = tuple(int(e) for e in codes[shift, term] // radix % (degree + 1))
        raise InternalConsistencyError(
            f"Macaulay row of partial {partial[term]} has a monomial {monomial} outside "
            f"the degree-{degree} columns"
        )
    row = numbers.reshape(nvars, -1)[partial].T
    value = np.array([v for _, _, v in terms], dtype=np.int64)
    return row.ravel(), (ascending.size - 1 - where).ravel(), np.tile(value, len(shifts)), nsquare


def _peel_single_entry_rows(
    row: np.ndarray, col: np.ndarray, nrows: int, ncols: int
) -> tuple[np.ndarray, int]:
    """Pivot on every row with one entry, until none is left.  Returns the
    mask of the entries outside every pivot column and the number of
    pivots."""
    alive = np.ones(col.size, dtype=bool)
    settled = np.zeros(ncols, dtype=bool)
    while True:
        single = alive & (np.bincount(row[alive], minlength=nrows)[row] == 1)
        if not single.any():
            return alive, int(np.count_nonzero(settled))
        settled[col[single]] = True
        alive &= ~settled[col]


def _pivot(rows: dict[int, dict[int, int]], where: dict[int, set[int]], r: int) -> list[int]:
    """Pivot on row r, which has one or two entries, in its first column a:
    subtract a multiple of it from every other row with an entry in a, and
    remove it.  Each such row loses its entry in a and gains or changes at
    most the one in r's other column, so no row gets longer.  ``where`` maps
    each column to the rows with an entry there and is kept up to date.
    Returns the rows that changed."""
    pivot = rows.pop(r)
    for c in pivot:
        where[c].discard(r)
    a, *rest = pivot
    inverse = pow(pivot[a], -1, PRIME)
    changed = list(where.pop(a))
    for s in changed:
        other = rows[s]
        factor = other.pop(a) * inverse % PRIME
        for b in rest:
            value = (other.get(b, 0) - factor * pivot[b]) % PRIME
            if value:
                other[b] = value
                where[b].add(s)
            else:
                other.pop(b, None)
                where[b].discard(s)
    return changed


def _peel_short_rows(rows: dict[int, dict[int, int]]) -> int:
    """Pivot on rows with at most two entries, until none is left, and drop
    the rows that become empty.  Returns the number of pivots."""
    where: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            where.setdefault(c, set()).add(r)
    short = [r for r, row in rows.items() if len(row) <= 2]
    pivots = 0
    while short:
        r = short.pop()
        if r not in rows:
            continue
        if not rows[r]:
            del rows[r]
            continue
        short.extend(s for s in _pivot(rows, where, r) if len(rows[s]) <= 2)
        pivots += 1
    return pivots


def _sparse_has_full_column_rank(
    row: np.ndarray, col: np.ndarray, value: np.ndarray, nrows: int, ncols: int, late: int
) -> bool:
    """Whether the ``nrows`` x ``ncols`` matrix with these entries has full
    column rank mod PRIME: the fill-free pivots first, then
    :func:`_has_full_column_rank` on the dense core that is left, with the
    rows numbered below ``late`` first."""
    alive, pivots = _peel_single_entry_rows(row, col, nrows, ncols)
    row, col, value = row[alive], col[alive], value[alive]
    if np.any(np.bincount(row, minlength=nrows) == 2):
        rows: dict[int, dict[int, int]] = {}
        for r, c, v in zip(row.tolist(), col.tolist(), value.tolist()):
            rows.setdefault(r, {})[c] = v
        pivots += _peel_short_rows(rows)
        row = np.array([r for r, entries in rows.items() for _ in entries], dtype=np.int64)
        col = np.array([c for entries in rows.values() for c in entries], dtype=np.int64)
        value = np.array([v for entries in rows.values() for v in entries.values()], dtype=np.int64)
    live_rows = np.bincount(row, minlength=nrows) > 0
    live_cols = np.bincount(col, minlength=ncols) > 0
    if pivots + np.count_nonzero(live_cols) < ncols:
        return False  # a column with no entry left
    core = np.zeros((np.count_nonzero(live_rows), np.count_nonzero(live_cols)), dtype=np.int64)
    core[np.cumsum(live_rows)[row] - 1, np.cumsum(live_cols)[col] - 1] = value
    return _has_full_column_rank(core, int(np.count_nonzero(live_rows[:late])))


def _eliminate(m: np.ndarray, j: int, rows: np.ndarray) -> None:
    """Clear column j in ``rows`` with pivot row j, whose entry there is 1.
    A pivot row nonzero in over half of its width updates whole row tails,
    a sparser one only its nonzero columns (the cheaper gather for each)."""
    cols = j + np.flatnonzero(m[j, j:])
    if 2 * cols.size > m.shape[1] - j:
        cols = slice(j, None)
        cells = (rows, cols)
    else:
        cells = np.ix_(rows, cols)
    block = m[cells]
    block -= block[:, :1] * m[j, cols]
    m[cells] = block % PRIME


def _has_full_column_rank(m: np.ndarray, late: int) -> bool:
    """Gaussian elimination mod PRIME, in place, on an int64 matrix with
    entries in [0, PRIME).  Each step updates only the rows with an entry in
    the pivot column.  Rows from ``late`` on join only when the rows above
    run out of pivots; the pivots taken so far are applied to them then."""
    nrows, ncols = m.shape
    for j in range(ncols):
        nonzero = j + np.flatnonzero(m[j:late, j])
        if not nonzero.size and late < nrows:
            for k in range(j):
                _eliminate(m, k, late + np.flatnonzero(m[late:, k]))
            late = nrows
            nonzero = j + np.flatnonzero(m[j:, j])
        if not nonzero.size:
            return False
        top = nonzero[0]
        if top != j:
            m[[j, top]] = m[[top, j]]
        m[j, j:] = m[j, j:] * pow(int(m[j, j]), PRIME - 2, PRIME) % PRIME
        if nonzero.size > 1:
            _eliminate(m, j, nonzero[1:])
    return True


def prove_smooth(f: HomogeneousPoly) -> SmoothnessProof | None:
    """A proof that V(f) is smooth, or None: the Macaulay matrix is rank
    deficient mod PRIME, exceeds ``MAX_CELLS``, or d < 2."""
    if f.d < 2:
        return None
    degree, nrows, ncols = macaulay_shape(f.n, f.d)
    if nrows * ncols > MAX_CELLS:
        return None
    row, col, value, late = _macaulay_rows(f, degree)
    if not _sparse_has_full_column_rank(row, col, value, nrows, ncols, late):
        return None
    return SmoothnessProof(PRIME, degree, ncols)

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

Elimination.  Rows with a single nonzero entry pivot first: eliminating
with such a row changes no other entry outside its column, so these pivots
cost no fill-in (structured Gaussian elimination), and they settle every
column of a Fermat-type form.  The rest is eliminated densely in int64,
entries kept in [0, PRIME) so that each product fits.  Macaulay's square
choice of rows goes first and the other rows join only if it runs out of
pivots, which for a general form nearly halves the work.  A matrix of more
than ``MAX_CELLS`` cells is not tested, and the caller keeps its heuristic
data.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
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


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of every monomial of ``degree``, in descending lex
    order with x_n most significant."""
    return [
        tuple(combo.count(j) for j in range(nvars))
        for combo in combinations_with_replacement(range(nvars - 1, -1, -1), degree)
    ]


def _macaulay_rows(f: HomogeneousPoly, degree: int) -> tuple[list[dict[int, int]], int]:
    """The rows of the Macaulay matrix as {column: value mod PRIME}, nonzero
    values only, and the number of rows in Macaulay's square choice, which
    come first: row (i, m) with m_k < d-1 for every k < i, one per column
    (x^a gets (x^a / x_i^(d-1)) * dF/dx_i for the first i with a_i >= d-1).
    For a general f these alone have full rank.

    Columns follow :func:`_monomials`, a monomial order taken descending, so
    a row's first column is its leading term; the rows of each partial come
    in ascending order of leading term.  On a dense disguised quintic
    surface, ascending columns eliminate 3x slower and descending rows 1.4x
    slower."""
    nvars = f.nvars
    F = primitive_form(f)
    # Exponents packed base degree+1: a product's code is the sum of codes.
    radix = [(degree + 1) ** k for k in range(nvars)]

    def code(exp) -> int:
        return sum(e * r for e, r in zip(exp, radix))

    column = {code(exp): j for j, exp in enumerate(_monomials(nvars, degree))}
    shifts = [(m, code(m)) for m in reversed(_monomials(nvars, degree - f.d + 1))]
    square, extra = [], []
    for i in range(nvars):
        partial = [
            (code(exp) - radix[i], c.numerator * exp[i] % PRIME) for exp, c in F.terms if exp[i]
        ]
        partial = [(e, v) for e, v in partial if v]
        for m, m_code in shifts:
            try:
                row = {column[m_code + e]: v for e, v in partial}
            except KeyError as exc:
                raise InternalConsistencyError(
                    f"Macaulay row of partial {i} has a monomial {exc} outside degree {degree}"
                ) from exc
            (square if max(m[:i], default=0) < f.d - 1 else extra).append(row)
    return square + extra, len(square)


def _peel_single_entry_rows(rows: list[dict[int, int]]) -> int:
    """Pivot on every row with one entry, until none is left, removing the
    pivot columns from the rows in place.  Returns the number of pivots."""
    pivots = 0
    while done := {col for row in rows if len(row) == 1 for col in row}:
        for row in rows:
            for col in done.intersection(row):
                del row[col]
        pivots += len(done)
    return pivots


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
    rows, late = _macaulay_rows(f, degree)
    peeled = _peel_single_entry_rows(rows)
    late = sum(1 for row in rows[:late] if row)
    rows = [row for row in rows if row]
    core_columns = {col: k for k, col in enumerate(sorted({col for row in rows for col in row}))}
    if peeled + len(core_columns) < ncols:
        return None  # a column with no entry left
    core = np.zeros((len(rows), len(core_columns)), dtype=np.int64)
    for r, row in enumerate(rows):
        core[r, [core_columns[col] for col in row]] = list(row.values())
    if not _has_full_column_rank(core, late):
        return None
    return SmoothnessProof(PRIME, degree, ncols)

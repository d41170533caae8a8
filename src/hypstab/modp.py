"""Common zeros of integer forms excluded by rank computations modulo a prime.

The kernel.  Let g_1, ..., g_k be integer forms of degrees e_1, ..., e_k (the
degrees may differ) in the variables x_0..x_N, and D a degree.  The Macaulay
matrix M_D has one row for each pair (j, m), m a monomial of degree D - e_j,
holding the coefficients of m * g_j, and one column for each monomial of
degree D.  :func:`prove_empty` reduces M_D modulo ``PRIME`` and reports that
the forms have no common zero when M_D has full column rank there.

Soundness, for any list of forms, every D and every prime p.  Let P be a
point of P^N over the algebraic closure of Q at which every g_j vanishes,
and let v_P be the vector of the degree-D monomials evaluated at P.  Row
(j, m) of M_D times v_P is (m * g_j)(P) = 0, so M_D v_P = 0, and v_P != 0
because x_i^D(P) != 0 for a coordinate P_i != 0.  So M_D has a nonzero
kernel, every maximal minor of the integer matrix M_D is 0, and so is its
residue mod p: reduction mod p cannot raise the rank.  Full column rank mod
p at any one D therefore proves that the g_j have no common zero over the
algebraic closure of Q.  The forms enter only through their residues mod p,
so they may be computed mod p.  :func:`prove_empty` steps D upward from the
largest generator degree, and stops at the first full rank, at the caller's
top degree, or before a matrix of more than ``MAX_CELLS`` cells.  Its
columns are the monomials of :func:`~hypstab.grid.monomials`.  The two
proofs below call it, both on the partials of F.

Smoothness (:func:`prove_smooth`).  Let F be f with its denominators cleared
and its content removed, so that F has coprime integer coefficients (a
content divisible by ``PRIME`` would make all of M vanish mod ``PRIME``).
V(f) is smooth exactly when the n+1 partials of F have no common zero.  Then
they form a regular sequence, whose socle degree is (n+1)(d-2), so (by
Macaulay) their ideal contains every form of degree D = (n+1)(d-2)+1 and
none of the lower degrees is full: M_D has full column rank over Q, hence mod
all but finitely many primes, and D is the only degree tried.

The Hessian-rank bound (:func:`prove_hessian_rank`).
Let H be the Hessian of F.  At a singular point P, H(P) P = (d-1) grad F(P)
= 0, and H(P) has the rank of the tangent cone's quadric at P (the
``hessian_rank`` of :class:`~hypstab.local_analysis.LocalData`), at most n.
If the partials of F and the r x r minors of H have no common zero, then
rank H(P) >= r at every singular point P over the algebraic closure of Q,
and so:

- delta = 2 unless V(f) is smooth: at a point of multiplicity >= 3 every
  second partial of F vanishes, and H(P) = 0 has rank 0 < r.
- s <= n - r: let Z be a k-dimensional component of the singular locus and
  C its affine cone, of dimension k+1.  grad F vanishes on C, so at a smooth
  point P of C its derivative H(P) v vanishes for every tangent vector v of
  C at P.  So ker H(P) has dimension at least k+1, and r <= rank H(P) <= n-k.

When r < n one more call proves s <= 0: it tests the partials of F
restricted to a hyperplane x_n = sum c_i x_i with every c_i != 0.  A
singular locus of dimension >= 1 meets every hyperplane, so partials without
a common zero on the hyperplane leave at most finitely many singular points.

Construction.  What the matrix's shape (the number of variables, D and the
generator degrees in order) decides is built once per shape and kept
read-only in a bounded cache of 16 shapes, beside the tiles of
:mod:`~hypstab.grid`: the column monomials' codes with their radix and
dtype, the codes of the shifts of each generator degree, and Macaulay's
square choice with its row numbering.  Its row and column counts must be
:func:`matrix_shape`'s.  A call builds only what its forms decide: their
term codes and values, the entries, and the check that every entry has a
column.  The ``MAX_CELLS`` cap is checked on :func:`matrix_shape` before
anything is built.

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
cells is not tested, and the caller keeps its heuristic data.  A Macaulay
row with a monomial outside its columns is a fault of the program and raises
:class:`InternalConsistencyError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, count
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .grid import exact_dtype, monomials as monomial_rows
from .linalg import RationalMatrix, apply_linear_change
from .polynomials import Exponent, HomogeneousPoly
from .verdicts import InternalConsistencyError

PRIME = 2**31 - 1
# Largest Macaulay matrix tested, in cells (rows x columns).  It admits the
# quintic surface (880 x 560) and bounds the dense core to 4 MB.
MAX_CELLS = 2**19


@dataclass(frozen=True)
class IntForm:
    """An integer form by its residues mod PRIME: its degree, its exponents
    (one per row) and their coefficients in [0, PRIME).  The degree is
    explicit so that a form that vanishes mod PRIME keeps its (empty) rows."""

    degree: int
    exps: np.ndarray
    values: np.ndarray

    @staticmethod
    def from_terms(degree: int, nvars: int, terms: Mapping[Exponent, int]) -> "IntForm":
        """The form with these integer coefficients, in the terms' order."""
        exps = np.array(list(terms), dtype=np.int64).reshape(-1, nvars)
        values = np.array([c % PRIME for c in terms.values()], dtype=np.int64)
        return IntForm(degree, exps, values)


@dataclass(frozen=True)
class MacaulayProof:
    """The Macaulay matrix of ``ideal`` in ``degree`` has full column rank
    ``rank`` modulo ``prime``: its generators have no common zero."""

    ideal: str
    prime: int
    degree: int
    rank: int

    def __str__(self) -> str:
        return (
            f"the Macaulay matrix of {self.ideal} in degree {self.degree} "
            f"has full column rank {self.rank} mod {self.prime}"
        )


@dataclass(frozen=True)
class HessianRankBound:
    """Every singular point of V(f) over the algebraic closure of Q has
    Hessian rank at least ``rank`` (``minors``), so delta <= 2 and
    s <= ``s_max``: n - ``rank``, or 0 by ``hyperplane``."""

    rank: int
    s_max: int
    minors: MacaulayProof
    hyperplane: MacaulayProof | None = None


def matrix_shape(degrees: Sequence[int], nvars: int, degree: int) -> tuple[int, int]:
    """Row and column count of the Macaulay matrix in ``degree`` of forms of
    these degrees in ``nvars`` variables."""
    rows = sum(comb(degree - e + nvars - 1, nvars - 1) for e in degrees if e <= degree)
    return rows, comb(degree + nvars - 1, nvars - 1)


def macaulay_shape(n: int, d: int) -> tuple[int, int, int]:
    """Degree D, row count and column count of the Macaulay matrix of the
    partials of a degree-``d`` form in ``n + 1`` variables."""
    degree = (n + 1) * (d - 2) + 1
    return (degree, *matrix_shape([d - 1] * (n + 1), n + 1, degree))


@lru_cache(maxsize=16)
def _skeleton(nvars: int, degree: int, degrees: tuple[int, ...]):
    """The read-only tables of the Macaulay matrix in ``degree`` of forms of
    ``degrees``, in this order, in ``nvars`` variables, which no form's
    coefficients change: ``(radix, ascending, shifts, first, numbers,
    nsquare)``.

    ``radix`` packs an exponent vector into its code, ``ascending`` holds
    the codes of the columns in ascending order, and ``shifts`` pairs each
    generator degree e, ascending, with the codes of the shifts m of degree
    D - e, ascending.  The rows of form j are ``numbers[first[j]:first[j +
    1]]``, one per shift, and the ``nsquare`` rows of Macaulay's square
    choice are numbered first.  Its row and column counts are
    :func:`matrix_shape`'s, or the program is at fault."""
    # Exponents packed base degree+1, so a product's code is the sum of codes
    # and the codes of the degree-D monomials descend in column order.  Codes
    # are below (degree+1)^nvars; Python ints hold them where int64 cannot
    # (a quadric in 64 or more variables).
    dtype = exact_dtype((degree + 1) ** nvars - 1)
    radix = np.array([(degree + 1) ** k for k in range(nvars)], dtype=dtype)
    columns = monomial_rows(nvars, degree)
    codes = columns @ radix
    ascending = codes[::-1]
    # For each generator degree e, the shifts m of degree D-e, ascending, and
    # their codes: the columns x_n^e * m, in order, less e on x_n.  The
    # square choice reads only the exponents of x_0..x_(n-1).
    shifts = {}
    for e in sorted(set(degrees)):
        above = columns[:, -1] >= e
        shifts[e] = (columns[above][::-1, :-1], codes[above][::-1] - e * radix[-1])
    first = np.array(list(accumulate((len(shifts[e][1]) for e in degrees), initial=0)))
    # Macaulay's square choice: for each degree e among the first nvars
    # forms, whether a shift m has m_i < e_i for every i < j, for each j.
    lower = degrees[:nvars]
    below = {}
    for e in set(lower):
        below[e] = np.ones((len(shifts[e][1]), len(lower)), dtype=bool)
        np.logical_and.accumulate(
            shifts[e][0][:, : len(lower) - 1] < lower[:-1], axis=1, out=below[e][:, 1:]
        )
    square = np.concatenate(
        [below[e][:, j] for j, e in enumerate(lower)]
        + [np.zeros(first[-1] - first[len(lower)], dtype=bool)]
    )
    nsquare = int(np.count_nonzero(square))
    numbers = np.empty(square.size, dtype=np.int64)
    numbers[square] = np.arange(nsquare)
    numbers[~square] = np.arange(nsquare, square.size)
    expected = matrix_shape(degrees, nvars, degree)
    if (int(first[-1]), ascending.size) != expected:
        raise InternalConsistencyError(
            f"Macaulay matrix in degree {degree} built with {first[-1]} rows and "
            f"{ascending.size} columns, not the {expected[0]} and {expected[1]} of its shape"
        )
    by_degree = tuple((e, table[1]) for e, table in shifts.items())
    for array in (radix, ascending, first, numbers, *(codes for _, codes in by_degree)):
        array.flags.writeable = False
    return radix, ascending, by_degree, first, numbers, nsquare


def _macaulay_rows(
    forms: Sequence[IntForm], nvars: int, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The Macaulay matrix of ``forms`` in ``degree`` as (row, column, value
    mod PRIME), one entry per nonzero cell, and the number of rows in
    Macaulay's square choice, which are numbered first: row (j, m) of one of
    the first ``nvars`` forms with m_i < e_i for every i < j.  For the
    partials of a general form these alone are square and have full rank
    (x^a gets (x^a / x_j^(d-1)) * dF/dx_j for the first j with a_j >= d-1).

    Columns follow :func:`~hypstab.grid.monomials`, a monomial order taken descending, so
    a row's first column is its leading term; the rows of each form are
    numbered in ascending order of leading term, and the entries run degree
    by degree and, for the forms of one degree, shift by shift, each over
    their terms in order.  On a dense disguised quintic surface, ascending
    columns eliminate 3x slower and descending rows 1.4x slower.  What the
    shape decides comes from :func:`_skeleton`; a call builds only its
    forms' term codes, values and entries, and checks that every entry has
    a column."""
    degrees = tuple(g.degree for g in forms)
    radix, ascending, shifts, first, numbers, nsquare = _skeleton(nvars, degree, degrees)
    # Every term of every form at once: its form, exponent and value.
    owner = np.repeat(np.arange(len(forms)), [len(g.values) for g in forms])
    exps = np.concatenate([g.exps for g in forms])
    value = np.concatenate([g.values for g in forms])
    keep = value != 0
    owner, term_codes, value = owner[keep], exps[keep] @ radix, value[keep]
    # The entries of the forms of each degree, shift by shift, each over
    # their terms in order.
    blocks = []
    for e, shift_codes in shifts:
        sel = np.flatnonzero(np.array(degrees)[owner] == e) if len(shifts) > 1 else slice(None)
        local = np.arange(len(shift_codes))[:, None]
        blocks.append((
            numbers[first[owner[sel]] + local],
            shift_codes[:, None] + term_codes[sel],
            np.broadcast_to(value[sel], (len(shift_codes), len(value[sel]))),
        ))
    row, code, value = (np.concatenate([b[k] for b in blocks], axis=None) for k in range(3))
    where = np.minimum(np.searchsorted(ascending, code), ascending.size - 1)
    outside = ascending[where] != code
    if outside.any():
        k = int(np.argmax(outside))
        form = np.searchsorted(first, np.flatnonzero(numbers == row[k])[0], side="right") - 1
        monomial = tuple(int(e) for e in code[k] // radix % (degree + 1))
        raise InternalConsistencyError(
            f"Macaulay row of generator {form} has a monomial {monomial} outside "
            f"the degree-{degree} columns"
        )
    return row, ascending.size - 1 - where, value, nsquare


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


def prove_empty(
    forms: Sequence[IntForm],
    nvars: int,
    top: int,
    start: int | None = None,
    ideal: str = "the forms",
) -> MacaulayProof | None:
    """A proof that ``forms``, in ``nvars`` variables, have no common zero
    over the algebraic closure of Q, or None: the Macaulay matrix is rank
    deficient mod PRIME in every degree from the largest generator degree
    (or ``start``, if larger) to ``top``, or the next degree's matrix would
    exceed ``MAX_CELLS``.  Degrees with fewer rows than columns are skipped.
    ``ideal`` names the forms in the proof."""
    degrees = [g.degree for g in forms]
    for degree in range(max(degrees + [start or 0]), top + 1):
        nrows, ncols = matrix_shape(degrees, nvars, degree)
        if nrows * ncols > MAX_CELLS:
            return None
        if nrows < ncols:
            continue
        row, col, value, late = _macaulay_rows(forms, nvars, degree)
        if _sparse_has_full_column_rank(row, col, value, nrows, ncols, late):
            return MacaulayProof(ideal, PRIME, degree, ncols)
    return None


def partial_terms(F: HomogeneousPoly) -> list[dict[Exponent, int]]:
    """The partials of the integer form F, each in the order of F's terms."""
    return [
        {
            exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c.numerator * exp[i]
            for exp, c in F.terms
            if exp[i]
        }
        for i in range(F.nvars)
    ]


def _partials(F: HomogeneousPoly) -> list[IntForm]:
    """The partials of the integer form F mod PRIME."""
    return [IntForm.from_terms(F.d - 1, F.nvars, p) for p in partial_terms(F)]


def prove_smooth(f: HomogeneousPoly) -> MacaulayProof | None:
    """A proof that V(f) is smooth, or None: the Macaulay matrix of the
    partials is rank deficient mod PRIME, exceeds ``MAX_CELLS``, or d < 2."""
    if f.d < 2:
        return None
    degree = macaulay_shape(f.n, f.d)[0]
    return prove_empty(_partials(f.primitive), f.nvars, degree, degree, "the partials")


def _hessian_minors(F: HomogeneousPoly, r: int) -> list[IntForm]:
    """The nonzero r x r minors of the Hessian of F mod PRIME, one for each
    pair of index sets I <= J (H is symmetric, so the minor on (J, I) is the
    same form).  The k x k minors come from the (k-1) x (k-1) ones in one
    batch, by expansion along the first row: every entry times its cofactor
    at once, the products added up by monomial in one bincount.  A sum holds
    at most k times (number of entry monomials) products, each below PRIME,
    so it is exact in float64."""
    nvars, e = F.nvars, F.d - 2
    weights = [(r * e + 1) ** k for k in range(nvars)]
    radix = np.array(weights, dtype=np.int64)
    monomials = [monomial_rows(nvars, k * e) for k in range(r + 1)]
    codes = [m @ radix for m in monomials]
    position = {int(code): at for at, code in enumerate(codes[1])}
    hessian = np.zeros((nvars, nvars, len(position)), dtype=np.int64)
    for exp, c in F.terms:
        code = sum(x * w for x, w in zip(exp, weights))
        for i, j in combinations_with_replacement(range(nvars), 2):
            times = exp[i] * (exp[j] - (i == j))
            if times:
                at = position[code - weights[i] - weights[j]]
                value = (int(hessian[i, j, at]) + c.numerator * times) % PRIME
                hessian[i, j, at] = hessian[j, i, at] = value
    singles = list(combinations(range(nvars), 1))
    minors = {(i, j): hessian[i[0], j[0]] for a, i in enumerate(singles) for j in singles[a:]}
    for k in range(2, r + 1):
        subsets = list(combinations(range(nvars), k))
        pairs = [(i, j) for a, i in enumerate(subsets) for j in subsets[a:]]
        smaller = list(minors)
        where = {key: at for at, key in enumerate(smaller)}
        pair, entry, cofactor, sign = [], [], [], []
        for p, (i, j) in enumerate(pairs):
            for t in range(k):
                sub = (i[1:], j[:t] + j[t + 1:])
                pair.append(p)
                entry.append(hessian[i[0], j[t]])
                cofactor.append(where[min(sub, sub[::-1])])
                sign.append(1 - 2 * (t % 2))
        cofactors = np.stack(list(minors.values()))[cofactor]
        products = np.array(entry)[:, :, None] * cofactors[:, None, :] % PRIME
        # Monomial of each (entry term, cofactor term) product: descending
        # codes, so the index counts back from the end.
        ascending = codes[k][::-1]
        product_codes = codes[1][:, None] + codes[k - 1][None, :]
        target = len(ascending) - 1 - np.searchsorted(ascending, product_codes)
        width = len(ascending)
        bins = (np.array(pair)[:, None, None] * width + target[None]).ravel()
        signed = (products * np.array(sign)[:, None, None]).ravel().astype(np.float64)
        sums = np.bincount(bins, signed, minlength=len(pairs) * width)
        minors = dict(zip(pairs, np.rint(sums).astype(np.int64).reshape(len(pairs), width) % PRIME))
    return [IntForm(r * e, monomials[r][v != 0], v[v != 0]) for v in minors.values() if v.any()]


def _hyperplane(n: int, points) -> list[int]:
    """Coefficients c_i = t^(i+1) of a hyperplane x_n = sum c_i x_i, with the
    first t >= 2 for which it misses every point given.  A point P is on it
    for at most n values of t: sum P_i t^(i+1) - P_n is a nonzero polynomial
    in t, since P != 0."""
    for t in count(2):
        c = [t ** (i + 1) for i in range(n)]
        if all(sum(ci * Fraction(x) for ci, x in zip(c, p)) != Fraction(p[n]) for p in points):
            return c


def _restricted_partials(F: HomogeneousPoly, c: list[int]) -> list[IntForm]:
    """The partials of G = F(x_0, ..., x_(n-1), x_n + sum c_i x_i) at
    x_n = 0, as forms in x_0..x_(n-1).  By the chain rule they are the
    partials of F on x_n = sum c_i x_i times a unimodular integer matrix, so
    their ideal, and each Macaulay matrix's rank, is the same."""
    n = F.n
    sigma = [[int(k == j) for j in range(n)] + [ck] for k, ck in enumerate(c)]
    G = apply_linear_change(F, RationalMatrix.from_rows(sigma + [[0] * n + [1]]))
    return [
        IntForm.from_terms(F.d - 1, n, {exp[:-1]: u for exp, u in partial.items() if not exp[-1]})
        for partial in partial_terms(G)
    ]


def prove_hessian_rank(
    f: HomogeneousPoly, r: int, points: Sequence[Sequence[Fraction]] = ()
) -> HessianRankBound | None:
    """A proof that every singular point of V(f) over the algebraic closure
    of Q has Hessian rank at least ``r``, with the bound on s it gives, or
    None.  When r < n it also tries s <= 0 on a hyperplane that misses
    ``points`` (coordinate tuples of known singular points).  Each call to
    :func:`prove_empty` ramps its degree up to (n+1)(d-2)+1 at most."""
    if not 1 <= r <= f.n or f.d < 3:
        return None
    F = f.primitive
    top = macaulay_shape(f.n, f.d)[0]
    # Every minor counted: a matrix over the cap at the first degree is not
    # tried, and its minors are not computed.
    degrees = [f.d - 1] * f.nvars + [r * (f.d - 2)] * comb(comb(f.nvars, r) + 1, 2)
    nrows, ncols = matrix_shape(degrees, f.nvars, max(degrees))
    if nrows * ncols > MAX_CELLS:
        return None
    ideal = f"the partials and the {r} x {r} Hessian minors"
    minors = prove_empty(_partials(F) + _hessian_minors(F, r), f.nvars, top, ideal=ideal)
    if minors is None:
        return None
    if r == f.n:
        return HessianRankBound(r, 0, minors)
    c = _hyperplane(f.n, points)
    plane = " + ".join(f"{ci}*x{i}" for i, ci in enumerate(c))
    hyperplane = prove_empty(
        _restricted_partials(F, c), f.n, top, ideal=f"the partials on x{f.n} = {plane}"
    )
    if hyperplane is None:
        return HessianRankBound(r, f.n - r, minors)
    return HessianRankBound(r, 0, minors, hyperplane)

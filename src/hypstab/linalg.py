"""Exact rational matrices, ranks, and linear coordinate changes.

Everything here is exact.  A :class:`RationalMatrix` is an invertible
coordinate change: it is immutable, holds Python integers over one positive
denominator s, the lcm of the entries' denominators, so the form is
canonical, and every constructor refuses an empty, non-square or singular
matrix by the Bareiss pivots of its stored integers, once, when it is built.
:class:`~fractions.Fraction` entries are built only when ``rows`` is read.
A product is built from its factors' integer rows (:func:`matrix_product`),
which divides the scale out once, so a frame composed of several factors is
checked once, as the one matrix it is, and its factors are never built.  Ranks,
nullspaces and that invertibility check share one fraction-free (Bareiss)
forward elimination, on integer-scaled rows for a nullspace, which
back-substitutes through the rows it leaves.  Coordinate changes read the
form's cached integer view (``HomogeneousPoly.integer_view``), so no call
clears a form's denominators again, and run no elimination: they check only
that the matrix's size matches the form's variables, expand the
integer-scaled polynomial under its integers and emit its terms already in
canonical order.  When only the support of the result is needed,
:func:`transformed_supports` expands it for many matrices at once in numpy,
over the monomials of :func:`~hypstab.grid.monomials` read backwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, lcm
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

from .grid import exact_dtype, monomials as monomial_rows
from .polynomials import Exponent, HomogeneousPoly
from .verdicts import InternalConsistencyError


class MatrixError(ValueError):
    """Invalid matrix construction or operation."""


@dataclass(frozen=True)
class RationalMatrix:
    """An invertible coordinate change: entry (i, j) is ``ints[i][j] / scale``,
    with ``scale`` the lcm of the entries' denominators, so equal matrices
    have equal fields.  Every matrix is checked once, when it is built: an
    empty, non-square or singular one raises :class:`MatrixError`."""

    scale: int
    ints: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size = len(self.ints)
        if not size:
            raise MatrixError("empty matrix")
        if any(len(row) != size for row in self.ints):
            raise MatrixError("coordinate change must be square")
        if len(_bareiss(self.ints)[1]) < size:
            raise MatrixError("coordinate change must be invertible")

    @staticmethod
    def from_rows(data: Iterable[Iterable]) -> "RationalMatrix":
        rows = [[as_rational(x) for x in row] for row in data]
        scale = lcm(*(v.denominator for row in rows for v in row))
        return RationalMatrix(scale, tuple(tuple(scaled_integers(row, scale)) for row in rows))

    @staticmethod
    @lru_cache(maxsize=16)
    def identity(size: int) -> "RationalMatrix":
        """The identity of ``size`` variables, built once per size (a matrix
        is immutable, so every caller shares it)."""
        return RationalMatrix(1, tuple(tuple(int(i == j) for j in range(size)) for i in range(size)))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in self.ints)

    @property
    def nrows(self) -> int:
        return len(self.ints)

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]


def permutation_rows(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The integer rows of the coordinate change sending x_j to
    x_{images[j]}: column j is the unit vector at ``images[j]``."""
    size = len(images)
    if sorted(images) != list(range(size)):
        raise MatrixError(f"{images} is not a permutation")
    return tuple(tuple(int(images[j] == k) for j in range(size)) for k in range(size))


def matrix_product(
    left: Sequence[Sequence[int]], right: Sequence[Sequence[int]], scale: int = 1
) -> RationalMatrix:
    """The coordinate change ``left @ right / scale`` of integer matrices
    given by rows, in canonical form.  A frame composed of factors is built
    from their integer rows, so only the product is checked."""
    if any(len(row) != len(right) for row in left):
        raise MatrixError("dimension mismatch in product")
    cols = list(zip(*right))
    ints = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in left]
    content = gcd(scale, *(v for row in ints for v in row))
    return RationalMatrix(scale // content, tuple(tuple(v // content for v in row) for row in ints))


def as_rational(x) -> int | Fraction:
    """``x`` itself for an int or a Fraction (both carry ``numerator`` and
    ``denominator``), else ``Fraction(x)``."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) forward elimination on integer rows: each
    step's division by the previous pivot is exact.  Returns the rows, whose
    row i below the rank is exact from its pivot column on (an echelon form;
    entries left of a pivot are not cleared), and the pivot columns (the rank
    profile)."""
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
        pivot_row, p = m[rank], m[rank][col]
        for row in m[rank + 1:]:
            factor = row[col]
            for c in range(col + 1, ncols):
                row[c] = (row[c] * p - factor * pivot_row[c]) // prev
        prev = p
        pivots.append(col)
    return m, pivots


def integer_rank(rows: list[list[int]]) -> int:
    """Rank via fraction-free (Bareiss) elimination on integer rows."""
    return len(_bareiss(rows)[1])


def scaled_integers(values: Iterable[int | Fraction], scale: int) -> list[int]:
    """``scale * v`` for each v, where every denominator divides ``scale``."""
    return [v.numerator * (scale // v.denominator) for v in values]


def primitive_row(row: Iterable) -> list[int]:
    """The positive multiple of a rational row with coprime integer entries
    (a zero row stays zero)."""
    values = [as_rational(x) for x in row]
    ints = scaled_integers(values, lcm(*(v.denominator for v in values)))
    content = gcd(*ints)
    return [v // content for v in ints] if content > 1 else ints


def rational_rank(rows: Iterable[Iterable]) -> int:
    """Rank over Q; rows are scaled to integers first (rank-preserving)."""
    return integer_rank([primitive_row(row) for row in rows])


def _nullspace(rows: Iterable[Iterable]) -> Iterator[list[Fraction]]:
    """The rational solutions of ``rows . x = 0`` with one free variable set
    to 1 and the others to 0, one per free column in increasing order (the
    reduced echelon basis, unique, so deterministic), each back-substituted
    through the Bareiss rows of the integer-scaled rows.  The solution for
    free column c is zero after c, so only the pivot rows before c count."""
    m, pivots = _bareiss([primitive_row(row) for row in rows])
    if not m:
        return
    ncols, pivot_set = len(m[0]), set(pivots)
    for free in (c for c in range(ncols) if c not in pivot_set):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for i in reversed(range(sum(col < free for col in pivots))):
            row, col = m[i], pivots[i]
            x[col] = -sum(row[c] * x[c] for c in range(col + 1, free + 1)) / row[col]
        yield x


def nullspace_basis(rows: Iterable[Iterable]) -> list[list[Fraction]]:
    """A rational basis of the solutions of ``rows . x = 0``: for each free
    column c, the solution with x_c = 1 and the other free variables 0."""
    return list(_nullspace(rows))


def nullspace_vector(rows: Iterable[Iterable]) -> list[Fraction] | None:
    """The first vector of :func:`nullspace_basis`, or None; only that one
    is back-substituted."""
    return next(_nullspace(rows), None)


def matrix_moving_point_last(coords: Sequence[int]) -> RationalMatrix:
    """Invertible integer matrix whose last row is ``coords``.

    Used to relocate a rational projective point to [0:...:0:1]: applying the
    resulting matrix as a coordinate change turns the expansion in powers of
    the last coordinate into the local picture at the point.  A coordinate
    that is not an integer (``operator.index`` refuses it, as it does a
    Fraction, which ``int`` would truncate to another point) raises
    :class:`MatrixError`.
    """
    ints = []
    for j, c in enumerate(coords):
        try:
            ints.append(index(c))
        except TypeError as exc:
            raise MatrixError(f"point coordinate {j} is not an integer: {c!r}") from exc
    pivot = next((j for j, c in enumerate(ints) if c != 0), None)
    if pivot is None:
        raise MatrixError("zero vector is not a projective point")
    size = len(ints)
    rows = [tuple(int(i == j) for i in range(size)) for j in range(size) if j != pivot]
    rows.append(tuple(ints))
    return RationalMatrix(1, tuple(rows))


def apply_linear_change(f: HomogeneousPoly, sigma: RationalMatrix) -> HomogeneousPoly:
    """Compose ``f`` with the substitution x_j -> sum_k sigma[k][j] * x_k.

    The action satisfies ``apply(apply(f, tau), sigma) == apply(f, sigma @ tau)``
    and the identity matrix acts trivially.

    The expansion runs on integers: f's integer view holds ``fden * f`` for
    the lcm ``fden`` of its denominators, ``sigma`` stores ``s * sigma`` as
    integers, each exponent tuple is packed base ``d + 1`` into one int (no
    carries, since every exponent is at most ``d``), and the sum is divided
    by ``fden * s**d`` once at the end.
    The result's terms are built in canonical order, not through
    :meth:`HomogeneousPoly.make`.
    """
    size = f.n + 1
    _check_change(sigma, size)

    base = f.d + 1
    # x0 is the most significant digit, so descending keys are descending
    # lex order on exponents.
    place = [base ** (size - 1 - k) for k in range(size)]
    fden, coeffs = f.integer_view
    forms = [{place[k]: row[j] for k, row in enumerate(sigma.ints) if row[j]} for j in range(size)]

    # powers[j][t - 1] = forms[j] ** t, up to the largest power of x_j in f.
    powers = []
    for form, top in zip(forms, map(max, zip(*f.support()))):
        chain = [form]
        for _ in range(1, top):
            chain.append(_packed_product(chain[-1], form))
        powers.append(chain)

    acc: dict[int, int] = {}
    for (exp, _), coeff in zip(f.terms, coeffs):
        prod = {0: coeff}
        for j, t in enumerate(exp):
            if t:
                prod = _packed_product(prod, powers[j][t - 1])
        for key, c in prod.items():
            acc[key] = acc.get(key, 0) + c

    # The keys are distinct degree-d exponents, so lex-descending order is
    # the canonical graded-lex order.
    scale = fden * sigma.scale**f.d
    terms = tuple(
        (tuple([key // p % base for p in place]), Fraction(acc[key], scale))
        for key in sorted(acc, reverse=True)
        if acc[key]
    )
    result = HomogeneousPoly(f.n, f.d, terms)
    if result.is_zero and not f.is_zero:
        raise InternalConsistencyError("invertible change of coordinates produced zero polynomial")
    return result


def _check_change(sigma: RationalMatrix, size: int) -> None:
    """Raise :class:`MatrixError` unless sigma is a change of ``size``
    variables (its invertibility was checked when it was built)."""
    if sigma.nrows != size:
        raise MatrixError(f"matrix size {sigma.nrows} does not match {size} variables")


def _packed_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return out


def transformed_supports(
    f: HomogeneousPoly, sigmas: Sequence[RationalMatrix]
) -> list[tuple[Exponent, ...]]:
    """The exact support of ``apply_linear_change(f, sigma)`` for each sigma,
    in canonical (descending lex) order, computed for all of them at once.

    Each term c * x^e of the integer-scaled f is the product of the linear
    forms L_j = sum_k S[k][j] * y_k over its factors j1 <= ... <= jd, with S
    the stored integers of a sigma (a positive multiple, which keeps the
    support).  The terms are summed Horner-wise over the trie of their factor
    sequences: the node of a prefix u of length t holds
    R_u = sum_j L_j * R_(u, j), of degree d - t, for every frame at once, and
    the root holds the expansion.  Multiplying by L_j is one gather through
    the index map monomial x_k -> monomial / x_k, summed over k, so memory
    grows as frames x N x (n+1) for the N monomials of the node's degree.

    Every value computed, partial sums included, is a signed sum of a subset
    of the terms c * prod S[k_i][j_i] of the full expansion, so it is at most
    sum |c| * M^d in absolute value, where M is the largest column abs-sum of
    any S, and :func:`~hypstab.grid.exact_dtype` picks int64 or Python ints
    (``object`` dtype) from that bound.
    """
    size = f.n + 1
    for sigma in sigmas:
        _check_change(sigma, size)
    if f.is_zero or f.d == 0 or not sigmas:
        return [f.support()] * len(sigmas)

    d = f.d
    monomials, lower = _expansion_tables(size, d)
    coeffs = f.integer_view.ints
    column_sum = max(sum(map(abs, col)) for sigma in sigmas for col in zip(*sigma.ints))
    dtype = exact_dtype(sum(map(abs, coeffs)) * column_sum**d)
    # S[f, k, j]: the coefficient of y_k in L_j for frame f, with a zero row
    # k = size, so that a node of degree 1 comes out with its zero column.
    forms = np.zeros((len(sigmas), size + 1, size), dtype=dtype)
    forms[:, :size] = np.array([sigma.ints for sigma in sigmas], dtype=dtype)
    # Descending lex order on exponents is ascending lex order on factor
    # sequences, so the terms under each trie node are consecutive (were
    # they not, a node's terms would be summed in more than one part).
    factors = [tuple(j for j, t in enumerate(exp) for _ in range(t)) for exp, _ in f.terms]
    values = np.array(coeffs, dtype=dtype)
    # columns[j][f, k, 0] = S[f, k, j]: L_j of each frame, for a batched matmul.
    columns = [forms[:, :size, j, None] for j in range(size)]

    def horner(lo: int, hi: int, depth: int) -> np.ndarray:
        # R_u for the prefix u shared by factors[lo:hi], plus a zero column.
        if depth == d - 1:
            return forms[:, :, [factor[depth] for factor in factors[lo:hi]]] @ values[lo:hi]
        index = lower[d - depth - 1]
        out = np.zeros((len(sigmas), len(index) + 1), dtype=dtype)
        while lo < hi:
            j, end = factors[lo][depth], lo + 1
            while end < hi and factors[end][depth] == j:
                end += 1
            child = horner(lo, end, depth + 1)
            out[:, :-1] += (child[:, index] @ columns[j])[:, :, 0]
            lo = end
        return out

    nonzero = (horner(0, len(factors), 0)[:, :-1] != 0).tolist()
    # horner refers to itself through its closure, a reference cycle that
    # would keep its arrays alive until a full garbage collection: unbind it.
    del horner
    return [tuple(compress(monomials, row)) for row in nonzero]


@lru_cache(maxsize=32)
def _expansion_tables(nvars: int, degree: int) -> tuple[list[Exponent], list[np.ndarray]]:
    """The monomials of ``degree`` in descending lex order, and per a <
    ``degree`` the index map of the degree-(a+1) monomials: entry (m, k) is
    the position of m / x_k among the degree-a monomials, or N_a (the zero
    column after them) where x_k does not divide m."""
    # grid lists every monomial in descending lex order with x_n most
    # significant; read backwards, each row lists the same set with x_0 most
    # significant.
    monomials = [[tuple(map(int, row)) for row in monomial_rows(nvars, a)[:, ::-1]]
                 for a in range(degree + 1)]
    lower = []
    for below, above in zip(monomials, monomials[1:]):
        position = {m: i for i, m in enumerate(below)}
        index = np.array(
            [[position[m[:k] + (m[k] - 1,) + m[k + 1:]] if m[k] else len(below) for k in range(nvars)]
             for m in above],
            dtype=np.intp,
        )
        index.flags.writeable = False
        lower.append(index)
    return monomials[degree], lower


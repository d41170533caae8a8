"""Exact rational matrices, ranks, and linear coordinate changes.

Everything here is exact.  Matrices are immutable and hold Python integers
over one positive denominator s, the lcm of the entries' denominators, so
the form is canonical; :class:`~fractions.Fraction` entries are built only
when ``rows`` is read.  Products multiply the stored integers and divide the
scale out once.  Determinants and ranks share one fraction-free (Bareiss)
forward elimination, on the stored integers sA for a determinant
(det(A) = det(sA) / s^n); nullspaces use fraction-free Gauss-Jordan
elimination on integer-scaled rows, and coordinate changes expand the
integer-scaled polynomial under the stored integers and emit its terms
already in canonical order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .polynomials import HomogeneousPoly
from .verdicts import InternalConsistencyError


class MatrixError(ValueError):
    """Invalid matrix construction or operation."""


@dataclass(frozen=True)
class RationalMatrix:
    """Entry (i, j) is ``ints[i][j] / scale``, with ``scale`` the lcm of the
    entries' denominators, so equal matrices have equal fields."""

    scale: int
    ints: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(data: Iterable[Iterable]) -> "RationalMatrix":
        rows = [[as_rational(x) for x in row] for row in data]
        if not rows:
            raise MatrixError("empty matrix")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise MatrixError("rows have inconsistent lengths")
        scale = lcm(*(v.denominator for row in rows for v in row))
        return RationalMatrix(scale, tuple(tuple(scaled_integers(row, scale)) for row in rows))

    @staticmethod
    def identity(size: int) -> "RationalMatrix":
        return RationalMatrix.from_rows(
            [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        )

    @staticmethod
    def permutation(images: Sequence[int]) -> "RationalMatrix":
        """Coordinate change sending x_j to x_{images[j]}."""
        size = len(images)
        if sorted(images) != list(range(size)):
            raise MatrixError(f"{images} is not a permutation")
        rows = [[0] * size for _ in range(size)]
        for j, k in enumerate(images):
            rows[k][j] = 1
        return RationalMatrix.from_rows(rows)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in self.ints)

    @property
    def nrows(self) -> int:
        return len(self.ints)

    @property
    def ncols(self) -> int:
        return len(self.ints[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise MatrixError("dimension mismatch in product")
        cols = list(zip(*other.ints))
        ints = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in self.ints]
        scale = self.scale * other.scale
        content = gcd(scale, *(v for row in ints for v in row))
        return RationalMatrix(
            scale // content, tuple(tuple(v // content for v in row) for row in ints)
        )

    def determinant(self) -> Fraction:
        """det(sA) / s^n, with det(sA) from one Bareiss elimination of the
        stored integers sA."""
        if not self.is_square:
            raise MatrixError("determinant of a non-square matrix")
        rank, last = _bareiss(self.ints)
        if rank < self.nrows:
            return Fraction(0)
        return Fraction(last, self.scale**self.nrows)

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)


def as_rational(x) -> int | Fraction:
    """``x`` itself for an int or a Fraction (both carry ``numerator`` and
    ``denominator``), else ``Fraction(x)``."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) forward elimination on integer rows: each
    step's division by the previous pivot is exact.  Returns the rank and
    the last pivot times the sign of the row swaps, which for a square
    matrix of full rank is its determinant."""
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        pivot_row, p = m[rank], m[rank][col]
        for row in m[rank + 1:]:
            factor = row[col]
            for c in range(col + 1, ncols):
                row[c] = (row[c] * p - factor * pivot_row[c]) // prev
        prev = p
        rank += 1
    return rank, sign * prev


def integer_rank(rows: list[list[int]]) -> int:
    """Rank via fraction-free (Bareiss) elimination on integer rows."""
    return _bareiss(rows)[0]


def scaled_integers(values: Iterable[int | Fraction], scale: int) -> list[int]:
    """``scale * v`` for each v, where every denominator divides ``scale``."""
    return [v.numerator * (scale // v.denominator) for v in values]


def primitive_row(row: Iterable) -> list[int]:
    """The positive multiple of a rational row with coprime integer entries
    (a zero row stays zero)."""
    values = [as_rational(x) for x in row]
    return _primitive(scaled_integers(values, lcm(*(v.denominator for v in values))))


def _primitive(ints: list[int]) -> list[int]:
    content = gcd(*ints)
    return [v // content for v in ints] if content > 1 else ints


def rational_rank(rows: Iterable[Iterable]) -> int:
    """Rank over Q; rows are scaled to integers first (rank-preserving)."""
    return integer_rank([primitive_row(row) for row in rows])


def nullspace_vector(rows: Iterable[Iterable]) -> list[Fraction] | None:
    """One nontrivial rational solution of ``rows . x = 0``, or None.

    Fraction-free Gauss-Jordan elimination on integer-scaled rows, each
    updated row divided by its content; returns the solution with the first
    free variable set to 1 (deterministic).
    """
    m = [primitive_row(row) for row in rows]
    if not m:
        return None
    ncols = len(m[0])
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pivot_row = m[row]
        p = pivot_row[col]
        for r in range(len(m)):
            factor = m[r][col]
            if r != row and factor != 0:
                m[r] = _primitive([p * a - factor * b for a, b in zip(m[r], pivot_row)])
        pivots.append((row, col))
        row += 1
        if row == len(m):
            break
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for r, c in pivots:
        x[c] = Fraction(-m[r][free], m[r][c])
    return x


def matrix_moving_point_last(coords: Sequence[int]) -> RationalMatrix:
    """Invertible integer matrix whose last row is ``coords``.

    Used to relocate a rational projective point to [0:...:0:1]: applying the
    resulting matrix as a coordinate change turns the expansion in powers of
    the last coordinate into the local picture at the point.
    """
    coords = [int(c) for c in coords]
    pivot = next((j for j, c in enumerate(coords) if c != 0), None)
    if pivot is None:
        raise MatrixError("zero vector is not a projective point")
    size = len(coords)
    rows = [[int(i == j) for i in range(size)] for j in range(size) if j != pivot]
    rows.append(coords)
    return RationalMatrix.from_rows(rows)


def apply_linear_change(f: HomogeneousPoly, sigma: RationalMatrix) -> HomogeneousPoly:
    """Compose ``f`` with the substitution x_j -> sum_k sigma[k][j] * x_k.

    The action satisfies ``apply(apply(f, tau), sigma) == apply(f, sigma @ tau)``
    and the identity matrix acts trivially.

    The expansion runs on integers: ``fden * f`` is integral for the lcm
    ``fden`` of its denominators, ``sigma`` stores ``s * sigma`` as integers,
    each exponent tuple is packed base ``d + 1`` into one int (no carries,
    since every exponent is at most ``d``), and the sum is divided by
    ``fden * s**d`` once at the end.
    The result's terms are built in canonical order, not through
    :meth:`HomogeneousPoly.make`.
    """
    size = f.n + 1
    if not sigma.is_square or sigma.nrows != size:
        raise MatrixError(f"matrix size {sigma.nrows}x{sigma.ncols} does not match {size} variables")
    if sigma.determinant() == 0:
        raise MatrixError("coordinate change must be invertible")

    base = f.d + 1
    # x0 is the most significant digit, so descending keys are descending
    # lex order on exponents.
    place = [base ** (size - 1 - k) for k in range(size)]
    fden = lcm(*(c.denominator for _, c in f.terms))
    forms = [{place[k]: row[j] for k, row in enumerate(sigma.ints) if row[j]} for j in range(size)]

    powers: dict[tuple[int, int], dict[int, int]] = {}

    def form_power(j: int, t: int) -> dict[int, int]:
        key = (j, t)
        if key not in powers:
            powers[key] = forms[j] if t == 1 else _packed_product(form_power(j, t - 1), forms[j])
        return powers[key]

    acc: dict[int, int] = {}
    coeffs = scaled_integers((c for _, c in f.terms), fden)
    for (exp, _), coeff in zip(f.terms, coeffs):
        prod = {0: coeff}
        for j, t in enumerate(exp):
            if t:
                prod = _packed_product(prod, form_power(j, t))
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


def _packed_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return out

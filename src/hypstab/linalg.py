"""Exact rational matrices, ranks, and linear coordinate changes.

Everything here is exact: determinants use Gaussian elimination
over :class:`~fractions.Fraction`, ranks use fraction-free (Bareiss)
elimination on integer-scaled rows.  Matrices are immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .polynomials import Exponent, HomogeneousPoly, PolyError


class MatrixError(ValueError):
    """Invalid matrix construction or operation."""


@dataclass(frozen=True)
class RationalMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(data: Iterable[Iterable]) -> "RationalMatrix":
        rows = tuple(tuple(Fraction(x) for x in row) for row in data)
        if not rows:
            raise MatrixError("empty matrix")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise MatrixError("rows have inconsistent lengths")
        return RationalMatrix(rows)

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
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise MatrixError("dimension mismatch in product")
        cols = list(zip(*other.rows))
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def determinant(self) -> Fraction:
        if not self.is_square:
            raise MatrixError("determinant of a non-square matrix")
        m = [list(row) for row in self.rows]
        size = self.nrows
        det = Fraction(1)
        for col in range(size):
            pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, size):
                if m[r][col] == 0:
                    continue
                factor = m[r][col] * inv
                for c in range(col, size):
                    m[r][c] -= factor * m[col][c]
        return det

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    @staticmethod
    def from_strings(data: Iterable[Iterable[str]]) -> "RationalMatrix":
        return RationalMatrix.from_rows([[Fraction(x) for x in row] for row in data])

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)


def integer_rank(rows: list[list[int]]) -> int:
    """Rank via fraction-free (Bareiss) elimination on integer rows."""
    m = [list(row) for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[r][c] * m[row][col] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rational_rank(rows: Iterable[Iterable]) -> int:
    """Rank over Q; rows are scaled to integers first (rank-preserving)."""
    scaled = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        denom = lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * denom) for f in fracs]
        content = 0
        for v in ints:
            content = gcd(content, abs(v))
        if content > 1:
            ints = [v // content for v in ints]
        scaled.append(ints)
    return integer_rank(scaled)


def nullspace_vector(rows: Iterable[Iterable]) -> list[Fraction] | None:
    """One nontrivial rational solution of ``rows . x = 0``, or None.

    Plain Gaussian elimination over Fraction; returns the solution with the
    first free variable set to 1 (deterministic).
    """
    m = [[Fraction(x) for x in row] for row in rows]
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
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
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
        x[c] = -m[r][free]
    return x


def matrix_moving_point_last(coords: Sequence[int]) -> RationalMatrix:
    """Invertible integer matrix whose last row is ``coords``.

    Used to relocate a rational projective point to [0:...:0:1]: applying the
    resulting matrix as a coordinate change turns the chart at the last
    coordinate into the local picture at the point.
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
    """
    size = f.n + 1
    if not sigma.is_square or sigma.nrows != size:
        raise MatrixError(f"matrix size {sigma.nrows}x{sigma.ncols} does not match {size} variables")
    if sigma.determinant() == 0:
        raise MatrixError("coordinate change must be invertible")

    def unit(k: int) -> Exponent:
        return tuple(int(i == k) for i in range(size))

    forms = []
    for j in range(size):
        col = sigma.column(j)
        forms.append(HomogeneousPoly.make(f.n, 1, {unit(k): col[k] for k in range(size) if col[k] != 0}))

    one = HomogeneousPoly.make(f.n, 0, {tuple([0] * size): Fraction(1)})
    powers: dict[tuple[int, int], HomogeneousPoly] = {}

    def form_power(j: int, t: int) -> HomogeneousPoly:
        if t == 0:
            return one
        key = (j, t)
        if key not in powers:
            powers[key] = form_power(j, t - 1) * forms[j]
        return powers[key]

    acc: dict[Exponent, Fraction] = {}
    for exp, coeff in f.terms:
        prod = one
        for j, t in enumerate(exp):
            if t:
                prod = prod * form_power(j, t)
        for e, c in prod.terms:
            acc[e] = acc.get(e, Fraction(0)) + coeff * c
    result = HomogeneousPoly.make(f.n, f.d, acc)
    if result.is_zero and not f.is_zero:
        raise PolyError("invertible change of coordinates produced zero polynomial")
    return result

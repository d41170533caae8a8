"""Local invariants of hypersurface points.

An exact integer coordinate change moves the point to [0:...:0:1], and the
moved form g is read by the powers of x_n: the multiplicity m is d minus the
largest x_n exponent in g, the tangent cone is the form that multiplies
x_n^(d-m), and at a double point the Hessian rank is the rank of that
quadratic form, computed by fraction-free elimination.  The singular-point
scan enumerates rational points of bounded height exactly and, optionally,
counts singular points over small finite fields as (clearly labelled)
heuristic evidence about the dimension of the singular locus, which is never
computed exactly here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm

import numpy as np

from . import grid
from .linalg import apply_linear_change, matrix_moving_point_last, primitive_row, rational_rank
from .polynomials import (
    Exponent,
    HomogeneousPoly,
    PolyError,
    last_coefficient,
    primitive_form,
)
from .verdicts import InternalConsistencyError
from .weights import WeightVector


class PointError(ValueError):
    """Invalid projective point or point operation."""


@dataclass(frozen=True)
class ProjectivePoint:
    """Rational projective point in canonical integer form: cleared
    denominators, gcd one, first nonzero coordinate positive."""

    coords: tuple[int, ...]

    @staticmethod
    def make(values) -> "ProjectivePoint":
        ints = primitive_row(values)
        first = next((v for v in ints if v != 0), None)
        if first is None:
            raise PointError("projective point cannot be the zero vector")
        if first < 0:
            ints = [-v for v in ints]
        return ProjectivePoint(tuple(ints))

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]


def quadratic_form_matrix(q: HomogeneousPoly) -> list[list[Fraction]]:
    if q.d != 2:
        raise PolyError(f"a quadratic form has degree 2, got {q.d}")
    m = q.nvars
    mat = [[Fraction(0)] * m for _ in range(m)]
    for exp, c in q.terms:
        idx = [j for j, e in enumerate(exp) for _ in range(e)]
        i, j = idx
        if i == j:
            mat[i][i] = c
        else:
            mat[i][j] = c / 2
            mat[j][i] = c / 2
    return mat


def quadratic_form_rank(q: HomogeneousPoly) -> int:
    """Rank of the symmetric matrix of a quadratic form; 0 for the zero form."""
    if q.is_zero:
        return 0
    return rational_rank(quadratic_form_matrix(q))


def rank_of_q(f: HomogeneousPoly) -> int:
    """Rank of the quadratic coefficient of x_n^(d-2) in the expansion of f
    along the last coordinate; 0 when that coefficient vanishes."""
    return quadratic_form_rank(last_coefficient(f, 2))


def m0_threshold(n: int, d: int, strict: bool) -> int:
    """Least integer m with m > 2(n+1)/d - 1 (strict) or m >= it (non-strict).

    The strict-inequality threshold bounds the rank of the x_n^(d-2)
    coefficient for polynomials all of whose support weights are
    non-negative; the non-strict threshold pairs with strictly positive
    support weights.
    """
    if n < 2 or d < 3:
        raise ValueError(f"need n >= 2 and d >= 3, got n = {n}, d = {d}")
    bound = Fraction(2 * (n + 1), d) - 1
    if strict:
        return bound.__floor__() + 1
    return bound.__ceil__()


def mult_lower_bound_from_weights(r: WeightVector, d: int, strict: bool) -> int:
    """Multiplicity forced at [0:...:0:1] for any member of the weight cone:
    1 + the largest j in [1, d-1] with j*r_0 + (d-j)*r_n < 0 (strict mode:
    <= 0), or 1 when no such j exists."""
    r._require_sorted()
    if d < 2:
        raise ValueError(f"degree {d} too small")
    top, bottom = r[0], r[len(r) - 1]
    best = 0
    for j in range(1, d):
        value = j * top + (d - j) * bottom
        if value < 0 or (strict and value == 0):
            best = j
    return best + 1


def essential_variable_count(h: HomogeneousPoly) -> int:
    """Dimension of the span of the first partials of a homogeneous form.

    The form can be written in fewer variables after a linear change (is a
    cone) exactly when this count is less than the number of variables.
    """
    if h.is_zero:
        raise PolyError("essential variable count of the zero polynomial")
    partials = [h.partial_derivative(j) for j in range(h.nvars)]
    monomials = sorted({exp for p in partials for exp, _ in p.terms})
    if not monomials:
        return 0
    rows = [[p.coefficient(exp) for exp in monomials] for p in partials]
    return rational_rank(rows)


def is_cone(h: HomogeneousPoly) -> bool:
    return essential_variable_count(h) < h.nvars


@dataclass
class LocalData:
    """Exact local invariants at one rational point.  ``moved`` is f moved by
    ``matrix_moving_point_last`` so that the point is [0:...:0:1] (None off
    the hypersurface): its x_n-coefficient forms are the local expansion, of
    which the tangent cone is the lowest."""

    point: ProjectivePoint
    multiplicity: int
    tangent_cone: HomogeneousPoly | None
    hessian_rank: int | None = None
    hessian_corank: int | None = None
    moved: HomogeneousPoly | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "multiplicity": self.multiplicity,
            "tangent_cone": str(self.tangent_cone) if self.tangent_cone is not None else None,
            "hessian_rank": self.hessian_rank,
            "hessian_corank": self.hessian_corank,
        }


def analyze_point(f: HomogeneousPoly, p: ProjectivePoint) -> LocalData:
    """Multiplicity, tangent cone and (at a double point) Hessian rank, all
    from one evaluation of f(p) and one coordinate change g = f(sigma x)
    with sigma moving p to [0:...:0:1]."""
    if f.is_zero:
        raise PolyError("multiplicity is undefined for the zero polynomial")
    if f.evaluate(p.coords) != 0:
        return LocalData(p, 0, None)
    g = apply_linear_change(f, matrix_moving_point_last(p.coords))
    mult = g.d - max(exp[-1] for exp, _ in g.terms)
    cone = last_coefficient(g, mult)
    if mult != 2:
        return LocalData(p, mult, cone, moved=g)
    rank = quadratic_form_rank(cone)
    return LocalData(p, mult, cone, rank, f.n - rank, g)


@dataclass
class ScanResult:
    """Singular-point scan output.

    ``points`` is exact: every canonical rational point (integer, gcd one,
    first nonzero coordinate positive) of height <= ``height_bound`` with
    vanishing gradient, sorted by coordinates, each re-checked in rational
    arithmetic.  ``field_counts`` is heuristic evidence only: for each
    prime p, the number of singular points of F over F_p, that is of points
    of P^n(F_p) at which F and every partial of F vanish mod p, F being f
    with its denominators cleared and its content removed; or None when
    P^n(F_p) has more than ``_FIELD_SCAN_LIMIT`` points.  The points and
    every count come from the same evaluator.  Neither proves anything about
    singular points outside the height bound or with irrational coordinates.
    """

    points: tuple[ProjectivePoint, ...]
    height_bound: int
    field_counts: dict[int, int | None] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "height_bound": self.height_bound,
            "field_counts": {str(p): c for p, c in self.field_counts.items()},
            "heuristic": True,
        }


_FIELD_SCAN_LIMIT = 200_000


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24,
    a strong probable-prime test above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    if p in bases:
        return True
    if any(p % b == 0 for b in bases):
        return False
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in bases:
        x = pow(b, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _integer_table(polys) -> tuple[list[Exponent], list[list[int]]]:
    """The polynomials, each with its denominators cleared, as a monomial
    list and a (monomial x polynomial) integer coefficient table."""
    cleared = []
    for poly in polys:
        terms = poly.terms
        denom = lcm(*(c.denominator for _, c in terms)) if terms else 1
        cleared.append({exp: int(c * denom) for exp, c in terms})
    monomials = sorted({exp for poly in cleared for exp in poly})
    return monomials, [[poly.get(exp, 0) for poly in cleared] for exp in monomials]


def _scan_dtype(monomials: list[Exponent], table: list[list[int]], height_bound: int):
    """Evaluation dtype for the rational scan: a partial with cleared
    coefficients c_j is bounded by sum |c_j| * h^(d-1) on the box of height
    h, and so is every term and every partial sum of it."""
    degree = max((sum(exp) for exp in monomials), default=0)
    column_sums = [sum(abs(c) for c in col) for col in zip(*table)]
    return grid.exact_dtype(max(column_sums, default=0) * height_bound**degree)


def _monomial_values(points, exps, dtype, modulus: int | None):
    """values[i, m] = prod_j points[i, j] ** exps[m, j] in ``dtype`` (mod
    ``modulus`` when given, reducing after each product)."""
    values = np.ones((len(points), len(exps)), dtype=dtype)
    for j, col in enumerate(points.astype(dtype, copy=False).T):
        degree = int(exps[:, j].max(initial=0))
        if not degree:
            continue
        # powers[e] = col ** e
        powers = np.empty((degree + 1, len(col)), dtype=dtype)
        powers[0] = 1
        for e in range(1, len(powers)):
            np.multiply(powers[e - 1], col, out=powers[e])
            if modulus:
                powers[e] %= modulus
        values *= powers[exps[:, j]].T
        if modulus:
            values %= modulus
    return values


def _product(left, right, modulus: int | None):
    """``left @ right``, reduced mod ``modulus`` when given."""
    out = left @ right
    if modulus:
        out %= modulus
    return out


def _canonical_zeros(exps, coeffs, values, top: int, modulus: int | None = None):
    """Yield the rows of ``product(values, repeat=nvars)`` whose first nonzero
    entry is in 1..``top`` and at which every polynomial vanishes (mod
    ``modulus`` when given), as int64 arrays of at most ``grid.BLOCK_ROWS``
    rows, in no particular order.

    Column q of ``coeffs`` (monomial x polynomial) holds the coefficients of
    polynomial q on the monomials ``exps``, in the dtype of the evaluation
    (reduced mod ``modulus`` when given).  The rows are split into prefixes
    and a tile as :func:`grid.canonical_split` describes, so a monomial is
    (prefix part) x (tile part).  Each polynomial is evaluated only where it
    can vary.  One that reads no prefix coordinate filters the tile rows,
    once per call; one that reads no tile coordinate filters each batch of
    prefixes.  The rest run on (surviving prefixes) x (surviving tile rows):
    the sparsest as one matrix product over its support, and each next one
    only on the pairs where all before it vanish.  Every product is
    c * P * T and every sum is part of one polynomial's value, so no value
    exceeds the bound the dtype was chosen for.
    """
    nvars = exps.shape[1]
    tile, is_lead, prefixes = grid.canonical_split(values, top, nvars)
    cut = nvars - tile.shape[1]
    dtype = coeffs.dtype
    # (support, coefficients) of each polynomial that is not zero, by the
    # side of the split it reads, sparsest first.
    on_tile, on_prefix, mixed = [], [], []
    for col in sorted(coeffs.T, key=np.count_nonzero):
        support = np.flatnonzero(col)
        if len(support):
            reads = exps[support].any(axis=0)
            reads_prefix, reads_tile = reads[:cut].any(), reads[cut:].any()
            side = mixed if reads_prefix and reads_tile else on_prefix if reads_prefix else on_tile
            side.append((support, col[support]))

    def vanish(points, part, support, c):
        """Where one polynomial vanishes on ``points``, a part of the split."""
        monomials = _monomial_values(points, exps[support, part], dtype, modulus)
        return _product(monomials, c, modulus) == 0

    alive = np.arange(len(tile))
    for s, c in on_tile:
        alive = alive[vanish(tile[alive], slice(cut, None), s, c)]
    if not len(alive):
        return
    tile_values = _monomial_values(tile[alive], exps[:, cut:], dtype, modulus)
    leading = np.flatnonzero(is_lead[alive])
    parts = ((pre, alive, tile_values) for pre in prefixes)
    if len(leading):
        zero = np.zeros((1, cut), dtype=np.int64)
        parts = chain(parts, [(zero, alive[leading], tile_values[leading])])
    for pre, rows, row_values in parts:
        for s, c in on_prefix:
            pre = pre[vanish(pre, slice(cut), s, c)]
        step = max(1, grid.BLOCK_ROWS // len(rows))
        for start in range(0, len(pre), step):
            batch = pre[start : start + step]
            if mixed:
                pre_values = _monomial_values(batch, exps[:, :cut], dtype, modulus)
                s, c = mixed[0]
                lhs = pre_values[:, s] * c
                if modulus:
                    lhs %= modulus
                bi, ri = np.nonzero(_product(lhs, row_values[:, s].T, modulus) == 0)
            else:
                bi, ri = np.indices((len(batch), len(rows))).reshape(2, -1)
            for s, c in mixed[1:]:
                if not len(bi):
                    break
                lhs = pre_values[bi[:, None], s] * c
                if modulus:
                    lhs %= modulus
                sums = (lhs * row_values[ri[:, None], s]).sum(axis=1)
                if modulus:
                    sums %= modulus
                hit = sums == 0
                bi, ri = bi[hit], ri[hit]
            if len(bi):
                out = np.empty((len(bi), nvars), dtype=np.int64)
                out[:, :cut] = batch[bi]
                out[:, cut:] = tile[rows[ri]]
                yield out


def _count_field_singular(exps, table, nvars: int, p: int) -> int | None:
    """Points of P^n(F_p) at which every polynomial of ``table`` vanishes mod
    ``p``, or None above ``_FIELD_SCAN_LIMIT`` points."""
    reps = sum(p**k for k in range(nvars))
    if reps > _FIELD_SCAN_LIMIT:
        return None
    dtype = grid.exact_dtype(len(exps) * (p - 1) ** 2)
    coeffs = np.array([[c % p for c in row] for row in table], dtype=dtype).reshape(len(exps), -1)
    return sum(len(rows) for rows in _canonical_zeros(exps, coeffs, range(p), 1, p))


def scan_singular_points(
    f: HomogeneousPoly, height_bound: int, field_sizes: tuple[int, ...] = ()
) -> ScanResult:
    """All rational projective points of height <= bound with vanishing
    gradient (exact), plus heuristic singular counts over finite fields.

    Only canonical points are enumerated: coordinates in [-h, h], the first
    nonzero one in 1..h.  The partials, each with its denominators cleared,
    are evaluated on all of them in one pass of ``_canonical_zeros``, in
    int64 when max_j sum |c_j| * h^(d-1) < 2^63 and in Python ints
    otherwise.  Rows with gcd != 1 are dropped from the hits, and every hit
    left is re-checked in rational arithmetic.  Each field count is one more
    pass, over the points of P^n(F_p) with first nonzero coordinate 1,
    evaluating F and its partials mod p.  Field sizes must be primes.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    if f.is_zero:
        raise PolyError("cannot scan the zero polynomial")
    for prime in field_sizes:
        if not _is_prime(prime):
            raise ValueError(f"field size {prime} is not a prime")
    nvars = f.n + 1
    partials = [f.partial_derivative(j) for j in range(nvars)]
    monomials, table = _integer_table(partials)
    exps = np.array(monomials, dtype=np.int64).reshape(len(monomials), nvars)
    dtype = _scan_dtype(monomials, table, height_bound)
    coeffs = np.array(table, dtype=dtype).reshape(len(monomials), nvars)

    found = []
    box = range(-height_bound, height_bound + 1)
    for rows in _canonical_zeros(exps, coeffs, box, height_bound):
        for row in rows[np.gcd.reduce(rows, axis=1) == 1]:
            coords = tuple(int(c) for c in row)
            if any(p.evaluate(coords) != 0 for p in partials):
                raise InternalConsistencyError(
                    f"integer scan found {coords}, where the gradient does not vanish"
                )
            found.append(ProjectivePoint(coords))
    found.sort(key=lambda p: p.coords)

    field_counts = {}
    if field_sizes:
        # F and its partials have integer coefficients, so the table keeps them.
        F = primitive_form(f)
        monomials, table = _integer_table([F] + [F.partial_derivative(j) for j in range(nvars)])
        exps = np.array(monomials, dtype=np.int64).reshape(len(monomials), nvars)
        field_counts = {
            prime: _count_field_singular(exps, table, nvars, prime) for prime in field_sizes
        }
    return ScanResult(tuple(found), height_bound, field_counts)

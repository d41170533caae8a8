"""Local invariants of hypersurface points.

Multiplicity and tangent cone come from the affine chart after an exact
integer coordinate change relocating the point to [0:...:0:1]; the Hessian
rank at a double point is the rank of the chart's quadratic part, computed by
fraction-free elimination.  The singular-point scan enumerates rational
points of bounded height exactly and, optionally, counts singular points
over small finite fields as (clearly labelled) heuristic evidence about the
dimension of the singular locus, which is never computed exactly here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .linalg import apply_linear_change, matrix_moving_point_last, rational_rank
from .polynomials import (
    AffinePoly,
    Exponent,
    HomogeneousPoly,
    PolyError,
    dehomogenize_at_last,
)
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
        fracs = [Fraction(v) for v in values]
        if all(v == 0 for v in fracs):
            raise PointError("projective point cannot be the zero vector")
        denom = lcm(*(v.denominator for v in fracs))
        ints = [int(v * denom) for v in fracs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        first = next(v for v in ints if v != 0)
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


def chart_at(f: HomogeneousPoly, p: ProjectivePoint) -> AffinePoly:
    """Affine chart of ``f`` centred at ``p`` (p relocated to [0:...:0:1])."""
    if p.n != f.n:
        raise PointError(f"point has {p.n + 1} coordinates, polynomial has {f.n + 1}")
    sigma = matrix_moving_point_last(p.coords)
    return dehomogenize_at_last(apply_linear_change(f, sigma))


def multiplicity_at(f: HomogeneousPoly, p: ProjectivePoint) -> int:
    """Order of vanishing of the chart of ``f`` at ``p``; 0 when f(p) != 0."""
    if f.is_zero:
        raise PolyError("multiplicity is undefined for the zero polynomial")
    if f.evaluate(p.coords) != 0:
        return 0
    return chart_at(f, p).min_degree()


def tangent_cone_at(f: HomogeneousPoly, p: ProjectivePoint) -> AffinePoly:
    """Lowest-degree homogeneous part of the chart at ``p`` (p on the
    hypersurface)."""
    if f.evaluate(p.coords) != 0:
        raise PointError(f"{p} does not lie on the hypersurface")
    chart = chart_at(f, p)
    return chart.homogeneous_component(chart.min_degree())


def _quadratic_form_matrix(q: AffinePoly) -> list[list[Fraction]]:
    m = q.nvars
    mat = [[Fraction(0)] * m for _ in range(m)]
    for exp, c in q.terms:
        if sum(exp) != 2:
            raise PolyError(f"non-quadratic term {exp} in quadratic form")
        idx = [j for j, e in enumerate(exp) for _ in range(e)]
        i, j = idx
        if i == j:
            mat[i][i] = c
        else:
            mat[i][j] = c / 2
            mat[j][i] = c / 2
    return mat


def quadratic_form_rank(q: AffinePoly) -> int:
    """Rank of the symmetric matrix of a quadratic form; 0 for the zero form."""
    if q.is_zero:
        return 0
    return rational_rank(_quadratic_form_matrix(q))


def hessian_rank_at(f: HomogeneousPoly, p: ProjectivePoint) -> tuple[int, int]:
    """(rank, corank) of the chart Hessian at a multiplicity-2 point of f."""
    chart = chart_at(f, p)
    if f.evaluate(p.coords) != 0 or chart.min_degree() != 2:
        mult = multiplicity_at(f, p)
        raise PointError(f"Hessian rank needs multiplicity 2, point {p} has multiplicity {mult}")
    rank = quadratic_form_rank(chart.homogeneous_component(2))
    return rank, f.n - rank


def rank_of_q(f: HomogeneousPoly) -> int:
    """Rank of the quadratic coefficient of x_n^(d-2) in the expansion of f
    along the last coordinate; 0 when that coefficient vanishes."""
    if f.is_zero:
        return 0
    target = f.d - 2
    if target < 0:
        return 0
    q_terms = {exp[:-1]: c for exp, c in f.terms if exp[-1] == target}
    q = AffinePoly.make(f.n, q_terms)
    return quadratic_form_rank(q)


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


def essential_variable_count(h: AffinePoly) -> int:
    """Dimension of the span of the first partials of a homogeneous form.

    The form can be written in fewer variables after a linear change (is a
    cone) exactly when this count is less than the number of variables.
    """
    if h.is_zero:
        raise PolyError("essential variable count of the zero polynomial")
    if not h.is_homogeneous():
        raise PolyError("essential variable count needs a homogeneous form")
    partials = [h.partial_derivative(j) for j in range(h.nvars)]
    monomials = sorted({exp for p in partials for exp, _ in p.terms})
    if not monomials:
        return 0
    rows = [[p.coefficient(exp) for exp in monomials] for p in partials]
    return rational_rank(rows)


def is_cone(h: AffinePoly) -> bool:
    return essential_variable_count(h) < h.nvars


@dataclass
class LocalData:
    """Exact local invariants at one rational point."""

    point: ProjectivePoint
    multiplicity: int
    tangent_cone: AffinePoly | None
    hessian_rank: int | None = None
    hessian_corank: int | None = None

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "multiplicity": self.multiplicity,
            "tangent_cone": str(self.tangent_cone) if self.tangent_cone is not None else None,
            "hessian_rank": self.hessian_rank,
            "hessian_corank": self.hessian_corank,
        }


def analyze_point(f: HomogeneousPoly, p: ProjectivePoint) -> LocalData:
    mult = multiplicity_at(f, p)
    if mult == 0:
        return LocalData(p, 0, None)
    cone = tangent_cone_at(f, p)
    if mult != 2:
        return LocalData(p, mult, cone)
    rank, corank = hessian_rank_at(f, p)
    return LocalData(p, mult, cone, rank, corank)


@dataclass
class ScanResult:
    """Singular-point scan output.

    ``points`` is exact (every listed point has vanishing gradient, checked
    in rational arithmetic).  ``field_counts`` is heuristic evidence only: a
    count of gradient zeros over each finite field, or None when a field was
    skipped.  Neither proves anything about singular points outside the
    height bound or with irrational coordinates.
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


def _count_field_singular(partials_int: list[dict[Exponent, int]], nvars: int, p: int) -> int | None:
    reps = sum(p**k for k in range(nvars))
    if reps > _FIELD_SCAN_LIMIT:
        return None
    reduced = [{exp: c % p for exp, c in poly.items()} for poly in partials_int]
    count = 0
    for k in range(nvars):
        for tail in product(range(p), repeat=nvars - k - 1):
            point = (0,) * k + (1,) + tail
            for poly in reduced:
                total = 0
                for exp, c in poly.items():
                    if c == 0:
                        continue
                    v = c
                    for x, e in zip(point, exp):
                        if e:
                            v = v * pow(x, e, p) % p
                    total = (total + v) % p
                if total != 0:
                    break
            else:
                count += 1
    return count


def scan_singular_points(
    f: HomogeneousPoly, height_bound: int, field_sizes: tuple[int, ...] = ()
) -> ScanResult:
    """All rational projective points of height <= bound with vanishing
    gradient (exact), plus heuristic singular counts over finite fields."""
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    if f.is_zero:
        raise PolyError("cannot scan the zero polynomial")
    nvars = f.n + 1
    partials = [f.partial_derivative(j) for j in range(nvars)]

    found = []
    for coords in product(range(-height_bound, height_bound + 1), repeat=nvars):
        if all(c == 0 for c in coords):
            continue
        g = 0
        for c in coords:
            g = gcd(g, abs(c))
        if g != 1:
            continue
        if next(c for c in coords if c != 0) < 0:
            continue
        if all(p.evaluate(coords) == 0 for p in partials):
            found.append(ProjectivePoint(coords))
    found.sort(key=lambda p: p.coords)

    field_counts: dict[int, int | None] = {}
    if field_sizes:
        partials_int = []
        for p in partials:
            denom = lcm(*(c.denominator for _, c in p.terms)) if p.terms else 1
            partials_int.append({exp: int(c * denom) for exp, c in p.terms})
        for prime in field_sizes:
            field_counts[prime] = _count_field_singular(partials_int, nvars, prime)

    return ScanResult(tuple(found), height_bound, field_counts)

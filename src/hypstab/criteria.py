"""Closed-form sufficient stability criteria from singularity data.

All comparisons are exact.  The one irrational threshold (a square root in
the degree form of the multiplicity criterion) is decided by sign-checked
squaring, never by floating point.

Convention adopted throughout: a strict inequality yields Stable and the
boundary case yields SemiStable.  The two printed pairings of the
multiplicity criterion disagree in the source material; the reading used
here is the one consistent with its degree form and with the d >= 5
consequence for isolated double points, and every multiplicity-bound reason
records it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .verdicts import (
    InternalConsistencyError,
    Reason,
    StabilityVerdict,
    Status,
    strongest_positive,
)

_PAIRING_NOTE = "strict inequality gives Stable, equality gives SemiStable"

_MUKAI = "Mukai, An introduction to invariants and moduli, Thm 7.14 and 7.20"
_LAZA = "Laza, The moduli space of cubic fourfolds, Thm 1.1"

# Published classifications, keyed by (n, d, singularity class).  A row never
# overrides a computed certificate; it is merged into verdicts with a
# ``literature`` provenance tag.
LITERATURE: dict[tuple[int, int, str], tuple[Status, str]] = {
    (2, 3, "A1"): (
        Status.SEMISTABLE,
        "Hoskins, Moduli problems and geometric invariant theory, Lemma 7.25",
    ),
    (3, 3, "A1"): (Status.STABLE, _MUKAI),
    (3, 3, "A2"): (Status.SEMISTABLE, _MUKAI),
    (5, 3, "Am"): (Status.STABLE, _LAZA),
    (5, 3, "ADE"): (Status.STABLE, _LAZA),
    (3, 4, "Am"): (Status.STABLE, "Shah, Degenerations of K3 surfaces of degree 4, Thm 2.4"),
}

# The degrees the Hessian criterion covers.
HESSIAN_DEGREES = (3, 4)


class ProfileError(ValueError):
    """Inconsistent singularity profile or inapplicable criterion."""


def check_shape(n: int, d: int, s: int | None = None) -> None:
    """Raise :class:`ProfileError` unless n >= 2, d >= 3 and s, when given,
    is in -1..n-1: the range every criterion applies to."""
    if n < 2:
        raise ProfileError(f"n must be >= 2, got {n}")
    if d < 3:
        raise ProfileError(f"d must be >= 3, got {d}")
    if s is not None and not -1 <= s <= n - 1:
        raise ProfileError(f"s = {s} out of range -1..{n - 1}")


@dataclass(frozen=True)
class SingularityProfile:
    """Singularity data of a hypersurface: ambient dimension ``n``, degree
    ``d``, singular-locus dimension ``s`` (-1 means smooth), maximal
    multiplicity ``delta``, and optionally the minimum Hessian rank over the
    singular points (meaningful only when all have multiplicity 2).

    ``provenance`` tags each datum as user-asserted, verified-at-points, or
    heuristic; criteria evaluate the numbers as given and reports carry the
    tags through.
    """

    n: int
    d: int
    s: int
    delta: int
    min_hessian_rank: int | None = None
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        check_shape(self.n, self.d, self.s)
        if self.delta < 1:
            raise ProfileError(f"delta must be >= 1, got {self.delta}")
        if self.s == -1 and self.delta != 1:
            raise ProfileError("smooth profile requires delta = 1")
        if self.min_hessian_rank is not None:
            if self.delta > 2:
                raise ProfileError("Hessian rank is only meaningful when delta <= 2")
            if not 0 <= self.min_hessian_rank <= self.n:
                raise ProfileError(f"Hessian rank {self.min_hessian_rank} out of range 0..{self.n}")

    @property
    def is_smooth(self) -> bool:
        return self.s == -1

    @property
    def corank(self) -> int | None:
        if self.min_hessian_rank is None:
            return None
        return self.n - self.min_hessian_rank

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "s": self.s,
            "delta": self.delta,
            "min_hessian_rank": self.min_hessian_rank,
            "provenance": dict(self.provenance),
        }


@dataclass(frozen=True)
class AlgebraicThreshold:
    """Number of the form ``base + sqrt(radicand)`` with rational parts,
    compared against rationals exactly by sign-checked squaring."""

    base: Fraction
    radicand: Fraction

    def __post_init__(self):
        if self.radicand < 0:
            raise ValueError("negative radicand")

    def compare_to(self, value: Fraction | int) -> int:
        """-1, 0, or +1 as the threshold is less than, equal to, or greater
        than ``value``."""
        t = Fraction(value) - self.base
        if t < 0:
            return 1
        t_sq = t * t
        if t_sq > self.radicand:
            return -1
        if t_sq == self.radicand:
            return 0
        return 1

    def __float__(self) -> float:
        return float(self.base) + float(self.radicand) ** 0.5

    def __str__(self) -> str:
        return f"{self.base} + sqrt({self.radicand})"


def _paired_status(margin) -> Status:
    """The pairing convention: a positive margin (strict inequality) gives
    Stable, a zero margin (equality) SemiStable, a negative one nothing."""
    if margin > 0:
        return Status.STABLE
    return Status.SEMISTABLE if margin == 0 else Status.INCONCLUSIVE


def _smooth_verdict(p: SingularityProfile) -> StabilityVerdict:
    return StabilityVerdict(
        Status.STABLE,
        [Reason(criterion="smooth", note=f"smooth hypersurfaces of degree {p.d} >= 3 are stable")],
    )


def evaluate_multiplicity_bound(p: SingularityProfile) -> StabilityVerdict:
    """Maximal multiplicity against d(d-2)/((s+2)d-(s+3)), or d/(n+1) when the
    singular locus has the largest possible dimension."""
    if p.is_smooth:
        return _smooth_verdict(p)
    if p.s <= p.n - 2:
        threshold = Fraction(p.d * (p.d - 2), (p.s + 2) * p.d - (p.s + 3))
        branch = "isolated-or-small singular locus"
    else:
        threshold = Fraction(p.d, p.n + 1)
        branch = "maximal-dimension singular locus"
    margin = threshold - p.delta
    reason = Reason(
        criterion="multiplicity-bound",
        margin=margin,
        note=f"delta = {p.delta} vs {threshold} ({branch}); {_PAIRING_NOTE}",
        inputs={"delta": p.delta, "threshold": threshold, "s": p.s},
    )
    return StabilityVerdict(_paired_status(margin), [reason])


def degree_threshold(delta: int, s: int) -> AlgebraicThreshold:
    """The degree bound 1 + a + sqrt(a^2 - delta + 1) with a = delta(s+2)/2."""
    a = Fraction(delta * (s + 2), 2)
    return AlgebraicThreshold(base=1 + a, radicand=a * a - delta + 1)


def evaluate_degree_bound(p: SingularityProfile) -> StabilityVerdict:
    """Degree form equivalent to the multiplicity bound: compares d against
    an irrational threshold, exactly."""
    if p.is_smooth:
        return _smooth_verdict(p)
    if p.s <= p.n - 2:
        threshold = degree_threshold(p.delta, p.s)
        cmp = threshold.compare_to(p.d)
        desc = str(threshold)
    else:
        bound = p.delta * (p.n + 1)
        cmp = -1 if p.d > bound else (0 if p.d == bound else 1)
        desc = str(bound)
    reason = Reason(
        criterion="degree-bound",
        margin="0" if cmp == 0 else None,
        note=f"d = {p.d} vs {desc}; {_PAIRING_NOTE}",
        inputs={"d": p.d, "threshold": desc, "s": p.s},
    )
    return StabilityVerdict(_paired_status(-cmp), [reason])


def _hessian_problems(p: SingularityProfile) -> list[str]:
    """Why the Hessian criterion does not apply to ``p``: none exactly for
    isolated double points (s = 0, delta = 2, a minimum Hessian rank) in
    degree 3 or 4."""
    return [problem for failed, problem in (
        (p.d not in HESSIAN_DEGREES, f"d must be 3 or 4, got {p.d}"),
        (p.s != 0, f"s must be 0, got {p.s}"),
        (p.delta != 2, f"delta must be 2, got {p.delta}"),
        (p.min_hessian_rank is None, "min_hessian_rank is required"),
    ) if failed]


def _require_double_point_profile(p: SingularityProfile, criterion: str) -> None:
    problems = _hessian_problems(p)
    if problems:
        raise ProfileError(f"{criterion} inapplicable: " + "; ".join(problems))


def least_positive_hessian_rank(n: int, d: int) -> int | None:
    """The least minimum Hessian rank, ceil(2(n+1)/d), at which the Hessian
    criterion reads SemiStable or Stable; None when d is not 3 or 4, or when
    that rank is above n."""
    rank = -(-2 * (n + 1) // d)
    return rank if d in HESSIAN_DEGREES and rank <= n else None


def evaluate_hessian_rank_bound(p: SingularityProfile) -> StabilityVerdict:
    """Minimum Hessian rank against 2(n+1)/d for isolated double points in
    degree 3 or 4."""
    _require_double_point_profile(p, "hessian-rank")
    threshold = Fraction(2 * (p.n + 1), p.d)
    margin = Fraction(p.min_hessian_rank) - threshold
    status = _paired_status(margin)
    note = {
        Status.STABLE: f"rank {p.min_hessian_rank} > {threshold}",
        Status.SEMISTABLE: f"equality: rank {p.min_hessian_rank} = {threshold}",
        Status.INCONCLUSIVE: f"rank {p.min_hessian_rank} < {threshold}",
    }[status]
    return StabilityVerdict(
        status,
        [
            Reason(
                criterion="hessian-rank",
                margin=margin,
                note=note,
                inputs={"rank": p.min_hessian_rank, "threshold": threshold},
            )
        ],
    )


def evaluate_hessian_corank_bound(p: SingularityProfile) -> StabilityVerdict:
    """Corank form of the Hessian-rank criterion: corank against (n-2)/3 in
    degree 3 and (n-1)/2 in degree 4."""
    _require_double_point_profile(p, "hessian-corank")
    cr = p.corank
    threshold = Fraction(p.n - 2, 3) if p.d == 3 else Fraction(p.n - 1, 2)
    margin = threshold - cr
    status = _paired_status(margin)
    note = {
        Status.STABLE: f"corank {cr} < {threshold}",
        Status.SEMISTABLE: f"equality: corank {cr} = {threshold}",
        Status.INCONCLUSIVE: f"corank {cr} > {threshold}",
    }[status]
    return StabilityVerdict(
        status,
        [
            Reason(
                criterion="hessian-corank",
                margin=margin,
                note=note,
                inputs={"corank": cr, "threshold": threshold},
            )
        ],
    )


def evaluate_mordant(p: SingularityProfile, cone_free: bool) -> StabilityVerdict:
    """Mordant's thresholds: d >= delta*min(n+1, s+3) gives SemiStable and a
    strict inequality gives Stable; with the tangent-cone hypothesis the
    factor drops to delta - 1."""
    if p.is_smooth:
        return _smooth_verdict(p)
    reasons = []
    statuses = []

    bound1 = p.delta * min(p.n + 1, p.s + 3)
    statuses.append(_paired_status(p.d - bound1))
    reasons.append(
        Reason(
            criterion="mordant-multiplicity",
            margin=Fraction(p.d - bound1),
            note=f"d = {p.d} vs delta*min(n+1, s+3) = {bound1}",
            inputs={"threshold": bound1},
        )
    )

    if cone_free:
        bound2 = (p.delta - 1) * min(p.n + 1, p.s + 3)
        statuses.append(_paired_status(p.d - bound2))
        reasons.append(
            Reason(
                criterion="mordant-tangent-cone",
                margin=Fraction(p.d - bound2),
                note=f"tangent cones are not cones over hyperplane hypersurfaces; "
                f"d = {p.d} vs (delta-1)*min(n+1, s+3) = {bound2}",
                inputs={"threshold": bound2},
            )
        )

    return StabilityVerdict(strongest_positive(statuses), reasons)


@dataclass(frozen=True)
class BoundComparison:
    new_threshold: AlgebraicThreshold
    mordant_threshold: int
    strictly_better: bool


def compare_bounds(delta: int, s: int) -> BoundComparison:
    """Exact comparison of the degree threshold against delta*(s+3)."""
    if delta < 1 or s < 0:
        raise ValueError("need delta >= 1 and s >= 0")
    new = degree_threshold(delta, s)
    mordant = delta * (s + 3)
    return BoundComparison(new, mordant, new.compare_to(mordant) < 0)


def derived_singularity_classes(p: SingularityProfile) -> tuple[str, ...]:
    """Class tags derivable from the profile alone, most specific first.

    Corank-0 isolated double points are ordinary nodes (A1), hence also fall
    under every published superclass (Am, ADE).  Deeper classes need a user
    assertion and are not guessed."""
    if p.s == 0 and p.delta == 2 and p.corank == 0:
        return ("A1", "Am", "ADE")
    return ()


def literature_lookup(n: int, d: int, singularity_class: str) -> StabilityVerdict | None:
    """Verdict recorded in the literature for (n, d, class), if any."""
    row = LITERATURE.get((n, d, singularity_class))
    if row is None:
        return None
    status, source = row
    reason = Reason(
        criterion="literature",
        note=f"published classification for n={n}, d={d}, class {singularity_class}",
        inputs={"class": singularity_class},
    )
    return StabilityVerdict(status, [reason], literature=source)


def combined_verdict(p: SingularityProfile, cone_free: bool | None = None) -> StabilityVerdict:
    """Strongest conclusion over every applicable sufficient criterion.

    The two forms of the multiplicity criterion, and the rank and corank
    forms of the Hessian criterion, are evaluated independently and must
    agree; disagreement raises :class:`InternalConsistencyError`.
    """
    if p.is_smooth:
        return _smooth_verdict(p)

    reasons: list[Reason] = []
    statuses: list[Status] = []
    literature_source = None

    v_mult = evaluate_multiplicity_bound(p)
    v_deg = evaluate_degree_bound(p)
    if v_mult.status != v_deg.status:
        raise InternalConsistencyError(
            f"multiplicity-bound gave {v_mult.status.value} but degree-bound gave "
            f"{v_deg.status.value} on {p}"
        )
    reasons.extend(v_mult.reasons)
    reasons.extend(v_deg.reasons)
    statuses.append(v_mult.status)

    if not _hessian_problems(p):
        v_rank = evaluate_hessian_rank_bound(p)
        v_corank = evaluate_hessian_corank_bound(p)
        if v_rank.status != v_corank.status:
            raise InternalConsistencyError(
                f"hessian-rank gave {v_rank.status.value} but hessian-corank gave "
                f"{v_corank.status.value} on {p}"
            )
        reasons.extend(v_rank.reasons)
        reasons.extend(v_corank.reasons)
        statuses.append(v_rank.status)

    v_mordant = evaluate_mordant(p, bool(cone_free))
    reasons.extend(v_mordant.reasons)
    statuses.append(v_mordant.status)

    for tag in derived_singularity_classes(p):
        lit = literature_lookup(p.n, p.d, tag)
        if lit is not None:
            reasons.extend(lit.reasons)
            statuses.append(lit.status)
            literature_source = lit.literature
            break

    return StabilityVerdict(strongest_positive(statuses), reasons, literature=literature_source)

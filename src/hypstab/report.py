"""Analysis pipeline and machine-readable reports.

The analyze pipeline: scan for rational singular points, compute local
invariants at found and supplied points; when none is singular and no s is
asserted, try to prove smoothness modulo a prime (:mod:`.modp`); build a
singularity profile (with per-field provenance: user-asserted, exact,
verified-at-points, or heuristic) and run every sufficient criterion.  When
they read positive on heuristic data for a cubic or quartic, try to prove
the Hessian criterion's rank at every singular point with the same kernel
(:func:`~.modp.prove_hessian_rank`); its bounds replace the profile by the
weakest one they allow.  When that reads ``SemiStable``, each higher rank
up to the least at a known point is tried, and the first proven one that
reads ``Stable`` is kept.  Then search for destabilization certificates.
A proven ``Stable`` skips the search: no certificate of either kind can
exist (Hilbert-Mumford).  A proven ``SemiStable`` skips the strict
decisions, since no strict certificate can exist, and stops at the first
non-strict one.

Negative claims always carry an exactly verified certificate; positive
claims inherit the profile's basis, reported as ``basis``.  A verified
certificate beats a profile-based positive claim, and the conflict is
surfaced in the report rather than silently resolved.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass, field, replace

from . import __version__
from .criteria import (
    ProfileError,
    SingularityProfile,
    combined_verdict,
    least_positive_hessian_rank,
)
from .local_analysis import (
    LocalData,
    ProjectivePoint,
    ScanResult,
    analyze_point,
    is_cone,
    scan_singular_points,
)
from .modp import HessianRankBound, MacaulayProof, prove_hessian_rank, prove_smooth
from .polynomials import HomogeneousPoly, format_poly
from .search import SearchConfig, SearchOutcome, search_destabilization
from .verdicts import (
    InternalConsistencyError,
    Reason,
    StabilityVerdict,
    Status,
    positive_strength,
)

SCHEMA = "hypstab-report/2"


class AssertedProfileError(ProfileError):
    """An asserted s that the analyzed singular points contradict: an input
    error found inside the analysis."""


@dataclass
class AnalysisOptions:
    s: int | None = None
    extra_points: tuple[ProjectivePoint, ...] = ()
    height: int = 3
    field_sizes: tuple[int, ...] = ()
    search: SearchConfig = field(default_factory=SearchConfig)
    timestamp: bool = True


@dataclass
class AnalysisReport:
    polynomial: HomogeneousPoly
    scan: ScanResult
    points: list[LocalData]
    profile: SingularityProfile
    cone_free: bool | None
    criteria: StabilityVerdict
    search_outcome: SearchOutcome
    search_budget: int
    search_skipped: str | None
    status: Status
    basis: str
    reasons: list[Reason]
    conflicts: list[str]
    seed: int
    timestamp: str | None

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA,
            "version": __version__,
            "seed": self.seed,
            "input": {
                "polynomial": format_poly(self.polynomial),
                "n": self.polynomial.n,
                "d": self.polynomial.d,
            },
            "scan": self.scan.to_json(),
            "points": [p.to_json() for p in self.points],
            "profile": self.profile.to_json(),
            "cone_free": self.cone_free,
            "criteria": self.criteria.to_json(),
            "search": {
                "budget": self.search_budget,
                "frames_tried": self.search_outcome.frames_tried,
                "skipped": self.search_skipped,
                "strict_certificate": (
                    self.search_outcome.strict.to_json() if self.search_outcome.strict else None
                ),
                "nonstrict_certificate": (
                    self.search_outcome.nonstrict.to_json()
                    if self.search_outcome.nonstrict
                    else None
                ),
                "frames": [fr.to_json() for fr in self.search_outcome.frames],
            },
            "status": self.status.value,
            "basis": self.basis,
            "reasons": [r.to_json() for r in self.reasons],
            "conflicts": list(self.conflicts),
        }
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out

    def to_text(self) -> str:
        lines = [
            f"polynomial: {format_poly(self.polynomial)}  (n = {self.polynomial.n}, "
            f"d = {self.polynomial.d})",
            f"rational singular points (height <= {self.scan.height_bound}): "
            + (", ".join(str(p.point) for p in self.points) if self.points else "none found"),
        ]
        for p in self.points:
            extra = (
                f", Hessian rank {p.hessian_rank} (corank {p.hessian_corank})"
                if p.hessian_rank is not None
                else ""
            )
            lines.append(f"  {p.point}: multiplicity {p.multiplicity}{extra}")
        prof = self.profile
        lines.append(
            f"profile: s = {prof.s}, delta = {prof.delta}, "
            f"min Hessian rank = {prof.min_hessian_rank} "
            f"(provenance: {prof.provenance})"
        )
        lines.append("criteria verdict: " + str(self.criteria).replace("\n", "\n  "))
        so = self.search_outcome
        if self.search_skipped and not so.frames_tried:
            lines.append(f"search skipped: {self.search_skipped}")
        elif so.strict:
            lines.append(f"strict certificate found: r = {so.strict.r}")
        elif self.search_skipped:
            found = (
                f"non-strict certificate found: r = {so.nonstrict.r}"
                if so.nonstrict
                else f"no non-strict certificate found within budget ({so.frames_tried} frames)"
            )
            lines.append(f"{found}; strict search skipped: {self.search_skipped}")
        elif so.nonstrict:
            lines.append(
                f"non-strict certificate found: r = {so.nonstrict.r}; "
                f"no strict certificate within budget ({so.frames_tried} frames)"
            )
        else:
            lines.append(f"no certificate found within budget ({so.frames_tried} frames)")
        for c in self.conflicts:
            lines.append(f"CONFLICT: {c}")
        lines.append(f"status: {self.status.value} ({self.basis})")
        return "\n".join(lines)


def build_profile(
    singular: list[LocalData],
    n: int,
    d: int,
    s_user: int | None,
    proof: MacaulayProof | None,
) -> tuple[SingularityProfile, bool | None, str]:
    """Profile, tangent-cone summary and basis from analyzed singular points.

    A smoothness proof makes s = -1 (and so delta = 1) exact.  Everything
    else not asserted by the user is tagged heuristic: the scan only sees
    rational points of bounded height.  The basis is the weakest tag among
    the data: ``exact-bound``, ``asserted`` or ``heuristic``.
    """
    provenance = {}
    if not singular:
        if s_user is not None and s_user != -1:
            raise AssertedProfileError(
                f"--s {s_user} asserted but no singular points were found to analyze"
            )
        if s_user is not None:
            provenance["s"] = provenance["delta"] = "user-asserted"
            basis = "asserted"
        elif proof is not None:
            provenance["s"] = f"exact: {proof}"
            provenance["delta"] = "exact (smooth)"
            basis = "exact-bound"
        else:
            provenance["s"] = provenance["delta"] = "heuristic"
            basis = "heuristic"
        return SingularityProfile(n, d, -1, 1, provenance=provenance), None, basis

    if s_user == -1:
        raise AssertedProfileError("--s -1 (smooth) asserted but singular points were found")

    delta = max(p.multiplicity for p in singular)
    provenance["delta"] = "verified-at-points (lower bound); heuristic as maximum"
    if s_user is not None:
        s = s_user
        provenance["s"] = "user-asserted"
    else:
        s = 0
        provenance["s"] = "heuristic (isolated rational points found)"
    rank = None
    if delta == 2 and all(p.multiplicity == 2 for p in singular):
        rank = min(p.hessian_rank for p in singular)
        provenance["min_hessian_rank"] = "verified-at-points; heuristic as minimum"
    worst = [p for p in singular if p.multiplicity == delta]
    cone_free = all(not is_cone(p.tangent_cone) for p in worst)
    profile = SingularityProfile(n, d, s, delta, rank, provenance=provenance)
    return profile, cone_free, "heuristic"


def bounded_profile(
    singular: list[LocalData], n: int, d: int, bound: HessianRankBound
) -> tuple[SingularityProfile, bool | None, StabilityVerdict]:
    """The weakest criteria verdict over every profile that ``bound``
    allows, with that profile and its tangent-cone summary.

    The bound allows s = -1 when no singular point is known, and s from 0 to
    ``bound.s_max`` with delta = 2 and a minimum Hessian rank from
    ``bound.rank`` up to n - s (the rank along an s-dimensional component)
    and to the least rank at a known point.  The criteria are not monotone in
    s, so each profile is evaluated; on a tie the more singular one is kept.
    A minimum rank of n makes every tangent cone a quadric of full rank, so
    none is a cone.  A known point of higher multiplicity or of lower rank
    contradicts the proof and raises :class:`InternalConsistencyError`.
    """
    for p in singular:
        if p.multiplicity != 2 or p.hessian_rank < bound.rank:
            raise InternalConsistencyError(
                f"singular point {p.point} (multiplicity {p.multiplicity}, Hessian rank "
                f"{p.hessian_rank}) contradicts the proof: {bound.minors}"
            )
    reason = f"Hessian rank >= {bound.rank} at every singular point"
    provenance = {
        "s": f"exact upper bound {bound.s_max} ("
        + (str(bound.hyperplane) if bound.hyperplane else f"n - {bound.rank}, {reason}")
        + ")",
        "delta": f"exact upper bound 2 ({reason})",
        "min_hessian_rank": f"exact lower bound {bound.rank} ({bound.minors})",
    }
    candidates: list[tuple[SingularityProfile, bool | None]] = []
    if not singular:
        candidates.append((SingularityProfile(n, d, -1, 1), None))
    top = min((p.hessian_rank for p in singular), default=n)
    for s in range(bound.s_max + 1):
        for rank in range(bound.rank, min(top, n - s) + 1):
            candidates.append((SingularityProfile(n, d, s, 2, rank), rank == n))
    provenance["profile"] = (
        f"the weakest of {len(candidates)} profile{'s' * (len(candidates) > 1)} "
        "allowed by the exact bounds"
    )
    evaluated = [(p, cone_free, combined_verdict(p, cone_free)) for p, cone_free in candidates]
    profile, cone_free, verdict = min(
        reversed(evaluated), key=lambda e: positive_strength(e[2].status)
    )
    return replace(profile, provenance=provenance), cone_free, verdict


def _merge_with_certificates(
    criteria_verdict: StabilityVerdict, outcome: SearchOutcome, profile: SingularityProfile
) -> tuple[Status, list[Reason], list[str]]:
    """Combine criteria output with exactly verified certificates.

    A strict certificate settles NotSemiStable.  A non-strict certificate
    plus a SemiStable criterion is the strictly-semistable situation: the
    status stays SemiStable and the certificate documents non-stability.
    Certificates are exact, so on contradiction they win and the conflict
    names the provenance of the profile data that must be wrong.
    """
    reasons = list(criteria_verdict.reasons)
    conflicts: list[str] = []
    crit = criteria_verdict.status
    data = "; ".join(f"{k}: {v}" for k, v in sorted(profile.provenance.items()))

    if outcome.strict is not None:
        reasons.append(
            Reason(
                criterion="hm-certificate",
                note=f"strict certificate with r = {outcome.strict.r}",
                inputs={"strict": True},
            )
        )
        if crit.is_positive:
            conflicts.append(
                "a verified strict certificate contradicts a positive criterion; "
                f"the profile data ({data}) is wrong (certificate wins)"
            )
        return Status.NOT_SEMISTABLE, reasons, conflicts

    if outcome.nonstrict is not None:
        reasons.append(
            Reason(
                criterion="hm-certificate",
                note=f"non-strict certificate with r = {outcome.nonstrict.r}",
                inputs={"strict": False},
            )
        )
        if crit == Status.STABLE:
            conflicts.append(
                "a verified non-strict certificate contradicts a Stable criterion; "
                f"the profile data ({data}) is wrong (certificate wins)"
            )
            return Status.NOT_STABLE, reasons, conflicts
        if crit == Status.SEMISTABLE:
            return Status.SEMISTABLE, reasons, conflicts
        return Status.NOT_STABLE, reasons, conflicts

    return crit, reasons, conflicts


def analyze(f: HomogeneousPoly, options: AnalysisOptions) -> AnalysisReport:
    scan = scan_singular_points(f, options.height, options.field_sizes)
    points = list(scan.points)
    for p in options.extra_points:
        if p not in points:
            points.append(p)
    points.sort(key=lambda p: p.coords)
    local = [analyze_point(f, p) for p in points]
    singular = [p for p in local if p.multiplicity >= 2]

    proof = prove_smooth(f) if not singular and options.s is None else None
    profile, cone_free, basis = build_profile(singular, f.n, f.d, options.s, proof)
    criteria_verdict = combined_verdict(profile, cone_free)
    # The Hessian criterion's rank, proven at every singular point, bounds
    # the whole profile (the argument is in the :mod:`.modp` docstring).
    rank = least_positive_hessian_rank(f.n, f.d)
    heuristic = basis == "heuristic" and options.s is None
    if heuristic and criteria_verdict.status.is_positive and rank is not None:
        coords = [p.point.coords for p in singular]
        bound = prove_hessian_rank(f, rank, coords)
        if bound is not None:
            proven = bounded_profile(singular, f.n, f.d, bound)
            # A higher rank, up to the least at a known point, allows fewer
            # profiles; the first one proven that reads Stable is kept.
            top = min((p.hessian_rank for p in singular), default=f.n)
            for higher in range(rank + 1, top + 1):
                if proven[2].status != Status.SEMISTABLE:
                    break
                bound = prove_hessian_rank(f, higher, coords)
                if bound is not None:
                    stronger = bounded_profile(singular, f.n, f.d, bound)
                    if stronger[2].status == Status.STABLE:
                        proven = stronger
            if proven[2].status.is_positive:
                profile, cone_free, criteria_verdict = proven
                basis = "exact-bound"

    if basis == "exact-bound" and criteria_verdict.status == Status.STABLE:
        # Stable rules out every certificate, strict or not, so no frame
        # can succeed; tests run the full search on proven inputs instead.
        outcome = SearchOutcome()
        skipped = "Stable is proven, so no destabilizing certificate exists"
    elif basis == "exact-bound" and criteria_verdict.status == Status.SEMISTABLE:
        # SemiStable rules out a strict certificate; a non-strict one
        # still documents that the form is not stable.
        outcome = search_destabilization(f, options.search, tuple(singular), nonstrict_only=True)
        skipped = (
            "SemiStable is proven, so no strict certificate exists; "
            "the search stops at the first non-strict certificate"
        )
    else:
        outcome = search_destabilization(f, options.search, tuple(singular))
        skipped = None
    status, reasons, conflicts = _merge_with_certificates(criteria_verdict, outcome, profile)
    if status in (Status.NOT_STABLE, Status.NOT_SEMISTABLE):
        basis = "certificate"

    stamp = (
        datetime.datetime.now(datetime.timezone.utc).isoformat() if options.timestamp else None
    )
    return AnalysisReport(
        polynomial=f,
        scan=scan,
        points=local,
        profile=profile,
        cone_free=cone_free,
        criteria=criteria_verdict,
        search_outcome=outcome,
        search_budget=options.search.budget,
        search_skipped=skipped,
        status=status,
        basis=basis,
        reasons=reasons,
        conflicts=conflicts,
        seed=options.search.seed,
        timestamp=stamp,
    )

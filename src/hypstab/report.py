"""Analysis pipeline and machine-readable reports.

The analyze pipeline scans for rational singular points and computes local
invariants at found and supplied points.  One builder,
:func:`settle_profile`, turns what is known into the singularity profile
that the criteria read: s, delta and the minimum Hessian rank.  The found
points bound each datum from one side and a proof from the other; every
integer profile in that box is evaluated by every sufficient criterion, and
the weakest verdict is kept with its profile.  With no proof each datum is
closed at its found end, so the box is one profile.  Each datum carries its
provenance: user-asserted, exact, verified-at-points or heuristic.

The proofs come from :mod:`.modp`.  When no point is singular and no s is
asserted, a smoothness proof makes s = -1.  When the criteria read positive
on heuristic data for a cubic or quartic, the Hessian criterion's rank is
proven at every singular point (:func:`~.modp.prove_hessian_rank`), which
bounds s, delta and the rank.  When that reads ``SemiStable``, each higher
rank up to the least at a known point is tried, and the first proven one
that reads ``Stable`` is kept.  Then the search looks for destabilizing
certificates.  A proven ``Stable`` skips the search: no certificate of
either kind can exist (Hilbert-Mumford).  A proven ``SemiStable`` skips the
strict decisions, since no strict certificate can exist, and stops at the
first non-strict one.

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


def settle_profile(
    singular: list[LocalData],
    n: int,
    d: int,
    s_user: int | None = None,
    proof: MacaulayProof | None = None,
    bound: HessianRankBound | None = None,
) -> tuple[SingularityProfile, bool | None, StabilityVerdict, str]:
    """The weakest criteria verdict over every profile that the analyzed
    singular points and a proof allow, with that profile, its tangent-cone
    summary and its basis: ``exact-bound``, ``asserted`` or ``heuristic``.

    The points give s >= 0, delta >= their largest multiplicity and a
    minimum Hessian rank <= their least.  A smoothness ``proof`` gives
    s = -1; a Hessian-rank ``bound`` gives delta <= 2, s <= ``bound.s_max``
    and a rank from ``bound.rank``.  The rank is at most n - s, the rank
    along an s-dimensional component of double points, so under an asserted
    s >= 1 no double point's tangent cone is cone-free.  An asserted
    ``s_user`` replaces the points' end of s.  With neither proof, each
    datum is closed at its found end and tagged heuristic (``s_user`` as
    user-asserted).  The criteria are not
    monotone in s, so every integer profile in the box is evaluated, s first
    and then the rank; on a tie the later, more singular one is kept.
    Points that contradict the proof leave the box empty and raise
    :class:`InternalConsistencyError`.  A double point's tangent cone is a
    quadric in n variables, so it is a cone exactly when its rank is below n.
    """
    if s_user is not None and (s_user == -1) == bool(singular):
        raise AssertedProfileError(
            "--s -1 (smooth) asserted but singular points were found"
            if singular
            else f"--s {s_user} asserted but no singular points were found to analyze"
        )
    s_lo = s_hi = (0 if singular else -1) if s_user is None else s_user
    delta = delta_hi = max((p.multiplicity for p in singular), default=1)
    found = min((p.hessian_rank for p in singular if p.multiplicity == 2), default=n)
    top = rank_lo = min(found, n - max(s_lo, 0))
    tag = "heuristic" if s_user is None else "user-asserted"
    if bound is not None:
        reason = f"Hessian rank >= {bound.rank} at every singular point"
        provenance = {
            "s": f"exact upper bound {bound.s_max} ("
            + (str(bound.hyperplane) if bound.hyperplane else f"n - {bound.rank}, {reason}")
            + ")",
            "delta": f"exact upper bound 2 ({reason})",
            "min_hessian_rank": f"exact lower bound {bound.rank} ({bound.minors})",
        }
        s_hi, delta_hi, rank_lo = bound.s_max, 2, bound.rank
    elif proof is not None:
        provenance = {"s": f"exact: {proof}", "delta": "exact (smooth)"}
        s_hi = -1
    elif singular:
        provenance = {
            "delta": "verified-at-points (lower bound); heuristic as maximum",
            "s": "heuristic (isolated rational points found)" if s_user is None else tag,
        }
        if delta == 2:
            provenance["min_hessian_rank"] = (
                "verified-at-points; heuristic as minimum"
                if top == found
                else f"at most n - s = {top} along the asserted {s_lo}-dimensional "
                "singular locus; heuristic as minimum"
            )
    else:
        provenance = {"s": tag, "delta": tag}
    asserted = s_user is not None and not singular
    basis = "exact-bound" if bound or proof else "asserted" if asserted else "heuristic"
    box = [
        (s, m, rank)
        for s in range(s_lo, s_hi + 1)
        for m in range(delta, delta_hi + 1)
        if (s == -1) == (m == 1)  # smooth exactly when delta = 1
        for rank in (range(rank_lo, min(top, n - s) + 1) if m == 2 else [None])
    ]
    if not box:
        raise InternalConsistencyError(
            f"the data of the singular points {', '.join(str(p.point) for p in singular)} "
            f"contradicts the proof: {proof if bound is None else bound.minors}"
        )
    evaluated = []
    for s, m, rank in box:
        cones = [is_cone(p.tangent_cone) for p in singular if m > 2 and p.multiplicity == m]
        cone_free = None if s == -1 else rank == n if m == 2 else bool(cones) and not any(cones)
        profile = SingularityProfile(n, d, s, m, rank)
        evaluated.append((profile, cone_free, combined_verdict(profile, cone_free)))
    if bound is not None:
        provenance["profile"] = (
            f"the weakest of {len(box)} profile{'s' * (len(box) > 1)} "
            "allowed by the exact bounds"
        )
    profile, cone_free, verdict = min(
        reversed(evaluated), key=lambda e: positive_strength(e[2].status)
    )
    return replace(profile, provenance=provenance), cone_free, verdict, basis


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
    profile, cone_free, criteria_verdict, basis = settle_profile(
        singular, f.n, f.d, options.s, proof
    )
    # The Hessian criterion's rank, proven at every singular point, bounds
    # the whole profile (the argument is in the :mod:`.modp` docstring).
    rank = least_positive_hessian_rank(f.n, f.d)
    heuristic = basis == "heuristic" and options.s is None
    if heuristic and criteria_verdict.status.is_positive and rank is not None:
        coords = [p.point.coords for p in singular]
        # A higher rank, up to the least at a known point (n when none is a
        # double point), allows fewer profiles.  While the proven verdict
        # reads SemiStable, the first higher rank proven that reads Stable is
        # kept.
        proven = None
        for r in range(rank, (profile.min_hessian_rank or f.n) + 1):
            bound = prove_hessian_rank(f, r, coords)
            if bound is not None:
                settled = settle_profile(singular, f.n, f.d, bound=bound)
                if proven is None or settled[2].status == Status.STABLE:
                    proven = settled
            if proven is None or proven[2].status != Status.SEMISTABLE:
                break
        if proven is not None and proven[2].status.is_positive:
            profile, cone_free, criteria_verdict, basis = proven

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

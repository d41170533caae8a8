"""The one profile builder, :func:`~hypstab.report.settle_profile`.

Under a Hessian-rank bound its verdict must be the weakest
``combined_verdict`` over a box that the test lists itself, by brute force
over every integer (s, delta, rank) of the shape and the facts the bound and
the known points state; on a tie the profile is the last one listed.  Known
points that contradict a proof leave that box empty, which is an internal
error.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab import analyze_point, parse_poly
from hypstab.criteria import SingularityProfile, combined_verdict
from hypstab.local_analysis import LocalData, ProjectivePoint
from hypstab.modp import PRIME, HessianRankBound, MacaulayProof
from hypstab.report import settle_profile
from hypstab.verdicts import InternalConsistencyError, positive_strength

PROOF = MacaulayProof("a test ideal", PRIME, 4, 15)


def double_point(n: int, k: int, rank: int) -> LocalData:
    """A known double point of Hessian rank ``rank``.  Under a bound the
    builder reads only its multiplicity and rank."""
    return LocalData(ProjectivePoint((1,) + (0,) * (n - 1) + (k,)), 2, None, rank, n - rank)


@given(st.integers(2, 5), st.sampled_from([3, 4]), st.data())
@settings(max_examples=200, deadline=None)
def test_the_verdict_is_the_weakest_over_a_brute_force_box(n, d, data):
    rank = data.draw(st.integers(1, n), label="bound.rank")
    s_max = data.draw(st.integers(0, n - rank), label="bound.s_max")
    known = data.draw(st.lists(st.integers(1, n), max_size=3), label="known ranks")
    singular = [double_point(n, k, r) for k, r in enumerate(known)]
    bound = HessianRankBound(rank, s_max, PROOF)
    box = [
        (s, delta, r)
        for s in range(-1, n)
        for delta in range(1, d + 1)
        for r in (None, *range(n + 1))
        if (s == -1) == (delta == 1) and (r is None) == (delta != 2)
        if s >= 0 or not known  # the known points are singular
        if s <= s_max and delta <= 2  # the bound
        if r is None or rank <= r <= n - s and all(r <= k for k in known)
    ]
    if not box:
        with pytest.raises(InternalConsistencyError, match="contradicts the proof"):
            settle_profile(singular, n, d, bound=bound)
        return
    cone_free = [None if r is None else r == n for _, _, r in box]
    verdicts = [combined_verdict(SingularityProfile(n, d, *p), c) for p, c in zip(box, cone_free)]
    weakest = min(positive_strength(v.status) for v in verdicts)
    last = max(i for i, v in enumerate(verdicts) if positive_strength(v.status) == weakest)

    profile, cone, verdict, basis = settle_profile(singular, n, d, bound=bound)
    assert (profile.s, profile.delta, profile.min_hessian_rank) == box[last]
    assert (cone, basis) == (cone_free[last], "exact-bound")
    assert verdict.to_json() == verdicts[last].to_json()
    assert profile.provenance["profile"].startswith(f"the weakest of {len(box)} profile")


class TestContradictions:
    def test_a_triple_point_contradicts_a_rank_bound(self):
        triple = LocalData(ProjectivePoint((0, 0, 1)), 3, None)
        with pytest.raises(InternalConsistencyError, match=r"\[0:0:1\] contradicts the proof"):
            settle_profile([triple], 2, 3, bound=HessianRankBound(2, 0, PROOF))

    def test_a_point_below_the_bound_contradicts_it(self):
        points = [double_point(3, 0, 3), double_point(3, 1, 2)]
        with pytest.raises(InternalConsistencyError, match="contradicts the proof: the Macaulay"):
            settle_profile(points, 3, 4, bound=HessianRankBound(3, 0, PROOF))
        # A bound of rank 2 fits the same points.
        profile, *_ = settle_profile(points, 3, 4, bound=HessianRankBound(2, 0, PROOF))
        assert (profile.s, profile.delta, profile.min_hessian_rank) == (0, 2, 2)

    def test_a_found_point_contradicts_a_smoothness_proof(self):
        with pytest.raises(InternalConsistencyError, match="contradicts the proof"):
            settle_profile([double_point(2, 0, 2)], 2, 3, proof=PROOF)


def test_only_the_worst_points_tangent_cones_are_read():
    # The cone over the Fermat cubic curve: its vertex is a triple point
    # whose tangent cone, the Fermat cubic, is not a cone.
    f = parse_poly("x0^3 + x1^3 + x2^3", 3)
    triple = analyze_point(f, ProjectivePoint((0, 0, 0, 1)))
    profile, cone_free, _, basis = settle_profile([triple], 3, 3)
    assert (profile.s, profile.delta, profile.min_hessian_rank) == (0, 3, None)
    assert (cone_free, basis) == (True, "heuristic")
    # A double point whose tangent cone is a cone does not count next to it,
    # and neither does a triple point beside a quadruple one.
    cusp = LocalData(ProjectivePoint((1, 0, 0, 0)), 2, parse_poly("x0^2", 2), 1, 2)
    assert settle_profile([cusp, triple], 3, 5)[1] is True
    quadruple = LocalData(ProjectivePoint((0, 1, 0, 0)), 4, parse_poly("x0^4", 2))
    assert settle_profile([triple, quadruple], 3, 5)[1] is False
    assert settle_profile([cusp], 3, 5)[1] is False


@pytest.mark.parametrize("n, s", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_an_asserted_s_caps_the_found_rank(n, s):
    """Along an s-dimensional component of double points the rank is at
    most n - s, so no tangent cone there is cone-free, whatever rank the
    found points have."""
    for found in range(1, n + 1):
        profile, cone_free, _, basis = settle_profile([double_point(n, 0, found)], n, 4, s)
        assert (profile.s, profile.delta) == (s, 2)
        assert profile.min_hessian_rank == min(found, n - s)
        assert (cone_free, basis) == (False, "heuristic")
        capped = found > n - s
        assert profile.provenance["min_hessian_rank"].startswith(
            f"at most n - s = {n - s}" if capped else "verified-at-points"
        )

"""Sufficient-criterion evaluators, bound comparison, combined verdicts."""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

import pytest

from hypstab import (
    SingularityProfile,
    Status,
    combined_verdict,
    compare_bounds,
    evaluate_degree_bound,
    evaluate_hessian_corank_bound,
    evaluate_hessian_rank_bound,
    evaluate_mordant,
    evaluate_multiplicity_bound,
    literature_lookup,
)
from hypstab.criteria import (
    LITERATURE,
    ProfileError,
    degree_threshold,
    least_positive_hessian_rank,
)
from hypstab.verdicts import positive_strength


def profile(n, d, s, delta, rank=None):
    return SingularityProfile(n, d, s, delta, rank)


SMOOTH = SingularityProfile(3, 5, -1, 1)


class TestProfileValidation:
    def test_smooth_needs_delta_one(self):
        with pytest.raises(ProfileError):
            SingularityProfile(2, 3, -1, 2)

    def test_rank_needs_small_delta(self):
        with pytest.raises(ProfileError):
            SingularityProfile(3, 3, 0, 3, 1)

    def test_rank_range(self):
        with pytest.raises(ProfileError):
            SingularityProfile(3, 3, 0, 2, 5)

    def test_s_range(self):
        with pytest.raises(ProfileError):
            SingularityProfile(2, 3, 2, 2)

    def test_corank_accessor(self):
        assert profile(4, 3, 0, 2, 3).corank == 1


class TestMultiplicityBound:
    def test_isolated_double_points_degree_five(self):
        v = evaluate_multiplicity_bound(profile(4, 5, 0, 2))
        assert v.status == Status.STABLE
        assert v.reasons[0].margin == Fraction(15, 7) - 2

    def test_maximal_singular_locus_branch(self):
        v = evaluate_multiplicity_bound(profile(2, 7, 1, 2))
        assert v.status == Status.STABLE

    def test_cubic_double_point_inconclusive(self):
        assert evaluate_multiplicity_bound(profile(2, 3, 0, 2)).status == Status.INCONCLUSIVE

    def test_smooth_short_circuit(self):
        assert evaluate_multiplicity_bound(SMOOTH).status == Status.STABLE

    def test_equality_gives_semistable(self):
        # d = 4, s = 0: threshold 8/5; delta cannot hit it, use s = 1, d = 3:
        # 3*1/(3*3-4) = 3/5 ... construct equality via delta = threshold:
        # d = 6, s = 0: 24/9 = 8/3 not integer; d = 4, s = 2: 8/(6*... use
        # the s = n-1 branch: threshold d/(n+1) = 6/3 = 2 with delta 2.
        v = evaluate_multiplicity_bound(profile(2, 6, 1, 2))
        assert v.status == Status.SEMISTABLE


class TestDegreeBound:
    def test_isolated_double_points_degree_five(self):
        assert evaluate_degree_bound(profile(4, 5, 0, 2)).status == Status.STABLE

    def test_maximal_branch(self):
        assert evaluate_degree_bound(profile(3, 9, 2, 2)).status == Status.STABLE

    def test_cubic_triple_point_inconclusive(self):
        assert evaluate_degree_bound(profile(2, 3, 0, 3)).status == Status.INCONCLUSIVE

    @pytest.mark.parametrize("d", range(3, 31))
    @pytest.mark.parametrize("delta", range(1, 11))
    def test_equivalence_with_multiplicity_form(self, d, delta):
        for s in range(0, 9):
            for n in range(max(s + 1, 2), 13):
                p = profile(n, d, s, delta)
                assert (
                    evaluate_multiplicity_bound(p).status == evaluate_degree_bound(p).status
                ), (n, d, s, delta)


class TestHessianForms:
    def test_rank_examples(self):
        assert evaluate_hessian_rank_bound(profile(3, 3, 0, 2, 3)).status == Status.STABLE
        assert evaluate_hessian_rank_bound(profile(2, 3, 0, 2, 2)).status == Status.SEMISTABLE
        assert evaluate_hessian_rank_bound(profile(6, 3, 0, 2, 4)).status == Status.INCONCLUSIVE

    def test_corank_examples(self):
        assert evaluate_hessian_corank_bound(profile(9, 3, 0, 2, 7)).status == Status.STABLE
        assert evaluate_hessian_corank_bound(profile(8, 3, 0, 2, 6)).status == Status.SEMISTABLE
        assert evaluate_hessian_corank_bound(profile(5, 4, 0, 2, 3)).status == Status.SEMISTABLE

    def test_preconditions_reported(self):
        with pytest.raises(ProfileError, match="d must be 3 or 4"):
            evaluate_hessian_rank_bound(profile(3, 5, 0, 2, 3))
        with pytest.raises(ProfileError, match="min_hessian_rank"):
            evaluate_hessian_rank_bound(profile(3, 3, 0, 2))
        message = (
            "hessian-corank inapplicable: d must be 3 or 4, got 5; s must be 0, got 1; "
            "delta must be 2, got 3; min_hessian_rank is required"
        )
        with pytest.raises(ProfileError, match=f"^{re.escape(message)}$"):
            evaluate_hessian_corank_bound(profile(3, 5, 1, 3))

    def test_combined_reads_the_criterion_exactly_where_it_applies(self):
        for n, d, s, delta, rank in product((2, 3), (3, 4, 5), (0, 1), (2, 3), (None, 1, 2)):
            if delta > 2 and rank is not None:
                continue
            p = profile(n, d, s, delta, rank)
            applies = d in (3, 4) and s == 0 and delta == 2 and rank is not None
            read = {r.criterion for r in combined_verdict(p).reasons}
            assert ({"hessian-rank", "hessian-corank"} <= read) == applies, p
            if not applies:
                with pytest.raises(ProfileError, match="^hessian-rank inapplicable: "):
                    evaluate_hessian_rank_bound(p)

    def test_rank_corank_equivalence_grid(self):
        for d in (3, 4):
            for n in range(2, 13):
                for rank in range(0, n + 1):
                    p = profile(n, d, 0, 2, rank)
                    assert (
                        evaluate_hessian_rank_bound(p).status
                        == evaluate_hessian_corank_bound(p).status
                    ), (n, d, rank)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_least_positive_rank(self, n, d):
        # The least rank of 0..n at which the rank form reads positive.
        positive = [
            rank
            for rank in range(n + 1)
            if evaluate_hessian_rank_bound(profile(n, d, 0, 2, rank)).status.is_positive
        ]
        assert least_positive_hessian_rank(n, d) == min(positive, default=None)

    def test_least_positive_rank_outside_the_criterion(self):
        assert least_positive_hessian_rank(3, 5) is None  # d is not 3 or 4
        assert least_positive_hessian_rank(1, 3) is None  # ceil(4/3) = 2 > n


class TestMordant:
    def test_semistable_at_triple_delta(self):
        v = evaluate_mordant(profile(4, 6, 0, 2), cone_free=False)
        assert v.status == Status.SEMISTABLE

    def test_cone_free_branch(self):
        v = evaluate_mordant(profile(4, 4, 0, 2), cone_free=True)
        assert v.status == Status.STABLE

    def test_threshold_not_met(self):
        assert evaluate_mordant(profile(3, 3, 0, 2), cone_free=False).status == Status.INCONCLUSIVE

    def test_smooth(self):
        assert evaluate_mordant(SMOOTH, cone_free=False).status == Status.STABLE


class TestCompareBounds:
    def test_known_values(self):
        cb = compare_bounds(2, 0)
        assert cb.mordant_threshold == 6
        assert cb.strictly_better
        assert str(cb.new_threshold) == "3 + sqrt(3)"

    def test_delta_one_edge(self):
        cb = compare_bounds(1, 0)
        assert not cb.strictly_better
        assert cb.new_threshold.compare_to(3) == 0  # 2 + sqrt(1) == 3 == threshold

    def test_bigger_case(self):
        cb = compare_bounds(3, 2)
        assert cb.mordant_threshold == 15
        assert cb.strictly_better

    def test_dominance_grid(self):
        for delta in range(2, 11):
            for s in range(0, 9):
                cb = compare_bounds(delta, s)
                assert cb.strictly_better, (delta, s)
                assert cb.new_threshold.compare_to(cb.mordant_threshold) < 0


class TestDegreeThresholdArithmetic:
    def test_compare_to_signs(self):
        t = degree_threshold(2, 0)  # 3 + sqrt(3) ~ 4.73
        assert t.compare_to(4) > 0
        assert t.compare_to(5) < 0

    def test_exact_equality(self):
        t = degree_threshold(1, 0)  # 2 + sqrt(1) = 3
        assert t.compare_to(3) == 0


# Every published row, written out apart from ``criteria.LITERATURE`` so that
# no row can be dropped or altered unnoticed: (n, d, class, status, source).
PUBLISHED = [
    (2, 3, "A1", "SemiStable", "Hoskins, Moduli problems and geometric invariant theory, Lemma 7.25"),
    (3, 3, "A1", "Stable", "Mukai, An introduction to invariants and moduli, Thm 7.14 and 7.20"),
    (3, 3, "A2", "SemiStable", "Mukai, An introduction to invariants and moduli, Thm 7.14 and 7.20"),
    (5, 3, "Am", "Stable", "Laza, The moduli space of cubic fourfolds, Thm 1.1"),
    (5, 3, "ADE", "Stable", "Laza, The moduli space of cubic fourfolds, Thm 1.1"),
    (3, 4, "Am", "Stable", "Shah, Degenerations of K3 surfaces of degree 4, Thm 2.4"),
]


class TestLiterature:
    def test_keys(self):
        assert sorted(LITERATURE) == sorted((n, d, tag) for n, d, tag, _, _ in PUBLISHED)

    @pytest.mark.parametrize("n, d, tag, status, source", PUBLISHED)
    def test_row(self, n, d, tag, status, source):
        assert literature_lookup(n, d, tag).to_json() == {
            "status": status,
            "reasons": [
                {
                    "criterion": "literature",
                    "note": f"published classification for n={n}, d={d}, class {tag}",
                    "inputs": {"class": tag},
                }
            ],
            "literature": source,
        }

    def test_miss(self):
        # A class with no row at a shape that has rows.
        assert literature_lookup(3, 3, "A3") is None

    def test_entries(self):
        assert literature_lookup(2, 3, "A1").status == Status.SEMISTABLE
        assert literature_lookup(5, 3, "ADE").status == Status.STABLE
        assert literature_lookup(3, 3, "A2").status == Status.SEMISTABLE

    def test_absent_entry(self):
        assert literature_lookup(7, 9, "A1") is None

    def test_no_smooth_row(self):
        # combined_verdict returns on a smooth profile before any lookup.
        assert all(tag != "smooth" for _, _, tag in LITERATURE)
        assert combined_verdict(SingularityProfile(2, 3, -1, 1)).literature is None

    def test_source_attached(self):
        v = literature_lookup(2, 3, "A1")
        assert "Hoskins" in v.literature


class TestCombined:
    def test_hessian_beats_inconclusive_multiplicity(self):
        v = combined_verdict(profile(3, 4, 0, 2, 3))
        assert v.status == Status.STABLE
        assert any(r.criterion == "hessian-rank" for r in v.reasons)
        assert any(r.criterion == "multiplicity-bound" for r in v.reasons)

    def test_quintic_curve_double_points(self):
        assert combined_verdict(profile(2, 5, 0, 2, 1)).status == Status.STABLE

    def test_smooth(self):
        assert combined_verdict(SMOOTH).status == Status.STABLE

    def test_all_inconclusive_for_cubic_cusp_profile(self):
        # Every sufficient criterion must stay silent on the profile of a
        # polynomial known to be non-semistable.
        v = combined_verdict(profile(2, 3, 0, 2, 1), cone_free=False)
        assert v.status == Status.INCONCLUSIVE

    def test_literature_merges_for_nodes(self):
        v = combined_verdict(profile(2, 3, 0, 2, 2))
        assert v.status == Status.SEMISTABLE
        assert v.literature is not None

    def test_superclass_literature_for_nodes(self):
        # Corank-0 nodes on a cubic fourfold match the published ADE entry.
        v = combined_verdict(profile(5, 3, 0, 2, 5))
        assert v.status == Status.STABLE


class TestMonotonicity:
    def test_monotone_in_degree_antitone_in_delta(self):
        for n in (3, 6):
            for s in (0, 1, 2):
                for delta in range(1, 6):
                    strengths = [
                        positive_strength(
                            evaluate_multiplicity_bound(profile(n, d, s, delta)).status
                        )
                        for d in range(3, 20)
                    ]
                    assert strengths == sorted(strengths), (n, s, delta)
                for d in (5, 9, 15):
                    strengths = [
                        positive_strength(
                            evaluate_multiplicity_bound(profile(n, d, s, delta)).status
                        )
                        for delta in range(1, 8)
                    ]
                    assert strengths == sorted(strengths, reverse=True), (n, s, d)

    def test_verdict_lattice(self):
        # Positive and negative statuses never coexist in combined output by
        # construction; spot-check the lattice helpers.
        assert positive_strength(Status.STABLE) > positive_strength(Status.SEMISTABLE)
        assert Status.STABLE.is_positive and not Status.NOT_SEMISTABLE.is_positive

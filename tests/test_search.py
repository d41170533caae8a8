"""Destabilization search: soundness and determinism."""
from __future__ import annotations

import pytest

from hypstab import (
    SearchConfig,
    Status,
    scan_singular_points,
    search_destabilization,
    verify_certificate,
)


def run_search(f, budget=20, seed=1):
    scan = scan_singular_points(f, 2)
    cfg = SearchConfig(budget=budget, seed=seed)
    return search_destabilization(f, cfg, scan.points)


class TestSearchOutcomes:
    def test_f2_strict_found_fast(self, corpus):
        outcome = run_search(corpus["f2"], budget=10)
        assert outcome.strict is not None
        assert verify_certificate(corpus["f2"], outcome.strict).status == Status.NOT_SEMISTABLE

    def test_fermat_nothing_found(self, corpus):
        outcome = run_search(corpus["fermat_cubic"], budget=50)
        assert outcome.strict is None and outcome.nonstrict is None

    def test_triangle_nonstrict_only(self, corpus):
        outcome = run_search(corpus["triangle"], budget=10)
        assert outcome.strict is None
        assert outcome.nonstrict is not None
        assert verify_certificate(corpus["triangle"], outcome.nonstrict).status == Status.NOT_STABLE

    def test_nodal_cubic_nonstrict_only(self, corpus):
        outcome = run_search(corpus["nodal_cubic"], budget=100)
        assert outcome.strict is None
        assert outcome.nonstrict is not None

    def test_cuspidal_cubic_strict(self, corpus):
        # The cusp x1^2*x2 - x0^3 is non-semistable.
        outcome = run_search(corpus["cuspidal_cubic"], budget=10)
        assert outcome.strict is not None


class TestDeterminism:
    def test_same_seed_same_outcome(self, corpus):
        a = run_search(corpus["nodal_cubic"], budget=40, seed=7)
        b = run_search(corpus["nodal_cubic"], budget=40, seed=7)
        assert a.nonstrict == b.nonstrict
        assert [fr.to_json() for fr in a.frames] == [fr.to_json() for fr in b.frames]

    def test_budget_respected(self, corpus):
        outcome = run_search(corpus["fermat_cubic"], budget=13)
        assert outcome.frames_tried == 13

    def test_point_strategy_only_terminates(self, corpus):
        # With only finitely many point frames the stream must end early.
        scan = scan_singular_points(corpus["f2"], 2)
        cfg = SearchConfig(budget=100, seed=0, strategies=("singular-point-to-Q",))
        outcome = search_destabilization(corpus["f2"], cfg, scan.points)
        assert outcome.strict is not None
        cfg2 = SearchConfig(budget=100, seed=0, strategies=("singular-point-to-Q",))
        fermat = search_destabilization(corpus["fermat_cubic"], cfg2, ())
        assert fermat.frames_tried == 1  # identity frame only


class TestConfigValidation:
    def test_bad_budget(self):
        with pytest.raises(ValueError):
            SearchConfig(budget=0)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            SearchConfig(strategies=("warp-drive",))

"""Destabilization search: soundness and determinism."""
from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab import (
    Certificate,
    HomogeneousPoly,
    RationalMatrix,
    SearchConfig,
    Status,
    apply_linear_change,
    family_poly,
    parse_poly,
    scan_singular_points,
    search_destabilization,
    verify_certificate,
)
from hypstab import search
from hypstab.linalg import transformed_supports
from hypstab.search import FrameRecord, SearchOutcome
from hypstab.torus import torus_destabilize

from conftest import degree_monomials


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

    def test_frame_labels_and_order(self, corpus):
        # Identity, one frame per point, then permutation / unipotent rounds.
        scan = scan_singular_points(corpus["f2"], 2)
        stream = search._frames(SearchConfig(), 3, scan.points)
        labels = [next(stream)[0] for _ in range(1 + len(scan.points) + 6)]
        rounds = ["permutations", "random-unipotent", "random-unipotent"] * 2
        assert labels == ["singular-point-to-Q"] * (1 + len(scan.points)) + rounds


class TestBatchedSupports:
    def test_search_ending_at_frame_0_never_calls_the_kernel(self, corpus):
        def kernel(f, sigmas):
            raise AssertionError("frame 0 is the identity")

        with mock.patch.object(search, "transformed_supports", kernel):
            outcome = run_search(corpus["f2"], budget=50)
        assert outcome.frames_tried == 1 and outcome.strict is not None

    def test_frames_are_drawn_in_doubling_chunks(self, corpus):
        # Frames drawn from the stream so far, at each kernel call: frame 0,
        # then chunks of 1, 2, 4, 8, 16 and the 18 left of the budget.
        drawn, at_call, stream = [], [], search._frames

        def frames(*args):
            for frame in stream(*args):
                drawn.append(frame)
                yield frame

        def kernel(f, sigmas):
            at_call.append(len(drawn))
            return transformed_supports(f, sigmas)

        with mock.patch.object(search, "_frames", frames), mock.patch.object(
            search, "transformed_supports", kernel
        ):
            outcome = search_destabilization(corpus["fermat_cubic"], SearchConfig(budget=50, seed=0))
        assert outcome.frames_tried == len(drawn) == 50
        assert at_call == [2, 4, 8, 16, 32, 50]


class TestConfigValidation:
    def test_bad_budget(self):
        with pytest.raises(ValueError):
            SearchConfig(budget=0)


# The benchmark's disguised bases: (text, n).
DISGUISED_BASES = (
    (None, "fn", 2),
    (None, "fn", 3),
    (None, "gn", 2),
    (None, "gn", 3),
    ("x1^2*x2 - x0^3", None, 2),
    ("x1^2*x2 - x0^2*x2 - x0^3", None, 2),
    ("x0^2*x2 + x1^2*x3", None, 3),
    ("x0^3 - 2*x0*x1^2 - 2*x1^2*x2 + x2^3", None, 2),
)


def disguised_bases():
    """Each base under a fixed integer change U*P (U upper unitriangular with
    entries in [-1, 1], P a permutation), with its singular points."""
    rng = random.Random(0)
    out = []
    for text, family, n in DISGUISED_BASES:
        f = family_poly(family, n) if family else parse_poly(text, n)
        size = n + 1
        upper = [[int(i == j) if j <= i else rng.randint(-1, 1) for j in range(size)] for i in range(size)]
        images = list(range(size))
        rng.shuffle(images)
        sigma = RationalMatrix.from_rows(upper) @ RationalMatrix.permutation(images)
        g = apply_linear_change(f, sigma)
        out.append((g, scan_singular_points(g, 2).points))
    return out


@st.composite
def random_forms(draw):
    """Forms with n <= 3 and d <= 4 on a random support, rational coefficients."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    support = draw(st.sets(st.sampled_from(degree_monomials(n, d)), min_size=1))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(lambda c: c != 0)
    return HomogeneousPoly.make(n, d, {exp: draw(coeff) for exp in sorted(support)})


def checked_search(f, cfg, points=()) -> tuple[SearchOutcome, int]:
    """Run the search and check every decision that did not come from the LP
    (a reused refutation) against a fresh LP on that frame's exact support,
    which must find no witness either.  Each
    frame's g is expanded here by ``apply_linear_change``, independently of
    the search, and the support the search decided on must equal g's.
    Returns the outcome and the number of such decisions."""
    batched, sent = [], set()

    def supports(f, sigmas):
        out = transformed_supports(f, sigmas)
        batched.extend(out)
        return out

    def torus(g, strict):
        sent.add((strict, g.support()))
        return torus_destabilize(g, strict)

    with mock.patch.object(search, "transformed_supports", supports), mock.patch.object(
        search, "torus_destabilize", torus
    ):
        outcome = search_destabilization(f, cfg, points)
    assert len(outcome.frames) == outcome.frames_tried
    identity = RationalMatrix.identity(f.n + 1)
    stream = search._frames(cfg, f.n + 1, points)
    sigmas = [next(stream)[1] for _ in range(outcome.frames_tried)]
    expanded = iter(batched)
    reused = 0
    for sigma, record in zip(sigmas, outcome.frames):
        g = apply_linear_change(f, sigma)
        assert (f.support() if sigma == identity else next(expanded)) == g.support()
        modes = [(True, record.strict_feasible)]
        if record.nonstrict_feasible is not None:
            modes.append((False, record.nonstrict_feasible))
        for strict, feasible in modes:
            if (strict, g.support()) in sent:
                continue
            reused += 1
            assert not feasible
            assert torus_destabilize(g, strict).witness is None
    return outcome, reused


def search_without_reuse(f, cfg, points=()) -> SearchOutcome:
    """The frame search with an exact-support cache only, as it was before
    refutations were reused."""
    outcome = SearchOutcome()
    cache = {}

    def decide(g, strict):
        key = (strict, g.support())
        if key not in cache:
            cache[key] = torus_destabilize(g, strict)
        return cache[key]

    frame_stream = search._frames(cfg, f.n + 1, points)
    for index in range(cfg.budget):
        strategy, sigma = next(frame_stream)
        outcome.frames_tried += 1
        g = apply_linear_change(f, sigma)
        decision = decide(g, strict=True)
        if decision.witness is not None:
            outcome.strict = Certificate(sigma, decision.witness.reduced(), strict=True)
            outcome.frames.append(FrameRecord(strategy, index, True, None))
            return outcome
        nonstrict_feasible = None
        if outcome.nonstrict is None:
            nonstrict = decide(g, strict=False)
            nonstrict_feasible = nonstrict.feasible
            if nonstrict.witness is not None:
                outcome.nonstrict = Certificate(sigma, nonstrict.witness.reduced(), strict=False)
        outcome.frames.append(FrameRecord(strategy, index, decision.feasible, nonstrict_feasible))
    return outcome


class TestRefutationReuse:
    def test_reused_refutations_hold_on_disguised_bases(self):
        total = 0
        for f, points in disguised_bases():
            _, reused = checked_search(f, SearchConfig(budget=50, seed=0), points)
            total += reused
        assert total > 0

    @given(random_forms(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_reused_refutations_hold_on_random_forms(self, f, seed):
        checked_search(f, SearchConfig(budget=30, seed=seed))

    @given(random_forms(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_outcome_matches_search_without_reuse(self, f, seed):
        cfg = SearchConfig(budget=30, seed=seed)
        assert search_destabilization(f, cfg) == search_without_reuse(f, cfg)

    def test_outcome_matches_on_disguised_bases(self):
        for f, points in disguised_bases():
            cfg = SearchConfig(budget=50, seed=0)
            assert search_destabilization(f, cfg, points) == search_without_reuse(f, cfg, points)

    def test_repeated_support_goes_to_the_lp_once_per_mode(self):
        # A dense cubic with prime coefficients: every one of its 50 frames
        # keeps the full support, and no frame destabilizes it.
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        f = HomogeneousPoly.make(2, 3, dict(zip(degree_monomials(2, 3), primes)))
        supports, calls = [], []

        def batched(f, sigmas):
            out = transformed_supports(f, sigmas)
            supports.extend(out)
            return out

        def torus(g, strict):
            calls.append((strict, g.support()))
            return torus_destabilize(g, strict)

        with mock.patch.object(search, "transformed_supports", batched), mock.patch.object(
            search, "torus_destabilize", torus
        ):
            outcome = search_destabilization(f, SearchConfig(budget=50, seed=0))
        assert outcome.frames_tried == 50 and not outcome.found
        # Frames equal to the identity use f's own support, not the kernel's.
        assert set(supports) == {f.support()}
        assert sorted(calls) == [(False, f.support()), (True, f.support())]

    def test_reuse_skips_most_lps(self):
        # Without reuse this search makes 28 torus decisions by LP.
        f = parse_poly(
            "-2*x0^3 + x0^2*x1 + x0^2*x2 + 3*x0*x1^2 + 3*x0*x2^2 + x1^3 + x2^3", 2
        )
        calls = []

        def torus(g, strict):
            calls.append(strict)
            return torus_destabilize(g, strict)

        with mock.patch.object(search, "torus_destabilize", torus):
            outcome = search_destabilization(f, SearchConfig(budget=50, seed=0))
        assert outcome.frames_tried == 50 and not outcome.found
        assert len(calls) <= 12

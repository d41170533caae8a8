"""Destabilization search: soundness and determinism."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, islice, takewhile
from math import lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypstab import (
    Certificate,
    HomogeneousPoly,
    RationalMatrix,
    SearchConfig,
    Status,
    analyze_point,
    apply_linear_change,
    family_poly,
    parse_poly,
    scan_singular_points,
    search_destabilization,
    verify_certificate,
)
from hypstab import frames, search
from hypstab.linalg import nullspace_vector, transformed_supports
from hypstab.local_analysis import ProjectivePoint
from hypstab.search import FrameRecord, SearchOutcome
from hypstab.torus import torus_destabilize

from conftest import degree_monomials


# gn2 and fn3 under integer changes of coordinates.
GN2_DISGUISED = (
    "-x0^3*x1 + 2*x0^3*x2 + x0^2*x1^2 - 4*x0^2*x1*x2 + x0^2*x2^2"
    " + 2*x0*x1^2*x2 - 2*x0*x1*x2^2 + x1^2*x2^2"
)
FN3_DISGUISED = (
    "2*x0^3 + 3*x0^2*x1 + 2*x0*x1^2 + 2*x0*x1*x2 - x0*x2^2 + x1^3 + x1^2*x2"
    " + x1^2*x3 - 2*x1*x2^2 - 2*x1*x2*x3 + x2^3 + x2^2*x3"
)


def analyzed_points(f, height=2):
    """The local data of f's rational singular points of height <= height."""
    return tuple(analyze_point(f, p) for p in scan_singular_points(f, height).points)


def run_search(f, budget=20, seed=1):
    cfg = SearchConfig(budget=budget, seed=seed)
    return search_destabilization(f, cfg, analyzed_points(f))


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
        # Identity, one frame per point, the kernel frames, the kernel-line
        # frames, the linear-component frames, then permutation / unipotent
        # rounds.  f2's kernel is a coordinate line, and it has no linear
        # factor; the disguised gn2 (a multiple of x0) has two double points
        # and a linear factor, and the disguised fn3 a plane ker Q.
        rounds = ["permutations", "random-unipotent", "random-unipotent"] * 2
        cases = [
            (corpus["f2"], []),
            (parse_poly(GN2_DISGUISED, 2), ["hessian-kernel"] * 2 + ["linear-component"]),
            (parse_poly(FN3_DISGUISED, 3), ["hessian-kernel"] + ["kernel-line"] * 6),
        ]
        for f, structured in cases:
            points = analyzed_points(f)
            stream = search._frames(SearchConfig(), f, points)
            leading = ["singular-point-to-Q"] * (1 + len(points))
            labels = [next(stream)[0] for _ in range(len(leading) + len(structured) + 6)]
            assert labels == leading + structured + rounds


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

    @pytest.mark.parametrize(
        "text, n, tried",
        [
            # gn2 with two points: strict at the second point frame, frame 2.
            ("-x0^3*x2 + 3*x0^2*x1*x2 + x0^2*x2^2 - 3*x0*x1^2*x2 + x1^3*x2", 2, 3),
            # The disguised gn2: strict at the kernel frame after its two
            # point frames.
            (GN2_DISGUISED, 2, 4),
        ],
    )
    def test_identity_and_point_frames_are_not_expanded_again(self, text, n, tried):
        # Their g is f and the points' moved forms.  Only the later frames
        # go to the kernel, and the LP expands only frames the kernel did.
        f = parse_poly(text, n)
        points = analyzed_points(f)
        batched, exact = [], []

        def kernel(f, sigmas):
            batched.extend(sigmas)
            return transformed_supports(f, sigmas)

        def change(f, sigma):
            exact.append(sigma)
            return apply_linear_change(f, sigma)

        with mock.patch.object(search, "transformed_supports", kernel), mock.patch.object(
            search, "apply_linear_change", change
        ):
            outcome = search_destabilization(f, SearchConfig(budget=50), points)
        assert outcome.frames_tried == tried and outcome.strict is not None
        lead = 1 + len(points)
        stream = islice(search._frames(SearchConfig(), f, points), lead + len(batched))
        assert batched == [sigma for _, sigma in stream][lead:]
        assert bool(exact) == (tried > lead)
        assert all(any(sigma is b for b in batched) for sigma in exact)


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
    entries in [-1, 1], P a permutation), with the local data of its singular
    points."""
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
        out.append((g, analyzed_points(g)))
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
    which must find no witness either.  Each frame's g is expanded here by
    ``apply_linear_change``, independently of the search, and the support
    the search decided on must equal g's: f's for the identity, the point's
    ``moved`` form's for a point frame, and the batched kernel's for the
    rest.  Returns the outcome and the number of such decisions."""
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
    stream = search._frames(cfg, f, points)
    sigmas = [next(stream)[1] for _ in range(outcome.frames_tried)]
    expanded = chain([f.support()], (p.moved.support() for p in points), batched)
    reused = 0
    for sigma, record in zip(sigmas, outcome.frames):
        g = apply_linear_change(f, sigma)
        assert next(expanded) == g.support()
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

    frame_stream = search._frames(cfg, f, points)
    for index in range(cfg.budget):
        strategy, sigma = next(frame_stream)
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
        assert outcome.frames_tried == 50
        assert outcome.strict is None and outcome.nonstrict is None
        # The frames after the identity go to the kernel, which gives each
        # the full support.
        assert set(supports) == {f.support()}
        assert sorted(calls) == [(False, f.support()), (True, f.support())]

    def test_reuse_skips_most_lps(self):
        # A line times a conic through two irrational nodes (strictly
        # semistable): the linear-component frame, frame 1, gives the
        # non-strict certificate, and no frame a strict one.  Without reuse
        # this search makes 17 torus decisions by LP.
        f = parse_poly(
            "-2*x0^3 + x0^2*x1 + x0^2*x2 + 3*x0*x1^2 + 3*x0*x2^2 + x1^3 + x2^3", 2
        )
        calls = []

        def torus(g, strict):
            calls.append(strict)
            return torus_destabilize(g, strict)

        with mock.patch.object(search, "torus_destabilize", torus):
            outcome = search_destabilization(f, SearchConfig(budget=50, seed=0))
        assert outcome.frames_tried == 50 and outcome.strict is None
        assert outcome.frames[1].strategy == "linear-component"
        assert outcome.frames[1].nonstrict_feasible
        assert len(calls) <= 12


# --- structured frames -------------------------------------------------------

STRUCTURED = {"singular-point-to-Q", "hessian-kernel", "kernel-line", "linear-component"}

# name -> (base form, its rational singular points, whether it is unstable): the
# unstable ones need a strict certificate, the strictly semistable ones (the
# nodal cubic; the line plus a conic through two irrational nodes) have a
# non-strict one and no strict one.
SHARPEST_BASES = {
    "fn2": (family_poly("fn", 2), [(0, 0, 1)], True),
    "fn3": (family_poly("fn", 3), [(0, 0, 0, 1)], True),
    "gn2": (family_poly("gn", 2), [(0, 0, 1), (1, 0, 0)], True),
    "gn3": (family_poly("gn", 3), [(0, 0, 0, 1), (1, 0, 0, 0)], True),
    "cusp": (parse_poly("x1^2*x2 - x0^3", 2), [(0, 0, 1)], True),
    "nodal-cubic": (parse_poly("x1^2*x2 - x0^2*x2 - x0^3", 2), [(0, 0, 1)], False),
    "irrational-node-cubic": (parse_poly("x0^3 - 2*x0*x1^2 - 2*x1^2*x2 + x2^3", 2), [], False),
}


@st.composite
def disguises(draw, size):
    """Invertible integer matrices with entries in [-2, 2]."""
    entries = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size))
    sigma = RationalMatrix.from_rows(rows)
    assume(sigma.determinant() != 0)
    return sigma


def moved_point(sigma, coords) -> ProjectivePoint:
    """The point y with sigma^T y = coords, which is where f∘sigma has the
    point ``coords`` of f: the solution (y, 1) of [sigma^T | -coords]."""
    rows = [list(col) + [-c] for col, c in zip(zip(*sigma.rows), coords)]
    return ProjectivePoint.make(nullspace_vector(rows)[:-1])


def structured_budget(f, points) -> int:
    """The number of frames before the first random one."""
    labels = (strategy for strategy, _ in search._frames(SearchConfig(), f, points))
    return sum(1 for _ in takewhile(lambda s: s in STRUCTURED, labels))


class TestStructuredFrames:
    @pytest.mark.parametrize("name", sorted(SHARPEST_BASES))
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_sharpest_certificate_within_structured_frames(self, name, data):
        base, coords, unstable = SHARPEST_BASES[name]
        sigma = data.draw(disguises(base.n + 1))
        f = apply_linear_change(base, sigma)
        moved = sorted((moved_point(sigma, c) for c in coords), key=lambda p: p.coords)
        for p in moved:
            assert all(f.partial_derivative(j).evaluate(p.coords) == 0 for j in range(f.n + 1))
        points = tuple(analyze_point(f, p) for p in moved)
        budget = structured_budget(f, points)
        outcome = search_destabilization(f, SearchConfig(budget=budget), points)
        if unstable:
            assert outcome.strict is not None
            assert outcome.frames[-1].strategy in STRUCTURED
            assert verify_certificate(f, outcome.strict).status == Status.NOT_SEMISTABLE
        else:
            assert outcome.strict is None and outcome.nonstrict is not None
            assert verify_certificate(f, outcome.nonstrict).status == Status.NOT_STABLE

    def test_planted_linear_factor_gives_a_frame(self):
        # (2*x0 - x1 + 3*x2) times a conic with no rational linear factor,
        # x0^2 + x1^2 - 5*x2^2 + x0*x2, expanded.
        line = parse_poly("2*x0 - x1 + 3*x2", 2)
        f = parse_poly(
            "2*x0^3 - x0^2*x1 + 5*x0^2*x2 + 2*x0*x1^2 - x0*x1*x2 - 7*x0*x2^2 - x1^3"
            " + 3*x1^2*x2 + 5*x1*x2^2 - 15*x2^3",
            2,
        )
        found = list(frames.linear_components(f))
        assert len(found) == 1
        # The linear factor is a multiple of the frame's last coordinate.
        moved = apply_linear_change(line, found[0])
        assert moved.support() == ((0, 0, 1),)
        labels = [strategy for strategy, _ in islice(search._frames(SearchConfig(), f, ()), 3)]
        assert labels == ["singular-point-to-Q", "linear-component", "permutations"]

    def test_each_linear_factor_gives_a_frame(self):
        # Three lines: one frame each, which makes that factor (a multiple
        # of) its last coordinate.
        factors = [parse_poly(text, 2) for text in ("x2", "x0 - x1", "x1 + 2*x2")]
        f = parse_poly("x0*x1*x2 + 2*x0*x2^2 - x1^2*x2 - 2*x1*x2^2", 2)  # their product
        made_last = [
            [i for i, line in enumerate(factors)
             if apply_linear_change(line, frame).support() == ((0, 0, 1),)]
            for frame in frames.linear_components(f)
        ]
        assert sorted(made_last) == [[0], [1], [2]]

    @pytest.mark.parametrize(
        "text, n",
        [
            ("x0^3 + x1^3 + x2^3", 2),  # Fermat: irreducible
            ("x1^2*x2 - x0^2*x2 - x0^3", 2),  # the nodal cubic
            ("x0^2 + x1^2 + x2^2", 2),  # no rational point at all
            ("x0^2*x3^2 + x0*x2^3 + x1^4", 3),  # gn3
            ("x0^2 - 2*x1^2", 1),  # irrational roots
        ],
    )
    def test_no_rational_linear_factor_gives_no_frame(self, text, n):
        assert list(frames.linear_components(parse_poly(text, n))) == []

    @pytest.mark.parametrize(
        "text, n, tried",
        [
            ("x0^2*x2 + x1^3", 2, 1),  # strict at frame 0
            # fn2 with its one point [0:1:1]: strict at the point frame.
            ("x0^2*x1 - x1^3 + 3*x1^2*x2 - 3*x1*x2^2 + x2^3", 2, 2),
            # gn2 with two points: strict at the second point frame, frame 2,
            # which a chunk of two frames would draw with frame 3.
            ("-x0^3*x2 + 3*x0^2*x1*x2 + x0^2*x2^2 - 3*x0*x1^2*x2 + x1^3*x2", 2, 3),
        ],
    )
    def test_search_ending_early_builds_no_structured_frame(self, text, n, tried):
        def structured(f, points):
            raise AssertionError("a structured frame was built")
            yield

        f = parse_poly(text, n)
        with mock.patch.object(frames, "structured_frames", structured):
            outcome = search_destabilization(f, SearchConfig(budget=50), analyzed_points(f))
        assert outcome.frames_tried == tried and outcome.strict is not None
        assert outcome.frames[-1].strategy == "singular-point-to-Q"


class TestRootsOnLines:
    @pytest.mark.parametrize(
        "coeffs, roots",
        [
            # s^2 (s + 1)(2s - 3) = 2s^4 - s^3 - 3s^2
            ([0, 0, -3, -1, 2], [Fraction(-1), Fraction(0), Fraction(3, 2)]),
            ([-2, 0, 1], []),  # s^2 - 2
            ([6, -5, 1], [Fraction(2), Fraction(3)]),
            ([1, 2, 1], [Fraction(-1)]),  # a double root, once
            ([5], []),
            ([0, 0, 0], None),  # the zero polynomial: every s
            ([1, 0, 10**9], None),  # too large to factor
        ],
    )
    def test_rational_roots(self, coeffs, roots):
        assert frames._rational_roots(coeffs) == roots

    @given(random_forms(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_on_line_matches_evaluation(self, f, data):
        points = st.lists(st.integers(-3, 3), min_size=f.n + 1, max_size=f.n + 1)
        p, q = data.draw(points), data.draw(points)
        coeffs = frames._on_line(f, p, q)
        scale = lcm(*(c.denominator for _, c in f.terms))
        for s in range(-2, 3):
            value = f.evaluate([s * a + b for a, b in zip(p, q)])
            assert sum(c * s**k for k, c in enumerate(coeffs)) == scale * value

    def test_plane_kernel_lines_start_where_the_next_forms_vanish(self):
        # gn3 moved by sigma, at its point where Q = x0^2 has a plane kernel:
        # the kernel frame gives no strict certificate, and the first line,
        # where G_3 and G_4 vanish, does.
        sigma = RationalMatrix.from_rows([[1, 2, 0, -1], [0, 1, 1, 0], [1, 0, 1, 2], [0, -1, 1, 1]])
        f = apply_linear_change(family_poly("gn", 3), sigma)
        data = analyze_point(f, moved_point(sigma, (0, 0, 0, 1)))
        kernel = frames.HessianKernel.of(data)
        assert len(kernel.vectors) == 2
        g = apply_linear_change(f, kernel.frame(kernel.vectors))
        assert torus_destabilize(g, strict=True).witness is None
        key, c = min(kernel.lines(data.moved))
        assert key == (False, False)
        g = apply_linear_change(f, kernel.line_frame(c))
        assert torus_destabilize(g, strict=True).witness is not None

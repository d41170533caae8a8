"""The Macaulay kernel on any list of forms, and the Hessian-rank bound.

:func:`prove_empty` is checked against a Groebner basis mod the prime
(sympy, test-only) on small ideals of mixed degree, up to the degree where
the kernel is complete.  The rank bound is checked on planted singular
points: a node (Hessian rank n) must be proven, a point of lower rank never,
and a singular curve never gets s <= 0.  On every input that ``analyze``
proves SemiStable the full search runs and must find no strict certificate,
since ``analyze`` skips the strict decisions there; on those it proves
Stable it must find no certificate at all.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypstab import HomogeneousPoly, RationalMatrix, apply_linear_change, modp, parse_poly_infer
from hypstab.cli import EXIT_INTERNAL, EXIT_OK, main
from hypstab.local_analysis import ProjectivePoint, analyze_point, is_cone
from hypstab.modp import PRIME, IntForm, prove_empty, prove_hessian_rank
from hypstab.report import AnalysisOptions, analyze
from hypstab.search import SearchConfig, search_destabilization

from conftest import degree_monomials

X = sympy.symbols("x0:4")

# Strictly semistable plane cubics (one node): the bases and the benchmark's
# disguised copies of the nodal cubic and of the irrational-node cubic, whose
# node is at a pair of conjugate irrational points.
SEMISTABLE = {
    "nodal-cubic": "x1^2*x2 - x0^2*x2 - x0^3",
    "nodal-cubic#0": "-x0^3 + 2*x0*x1*x2 + x1^2*x2",
    "nodal-cubic#1": "-x0^3 + 2*x0^2*x1 + x0*x1^2 - 2*x0*x1*x2 - x1^3 + x1^2*x2",
    "irrational-node-cubic": "x0^3 - 2*x0*x1^2 - 2*x1^2*x2 + x2^3",
    "irrational-node-cubic#0": (
        "-x0^3 + 2*x0^2*x1 + 4*x0^2*x2 + 2*x0*x1^2 - 2*x0*x2^2 - x1^3 - 4*x1^2*x2 - 2*x1*x2^2"
    ),
    "irrational-node-cubic#1": (
        "-2*x0^3 + x0^2*x1 + x0^2*x2 + 3*x0*x1^2 + 3*x0*x2^2 + x1^3 + x2^3"
    ),
}

# A quartic surface with one node, of Hessian rank 3.  At rank 2 its s <= 0
# comes from the hyperplane proof, and rank 2, which that bound allows, reads
# SemiStable; so ``analyze`` goes on to prove rank 3, which reads Stable.
NODAL_QUARTIC = "x0^2*x3^2 + x1^2*x3^2 + x2^2*x3^2 + x0^4 + x1^4 + x2^4 - x0*x1*x2*x3"

# Stable surfaces with only nodes: the Cayley cubic (four nodes) and the
# nodal quartic.
STABLE = {
    "cayley-cubic": "x0*x1*x2 + x0*x1*x3 + x0*x2*x3 + x1*x2*x3",
    "nodal-quartic": NODAL_QUARTIC,
}


def sym(f: HomogeneousPoly):
    scale = 1
    for _, c in f.terms:
        scale = scale * c.denominator // sympy.gcd(scale, c.denominator)
    return sum(int(c * scale) * prod(x**e for x, e in zip(X, exp)) for exp, c in f.terms)


def groebner_empty(polys, nvars: int) -> bool:
    """Every variable has a pure power among the leading terms of a
    Groebner basis mod PRIME: the forms have no common zero over the
    algebraic closure of F_p."""
    xs = X[:nvars]
    polys = [p for p in polys if sympy.expand(p) != 0]
    if not polys:
        return False
    basis = sympy.groebner(polys, *xs, modulus=PRIME, order="grevlex")
    leading = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    return all(any(m[i] == sum(m) > 0 for m in leading) for i in range(nvars))


def hessian_ideal(f: HomogeneousPoly, r: int) -> list:
    """The partials and every r x r minor of the Hessian, built by sympy."""
    xs = X[: f.nvars]
    F = sym(f)
    H = sympy.hessian(F, xs)
    rows = list(sympy.utilities.iterables.subsets(range(f.nvars), r))
    return [sympy.diff(F, x) for x in xs] + [
        H.extract(list(i), list(j)).det() for i in rows for j in rows
    ]


@st.composite
def small_ideals(draw):
    """Two to five integer forms in three variables, of degrees 1 to 3."""
    forms = []
    for _ in range(draw(st.integers(2, 5))):
        e = draw(st.integers(1, 3))
        terms = draw(
            st.dictionaries(st.sampled_from(degree_monomials(2, e)), st.integers(-3, 3).filter(bool),
                            min_size=1, max_size=4)
        )
        forms.append((e, terms))
    return forms


class TestProveEmpty:
    @given(small_ideals())
    @settings(max_examples=80, deadline=None)
    def test_matches_groebner(self, forms):
        # The forms of degree e generate an ideal with the same zeros, which
        # holds a regular sequence of three degree-e forms when it has none:
        # the kernel is complete from degree 3(e-1)+1 on.
        top = 3 * (max(e for e, _ in forms) - 1) + 1
        proof = prove_empty([IntForm.from_terms(e, 3, t) for e, t in forms], 3, top)
        polys = [sum(c * prod(x**k for x, k in zip(X, exp)) for exp, c in t.items()) for _, t in forms]
        assert (proof is not None) == groebner_empty(polys, 3)
        if proof is not None:
            assert proof.prime == PRIME and proof.degree <= top

    def test_mixed_degrees_and_the_named_ideal(self):
        # x0, x1^2 and x2^3: no common zero, full rank first in degree 4.
        forms = [
            IntForm.from_terms(1, 3, {(1, 0, 0): 1}),
            IntForm.from_terms(2, 3, {(0, 2, 0): 1}),
            IntForm.from_terms(3, 3, {(0, 0, 3): 1}),
        ]
        proof = prove_empty(forms, 3, 6, ideal="three powers")
        assert (proof.degree, proof.rank) == (4, 15)
        assert str(proof) == (
            "the Macaulay matrix of three powers in degree 4 has full column rank 15 mod 2147483647"
        )
        assert prove_empty(forms, 3, 3) is None
        assert prove_empty(forms[:2], 3, 8) is None

    def test_a_form_zero_mod_the_prime_has_no_rows(self):
        forms = [IntForm.from_terms(1, 2, {(1, 0): PRIME}), IntForm.from_terms(1, 2, {(0, 1): 1})]
        assert prove_empty(forms, 2, 3) is None
        forms[0] = IntForm.from_terms(1, 2, {(1, 0): PRIME + 1})
        assert prove_empty(forms, 2, 3) is not None

    def test_the_ramp_stops_at_the_size_bound(self, monkeypatch):
        forms = [
            IntForm.from_terms(1, 3, {(1, 0, 0): 1}),
            IntForm.from_terms(2, 3, {(0, 2, 0): 1}),
            IntForm.from_terms(3, 3, {(0, 0, 3): 1}),
        ]
        # Degree 3 is 10 x 10 and degree 4 is 19 x 15.
        monkeypatch.setattr(modp, "MAX_CELLS", 19 * 15 - 1)
        assert prove_empty(forms, 3, 6) is None
        monkeypatch.setattr(modp, "MAX_CELLS", 19 * 15)
        assert prove_empty(forms, 3, 6) is not None


def move(f: HomogeneousPoly, rows) -> tuple[HomogeneousPoly, tuple[Fraction, ...]]:
    """f under x_j -> sum_k sigma[k][j] x_k, and where e_n goes: the point
    P with sigma^T P = e_n."""
    sigma = sympy.Matrix(rows)
    point = sigma.T.solve(sympy.Matrix([int(k == f.n) for k in range(f.nvars)]))
    g = apply_linear_change(f, RationalMatrix.from_rows(rows))
    return g, tuple(Fraction(int(v.p), int(v.q)) for v in point)


def changes(size: int):
    return st.lists(
        st.lists(st.integers(-2, 2), min_size=size, max_size=size), min_size=size, max_size=size
    ).filter(lambda rows: sympy.Matrix(rows).det() != 0)


def form(n: int, d: int, terms: dict) -> HomogeneousPoly:
    return HomogeneousPoly.make(n, d, terms)


def planted(n: int, quadric: dict, rest: dict, rows) -> tuple[HomogeneousPoly, tuple]:
    """x_n * Q + C with Q and C forms in x_0..x_(n-1), moved by ``rows``:
    a double point at P whose Hessian rank is the rank of Q."""
    terms = {e + (1,): c for e, c in quadric.items()} | {e + (0,): c for e, c in rest.items()}
    f0 = form(n, 3, terms)
    assume(not f0.is_zero)
    g, point = move(f0, rows)
    assert all(g.partial_derivative(j).evaluate(point) == 0 for j in range(g.nvars))
    # A double point's tangent cone is a quadric in n variables: a cone
    # exactly when its rank is below n, as the profile builder reads it.
    local = analyze_point(g, ProjectivePoint.make(point))
    assert local.multiplicity != 2 or is_cone(local.tangent_cone) == (local.hessian_rank < n)
    return g, point


coefficients = st.integers(-3, 3)


def cubic_terms(nvars: int):
    return st.fixed_dictionaries({e: coefficients for e in degree_monomials(nvars - 1, 3)})


class TestPlantedPoints:
    @given(coefficients, coefficients, coefficients, cubic_terms(2), changes(3))
    @settings(max_examples=40, deadline=None)
    def test_node_on_a_plane_cubic_is_proven(self, a, b, c, cubic, rows):
        # An irreducible plane cubic has at most one singular point, here a
        # node: Q = a x0^2 + b x0 x1 + c x1^2 has rank 2.
        assume(b * b - 4 * a * c != 0)
        g, _ = planted(2, {(2, 0): a, (1, 1): b, (0, 2): c}, cubic, rows)
        assume(len(sympy.factor_list(sym(g))[1]) == 1 and sympy.factor_list(sym(g))[1][0][1] == 1)
        bound = prove_hessian_rank(g, 2)
        assert bound is not None
        assert (bound.rank, bound.s_max, bound.hyperplane) == (2, 0, None)
        assert bound.minors.degree <= 4

    @given(coefficients, coefficients, cubic_terms(2), changes(3))
    @settings(max_examples=40, deadline=None)
    def test_cusp_on_a_plane_cubic_is_never_proven(self, a, b, cubic, rows):
        # Q = (a x0 + b x1)^2 has rank 1 at the point.
        assume(a or b)
        g, _ = planted(2, {(2, 0): a * a, (1, 1): 2 * a * b, (0, 2): b * b}, cubic, rows)
        assert prove_hessian_rank(g, 2) is None

    @given(st.fixed_dictionaries({e: coefficients for e in degree_monomials(2, 2)}),
           cubic_terms(3), changes(4))
    @settings(max_examples=20, deadline=None)
    def test_node_on_a_cubic_surface_is_proven(self, quadric, cubic, rows):
        # A singular point of x3 Q + C other than e3 lies over a point of
        # Q = C = 0 where the gradients of Q and C are parallel (Euler's
        # relation gives C = 0 from Q = 0 and x3 grad Q = -grad C).  So with
        # Q of rank 3 and Q, C meeting transversally e3 is the only one.
        xs = X[:3]
        Q = sum(c * prod(x**k for x, k in zip(xs, exp)) for exp, c in quadric.items())
        C = sum(c * prod(x**k for x, k in zip(xs, exp)) for exp, c in cubic.items())
        assume(sympy.hessian(Q, xs).det() != 0)
        grads = sympy.Matrix([[sympy.diff(Q, x) for x in xs], [sympy.diff(C, x) for x in xs]])
        minors = [grads.extract([0, 1], [i, j]).det() for i, j in ((0, 1), (0, 2), (1, 2))]
        assume(groebner_empty([Q, C] + minors, 3))
        g, point = planted(3, quadric, cubic, rows)
        bound = prove_hessian_rank(g, 3, [point])
        assert bound is not None
        assert (bound.rank, bound.s_max, bound.hyperplane) == (3, 0, None)

    @given(st.lists(coefficients, min_size=3, max_size=3), st.lists(coefficients, min_size=3, max_size=3),
           cubic_terms(3), changes(4))
    @settings(max_examples=30, deadline=None)
    def test_a2_on_a_cubic_surface_is_never_proven(self, l1, l2, cubic, rows):
        # Q = l1 * l2 has rank at most 2 at the point.
        quadric = {}
        for i, u in enumerate(l1):
            for j, v in enumerate(l2):
                exp = tuple((k == i) + (k == j) for k in range(3))
                quadric[exp] = quadric.get(exp, 0) + u * v
        g, _ = planted(3, quadric, cubic, rows)
        assert prove_hessian_rank(g, 3) is None

    @given(st.lists(st.fixed_dictionaries({e: coefficients for e in degree_monomials(3, 2)}),
                    min_size=3, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_a_singular_line_never_gets_s_zero(self, parts):
        # x0^2 P0 + x0 x1 P1 + x1^2 P2 is singular along x0 = x1 = 0, which
        # meets every hyperplane.
        p0, p1, p2 = (sum(c * prod(x**e for x, e in zip(X, exp)) for exp, c in p.items()) for p in parts)
        x0, x1 = X[:2]
        f = form(3, 4, sympy.Poly(x0 * x0 * p0 + x0 * x1 * p1 + x1 * x1 * p2, *X).as_dict())
        assume(not f.is_zero)
        bound = prove_hessian_rank(f, 1)
        assert bound is None or (bound.s_max >= 1 and bound.hyperplane is None)

    def test_nodal_quartic_gets_s_zero_from_a_hyperplane(self):
        bound = prove_hessian_rank(parse_poly_infer(NODAL_QUARTIC), 2, [(0, 0, 0, 1)])
        assert (bound.rank, bound.s_max) == (2, 0)
        assert bound.hyperplane.ideal == "the partials on x3 = 2*x0 + 4*x1 + 8*x2"

    def test_the_size_check_reads_the_kernel_cap(self, monkeypatch):
        # r = 2 on a quartic surface: the 4 partials (cubics) and 21 minors
        # (quartics) make the first matrix, in degree 4, 4*4 + 21 rows by
        # 35 columns.  Under the cap no minor is computed.
        def computed(*args):
            raise AssertionError("a minor was computed")

        f = parse_poly_infer(NODAL_QUARTIC)
        assert modp.matrix_shape([3] * 4 + [4] * 21, 4, 4) == (37, 35)
        monkeypatch.setattr(modp, "_hessian_minors", computed)
        monkeypatch.setattr(modp, "MAX_CELLS", 37 * 35 - 1)
        assert prove_hessian_rank(f, 2) is None
        monkeypatch.setattr(modp, "MAX_CELLS", 37 * 35)
        with pytest.raises(AssertionError, match="a minor was computed"):
            prove_hessian_rank(f, 2)

    def test_the_hyperplane_misses_the_known_points(self):
        # [1:0:0:2] is on x3 = 2 x0 + 4 x1 + 8 x2, so t = 3 is taken.
        assert modp._hyperplane(3, [(1, 0, 0, 2)]) == [3, 9, 27]
        assert modp._hyperplane(3, [(0, 0, 0, 1)]) == [2, 4, 8]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.integers(3, 4), st.data())
    def test_restricted_partials_span_the_substituted_partials(self, n, d, data):
        # The forms come from the partials of F moved by a coordinate change;
        # sympy substitutes x_n = sum c_i x_i into the partials of F directly.
        # Equal ranks, and the same rank stacked, mean one span.
        terms = data.draw(st.dictionaries(st.sampled_from(degree_monomials(n, d)),
                                          st.integers(-5, 5).filter(bool), min_size=1, max_size=8))
        c = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        xs = X[: n + 1]
        F = sym(form(n, d, terms))
        line = sum(ci * x for ci, x in zip(c, xs))
        theirs = [sympy.Poly(sympy.diff(F, x).subs(xs[n], line), *xs[:n]).as_dict() for x in xs]
        ours = [
            {tuple(e): int(v) - PRIME * (v > PRIME // 2) for e, v in zip(g.exps.tolist(), g.values)}
            for g in modp._restricted_partials(form(n, d, terms), c)
        ]
        columns = sorted({e for p in ours + theirs for e in p})

        def rank(forms):
            return sympy.Matrix([[p.get(e, 0) for e in columns] for p in forms]).rank()

        assert rank(ours) == rank(theirs) == rank(ours + theirs)

    def test_minors_match_sympy(self):
        f = parse_poly_infer(NODAL_QUARTIC)
        for r in (1, 2, 3):
            ours = {
                sympy.Poly(
                    sum(int(c) * prod(x**e for x, e in zip(X, exp)) for exp, c in zip(m.exps.tolist(), m.values)),
                    *X,
                ).as_expr()
                for m in modp._hessian_minors(f, r)
            }
            theirs = {
                sympy.Poly(p, *X, modulus=PRIME).as_expr()
                for p in hessian_ideal(f, r)[f.nvars:]
                if sympy.Poly(p, *X, modulus=PRIME).as_expr() != 0
            }
            reduced = {sympy.Poly(p, *X, modulus=PRIME).as_expr() for p in ours}
            assert reduced == theirs


def proven_report(text: str):
    f = parse_poly_infer(text)
    report = analyze(f, AnalysisOptions(timestamp=False))
    return f, report, tuple(p for p in report.points if p.multiplicity >= 2)


@pytest.mark.parametrize("name", sorted(SEMISTABLE))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_search_finds_no_strict_certificate_on_proven_semistable(name, seed):
    f, report, singular = proven_report(SEMISTABLE[name])
    assert (report.status.value, report.basis) == ("SemiStable", "exact-bound")
    # The search stops at its non-strict certificate, by frame 1.
    assert report.search_outcome.nonstrict is not None
    assert report.search_outcome.frames_tried <= 2
    outcome = search_destabilization(f, SearchConfig(budget=50, seed=seed), singular)
    assert outcome.strict is None
    assert outcome.frames_tried == 50


@pytest.mark.parametrize("name", sorted(STABLE))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_search_finds_no_certificate_on_proven_stable(name, seed):
    f, report, singular = proven_report(STABLE[name])
    assert (report.status.value, report.basis) == ("Stable", "exact-bound")
    assert report.search_outcome.frames_tried == 0
    outcome = search_destabilization(f, SearchConfig(budget=50, seed=seed), singular)
    assert outcome.strict is None and outcome.nonstrict is None


# The proof that planted Hessian-rank bounds name.
PROOF = modp.MacaulayProof("a test ideal", PRIME, 4, 15)


def node_of_full_rank(n: int) -> HomogeneousPoly:
    """x_n^2 (x_0^2 + ... + x_(n-1)^2) + x_0^4 + ... + x_(n-1)^4: its one
    singular point is a node of Hessian rank n at e_n."""
    squares = {tuple(2 * (j == i) + 2 * (j == n) for j in range(n + 1)): 1 for i in range(n)}
    return form(n, 4, squares | {tuple(4 * (j == i) for j in range(n + 1)): 1 for i in range(n)})


@pytest.mark.parametrize(
    "n, s_max, tried, kept",
    [
        # 3 > 10/4 reads Stable at once.
        (4, {3: 0, 4: 0}, [3], 3),
        # 3 = 12/4 reads SemiStable; rank 4 with s <= 1 allows s = 1, which
        # reads Inconclusive and is not kept; rank 5 reads Stable.
        (5, {3: 0, 4: 1, 5: 0}, [3, 4, 5], 5),
        (5, {3: 0, 5: 0}, [3, 4, 5], 5),
        (5, {3: 0, 4: 1}, [3, 4, 5], 3),
        # A failed first proof leaves the heuristic profile.
        (5, {4: 0, 5: 0}, [3], None),
    ],
)
def test_the_rank_ramp_order(monkeypatch, n, s_max, tried, kept):
    calls = []

    def bound(f, r, points):
        calls.append(r)
        return modp.HessianRankBound(r, s_max[r], PROOF) if r in s_max else None

    monkeypatch.setattr("hypstab.report.prove_hessian_rank", bound)
    options = AnalysisOptions(height=1, search=SearchConfig(budget=1), timestamp=False)
    report = analyze(node_of_full_rank(n), options)
    assert [p.point.coords for p in report.points] == [(0,) * n + (1,)]
    assert calls == tried
    rank = report.profile.provenance["min_hessian_rank"]
    if kept is None:
        assert (report.basis, rank) == ("heuristic", "verified-at-points; heuristic as minimum")
    else:
        assert report.basis == "exact-bound" and rank.startswith(f"exact lower bound {kept} ")


class TestAnalyze:
    def run(self, capsys, tmp_path, text, *flags):
        path = tmp_path / "input.poly"
        path.write_text(text + "\n")
        code = main(["analyze", str(path), "--no-timestamp", *flags])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_proven_semistable_skips_the_strict_decisions(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, tmp_path, SEMISTABLE["nodal-cubic#0"], "--json", "-")
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["status"], report["basis"], report["conflicts"]) == (
            "SemiStable", "exact-bound", []
        )
        assert report["profile"]["provenance"]["s"].startswith("exact upper bound 0")
        search = report["search"]
        assert search["frames_tried"] == 1
        assert search["frames"] == [
            {"strategy": "singular-point-to-Q", "index": 0, "strict_feasible": None,
             "nonstrict_feasible": True}
        ]
        assert search["skipped"].startswith("SemiStable is proven")

    def test_text_names_the_skip(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, tmp_path, SEMISTABLE["nodal-cubic#0"])
        assert code == EXIT_OK
        assert "non-strict certificate found: r = " in out
        assert "; strict search skipped: SemiStable is proven" in out
        assert out.rstrip().endswith("status: SemiStable (exact-bound)")

    def test_asserted_s_keeps_the_heuristic_path(self, capsys, tmp_path, monkeypatch):
        def unexpected(*args):
            raise AssertionError("the rank proof ran under an asserted s")

        monkeypatch.setattr("hypstab.report.prove_hessian_rank", unexpected)
        code, out, _ = self.run(
            capsys, tmp_path, SEMISTABLE["nodal-cubic#0"], "--s", "0", "--budget", "3", "--json", "-"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["basis"] == "heuristic"
        assert (report["search"]["frames_tried"], report["search"]["skipped"]) == (3, None)

    def test_proof_fault_exits_internal(self, capsys, tmp_path, monkeypatch):
        # The disguised nodal cubic's node is found, so the smoothness proof
        # does not run and the fault comes from the rank proof.
        def fault(*args):
            raise ValueError("planted fault")

        monkeypatch.setattr("hypstab.modp._sparse_has_full_column_rank", fault)
        code, _, err = self.run(capsys, tmp_path, SEMISTABLE["nodal-cubic#0"])
        assert code == EXIT_INTERNAL
        assert err.splitlines() == ["internal consistency failure: ValueError: planted fault"]

    def test_nodal_quartic_is_proven_stable_at_a_higher_rank(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, tmp_path, NODAL_QUARTIC, "--json", "-")
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["status"], report["basis"]) == ("Stable", "exact-bound")
        assert report["profile"]["provenance"]["min_hessian_rank"].startswith("exact lower bound 3")
        assert report["search"]["frames_tried"] == 0
        code, out, _ = self.run(capsys, tmp_path, NODAL_QUARTIC)
        assert out.rstrip().endswith("status: Stable (exact-bound)")

    def test_a_point_that_contradicts_the_proof_exits_internal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "hypstab.report.prove_hessian_rank",
            lambda f, r, points: modp.HessianRankBound(3, 0, prove_hessian_rank(f, r, points).minors),
        )
        code, _, err = self.run(capsys, tmp_path, SEMISTABLE["nodal-cubic#0"])
        assert code == EXIT_INTERNAL
        assert "contradicts the proof" in err

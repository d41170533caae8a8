"""Torus destabilization LP, its certificates, and the enumeration oracle."""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab import (
    HomogeneousPoly,
    WeightVector,
    enumerate_weight_oracle,
    membership,
    parse_poly,
    torus_destabilize,
)
from hypstab.linalg import integer_rank, nullspace_vector, primitive_row, rational_rank, scaled_integers
from hypstab.polynomials import PolyError, parse_poly_infer
from hypstab.simplex import SimplexError, solve_lp
from hypstab.torus import TorusDecision, _verify_barycentric
from hypstab.weights import WeightError

from conftest import degree_monomials, random_support_poly


def assert_decision_verifies(f, decision):
    """Re-check a TorusDecision from scratch."""
    n, d = f.n, f.d
    if decision.feasible:
        assert decision.witness is not None
        assert membership(f, decision.witness, decision.strict)
        return
    cert = decision.certificate
    assert cert is not None
    total = sum(lam for _, lam in cert)
    assert total == 1
    assert all(lam >= 0 for _, lam in cert)
    centroid = [Fraction(d, n + 1)] * (n + 1)
    for j in range(n + 1):
        assert sum(lam * exp[j] for exp, lam in cert) == centroid[j]
    if not decision.strict:
        assert all(lam > 0 for _, lam in cert)
        shifted = [[Fraction(e) - c for e, c in zip(exp, centroid)] for exp, _ in cert]
        assert rational_rank(shifted) == n


class TestStrictMode:
    def test_f2_feasible(self, corpus):
        decision = torus_destabilize(corpus["f2"], strict=True)
        assert decision.feasible
        assert membership(corpus["f2"], decision.witness, strict=True)

    def test_triangle_infeasible_with_point_mass(self, corpus):
        decision = torus_destabilize(corpus["triangle"], strict=True)
        assert not decision.feasible
        assert decision.certificate == (((1, 1, 1), Fraction(1)),)

    def test_fermat_infeasible(self, corpus):
        decision = torus_destabilize(corpus["fermat_cubic"], strict=True)
        assert not decision.feasible
        assert_decision_verifies(corpus["fermat_cubic"], decision)


class TestNonStrictMode:
    def test_triangle_feasible_flat_weights(self, corpus):
        decision = torus_destabilize(corpus["triangle"], strict=False)
        assert decision.feasible
        assert membership(corpus["triangle"], decision.witness, strict=False)

    def test_fermat_infeasible_with_positive_certificate(self, corpus):
        decision = torus_destabilize(corpus["fermat_cubic"], strict=False)
        assert not decision.feasible
        lambdas = dict(decision.certificate)
        assert lambdas == {
            (3, 0, 0): Fraction(1, 3),
            (0, 3, 0): Fraction(1, 3),
            (0, 0, 3): Fraction(1, 3),
        }
        assert_decision_verifies(corpus["fermat_cubic"], decision)

    @pytest.mark.parametrize(
        "text, nonstrict_feasible",
        [
            # Klein quartic: no pure powers, so no corner certificate.
            ("x0^3*x1 + x1^3*x2 + x2^3*x0", False),
            # The centroid is the monomial x0*x1*x2 on the hull's boundary;
            # (1, 0, -1) is in the cone but no vector is orthogonal to all.
            ("x0*x1*x2 + x0^3 + x1^3", True),
        ],
    )
    def test_one_lp_per_decision(self, monkeypatch, text, nonstrict_feasible):
        import hypstab.torus

        calls = []
        solve_lp = hypstab.torus.solve_lp

        def counting_solve_lp(*args):
            calls.append(args)
            return solve_lp(*args)

        monkeypatch.setattr(hypstab.torus, "solve_lp", counting_solve_lp)
        f = parse_poly(text, 2)
        for strict, feasible in ((True, False), (False, nonstrict_feasible)):
            calls.clear()
            decision = torus_destabilize(f, strict)
            assert len(calls) == 1
            assert decision.feasible == feasible
            assert_decision_verifies(f, decision)

    def test_zero_poly_rejected(self):
        from hypstab import HomogeneousPoly

        with pytest.raises(ValueError):
            torus_destabilize(HomogeneousPoly.make(2, 3, {}), strict=False)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "decide",
    [torus_destabilize, lambda f, strict: enumerate_weight_oracle(f, 3, strict)],
    ids=["lp", "oracle"],
)
def test_one_variable_forms_are_refused(decide, strict):
    # A form in one variable has no nonzero zero-sum weight: both routes
    # refuse it with the parser's message.
    f = HomogeneousPoly.make(0, 3, {(3,): 1})
    with pytest.raises(PolyError, match=r"^need at least two variables, got n = 0$"):
        decide(f, strict)


class TestOracle:
    def test_f2_strict_witness(self, corpus):
        witness = enumerate_weight_oracle(corpus["f2"], 5, strict=True)
        assert witness is not None
        assert membership(corpus["f2"], witness, strict=True)

    def test_fermat_nonstrict_none(self, corpus):
        assert enumerate_weight_oracle(corpus["fermat_cubic"], 12, strict=False) is None

    def test_triangle_nonstrict_witness(self, corpus):
        witness = enumerate_weight_oracle(corpus["triangle"], 2, strict=False)
        assert witness is not None
        assert membership(corpus["triangle"], witness, strict=False)

    def test_triangle_strict_none(self, corpus):
        assert enumerate_weight_oracle(corpus["triangle"], 3, strict=True) is None

    def test_lexicographic_first(self, corpus):
        # Scan order is lexicographic over the full vector; the triangle's
        # cone contains (-2, 0, 2), which precedes (1, 0, -1).
        witness = enumerate_weight_oracle(corpus["triangle"], 2, strict=False)
        assert witness.r == (-2, 0, 2)

    def test_bound_validation(self, corpus):
        with pytest.raises(ValueError):
            enumerate_weight_oracle(corpus["f2"], 0, strict=True)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_is_weight_error(self, corpus, bound):
        with pytest.raises(WeightError, match="bound must be >= 1"):
            enumerate_weight_oracle(corpus["f2"], bound, strict=False)

    def test_two_variable_polynomial(self):
        # Binary forms have only the one free coordinate r0.
        f = parse_poly("x0^2*x1", 1)
        witness = enumerate_weight_oracle(f, 3, strict=False)
        assert witness is not None
        assert len(witness.r) == 2
        assert membership(f, witness, strict=False)
        assert enumerate_weight_oracle(parse_poly("x0^3 + x0^2*x1 + x1^3", 1), 3, False) is None


class TestAgreement:
    """LP and oracle agree on the corpus (n = 2, small degree)."""

    @pytest.mark.parametrize("strict", [True, False])
    def test_corpus_agreement(self, corpus, strict):
        for name, f in corpus.items():
            if f.n != 2 or f.d > 4:
                continue
            decision = torus_destabilize(f, strict)
            witness = enumerate_weight_oracle(f, 200, strict)
            assert decision.feasible == (witness is not None), name
            assert_decision_verifies(f, decision)

    @pytest.mark.parametrize("strict", [True, False])
    def test_random_supports_agree(self, rng, strict):
        for _ in range(30):
            n = 2
            d = rng.choice([3, 4])
            f = random_support_poly(rng, n, d)
            decision = torus_destabilize(f, strict)
            witness = enumerate_weight_oracle(f, 60, strict)
            assert decision.feasible == (witness is not None), f.terms
            assert_decision_verifies(f, decision)

    @pytest.mark.parametrize("strict", [True, False])
    def test_random_supports_agree_three_dims(self, rng, strict):
        # Extreme rays for degree <= 4 supports in four variables have small
        # entries, so a box of radius 40 is conclusive.
        for _ in range(12):
            d = rng.choice([3, 4])
            f = random_support_poly(rng, 3, d)
            decision = torus_destabilize(f, strict)
            witness = enumerate_weight_oracle(f, 40, strict)
            assert decision.feasible == (witness is not None), f.terms
            assert_decision_verifies(f, decision)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("text", ["x0^0 + x1^0", "x0^0 + x1^0 + x2^0"])
    def test_constants_agree(self, text, strict):
        # At degree 0 every "corner" x_j^d is the monomial 1, so there is no
        # corner certificate; every weight vector pairs to 0 with it.
        f = parse_poly_infer(text)
        decision = torus_destabilize(f, strict)
        assert_decision_verifies(f, decision)
        witness = enumerate_weight_oracle(f, 3, strict)
        assert decision.feasible == (witness is not None) == (not strict)


class TestVerifyBarycentric:
    """The integer check of barycentric certificates accepts what the LP
    returns and rejects each way a certificate can be wrong."""

    @staticmethod
    def certificates(rng):
        """The LP's certificates as integer weights over their sum L, the
        lcm of the weights' denominators."""
        for _ in range(40):
            n = rng.choice([2, 3])
            f = random_support_poly(rng, n, rng.choice([3, 4]))
            for strict in (True, False):
                decision = torus_destabilize(f, strict)
                if not decision.feasible:
                    support = [exp for exp, _ in decision.certificate]
                    lambdas = [lam for _, lam in decision.certificate]
                    total = lcm(*(lam.denominator for lam in lambdas))
                    weights = scaled_integers(lambdas, total)
                    yield support, weights, total, n, f.d, not strict

    def test_accepts_lp_certificates(self, rng):
        seen = {True: 0, False: 0}
        for support, weights, total, n, d, positive in self.certificates(rng):
            _verify_barycentric(support, weights, total, n, d, positive)
            seen[positive] += 1
        assert seen[True] and seen[False]

    def test_rejects_weights_moved_by_one_over_l(self, rng):
        transfers = 0
        for support, weights, total, n, d, positive in self.certificates(rng):
            with pytest.raises(SimplexError, match="sum to 1"):
                _verify_barycentric(support, [weights[0] + 1] + weights[1:], total, n, d, positive)
            if len(weights) > 1 and weights[0] > 1:
                moved = [weights[0] - 1, weights[1] + 1] + weights[2:]
                with pytest.raises(SimplexError, match="centroid"):
                    _verify_barycentric(support, moved, total, n, d, positive)
                transfers += 1
        assert transfers

    def test_zero_weight_rejected_only_when_positive(self):
        support = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0)]
        _verify_barycentric(support, [1, 1, 1, 0], 3, 2, 3, positive=False)
        with pytest.raises(SimplexError, match="signs"):
            _verify_barycentric(support, [1, 1, 1, 0], 3, 2, 3, positive=True)

    def test_rank_deficient_support_rejected_when_positive(self):
        # (2,1,0) and (0,1,2) average to the centroid (1,1,1) but span a line.
        support = [(2, 1, 0), (0, 1, 2)]
        _verify_barycentric(support, [1, 1], 2, 2, 3, positive=False)
        with pytest.raises(SimplexError, match="span"):
            _verify_barycentric(support, [1, 1], 2, 2, 3, positive=True)

    def test_empty_total_rejected(self):
        # Zero weights sum to their total 0 and meet every centroid equation.
        with pytest.raises(SimplexError, match="sum to 1"):
            _verify_barycentric([(1, 1, 1)], [0], 0, 2, 3, positive=False)


# --- the integer decision against the Fraction decision it replaced ----------
#
# torus_destabilize as it was when the LP results were Fractions: the weights,
# their sum and each lambda, the Farkas projection and the certificate check
# all in Fraction arithmetic, the orthogonal vector found by a nullspace
# search on every non-strict call.  The decisions must serialize identically.


def _ref_verify_barycentric(support, lambdas, n, d, positive):
    scale = lcm(*(lam.denominator for lam in lambdas))
    weights = scaled_integers(lambdas, scale)
    assert sum(weights) == scale
    assert all(w >= 0 for w in weights) and not (positive and 0 in weights)
    for j in range(n + 1):
        assert (n + 1) * sum(w * exp[j] for w, exp in zip(weights, support)) == d * scale
    shifted = [[(n + 1) * exp[j] - d for exp in support] for j in range(n + 1)]
    assert not positive or integer_rank(shifted) == n


def reference_torus_destabilize(f, strict):
    support = f.support()
    n, d = f.n, f.d
    corners = [tuple(d if k == j else 0 for k in range(n + 1)) for j in range(n + 1)]
    if d >= 1 and set(corners) <= set(support):
        cert = tuple((c, Fraction(1, n + 1)) for c in corners)
        _ref_verify_barycentric(corners, [lam for _, lam in cert], n, d, not strict)
        return TorusDecision(False, strict, certificate=cert)
    rows = [[(n + 1) * exp[j] - d for exp in support] for j in range(n + 1)]
    if strict:
        A = [[1] * len(support)] + rows
        b = [1] + [0] * (n + 1)
    else:
        flat = nullspace_vector(list(support) + [[1] * (n + 1)])
        if flat is not None:
            return TorusDecision(True, False, witness=WeightVector(tuple(primitive_row(flat))))
        A = rows
        b = [-sum(row) for row in rows]
    result = solve_lp(A, b)
    if result.x is None:
        y = [Fraction(v, result.den) for v in result.farkas[-(n + 1):]]
        shift = sum(y) / len(y)
        witness = WeightVector(tuple(primitive_row([shift - v for v in y])))
        assert membership(f, witness, strict)
        return TorusDecision(True, strict, witness=witness)
    x = [Fraction(v, result.den) for v in result.x]
    weights = x if strict else [1 + v for v in x]
    total = sum(weights)
    lambdas = [w / total for w in weights]
    _ref_verify_barycentric(support, lambdas, n, d, not strict)
    cert = tuple((exp, lam) for exp, lam in zip(support, lambdas) if lam != 0)
    return TorusDecision(False, strict, certificate=cert)


@st.composite
def supports(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4))
    chosen = draw(st.lists(st.sampled_from(degree_monomials(n, d)), min_size=1, unique=True))
    return HomogeneousPoly.make(n, d, {exp: 1 for exp in chosen})


def test_matches_fraction_decision():
    """Drawn supports decide as the reference decides them, in both modes;
    and the draws reach every kind of answer in each mode."""
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(supports())
    def check(f):
        for strict in (True, False):
            decision = torus_destabilize(f, strict)
            assert decision.to_json() == reference_torus_destabilize(f, strict).to_json()
            if decision.feasible:
                r = decision.witness.r
                flat = all(sum(a * e for a, e in zip(r, exp)) == 0 for exp in f.support())
                seen.add((strict, "orthogonal" if flat else "witness"))
            elif f.d and len(decision.certificate) == f.n + 1 and all(
                max(exp) == f.d for exp, _ in decision.certificate
            ):
                seen.add((strict, "corners"))
            else:
                seen.add((strict, "certificate"))

    check()
    kinds = ("witness", "corners", "certificate")
    assert seen == {(s, kind) for s in (True, False) for kind in kinds} | {(False, "orthogonal")}

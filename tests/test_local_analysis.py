"""Multiplicity, tangent cones, Hessian ranks, and the singular scan."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab import (
    ProjectivePoint,
    RationalMatrix,
    WeightVector,
    analyze_point,
    apply_linear_change,
    essential_variable_count,
    hessian_rank_at,
    m0_threshold,
    mult_lower_bound_from_weights,
    multiplicity_at,
    parse_poly,
    rank_of_q,
    scan_singular_points,
)
from hypstab.local_analysis import (
    PointError,
    _cleared_partials,
    _scan_dtype,
    is_cone,
    tangent_cone_at,
)
from hypstab.polynomials import AffinePoly, HomogeneousPoly

from conftest import degree_monomials, random_cone_member, random_sorted_weights


def P(*coords):
    return ProjectivePoint.make(coords)


class TestProjectivePoint:
    def test_canonicalization(self):
        assert P(Fraction(1, 2), Fraction(1, 3), 0).coords == (3, 2, 0)
        assert P(-2, 4, -6).coords == (1, -2, 3)
        assert P(0, 0, 5).coords == (0, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(PointError):
            P(0, 0, 0)


class TestMultiplicity:
    def test_f2_at_q(self, corpus):
        assert multiplicity_at(corpus["f2"], P(0, 0, 1)) == 2

    def test_g3_both_points(self):
        g3 = parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3)
        assert multiplicity_at(g3, P(1, 0, 0, 0)) == 2
        assert multiplicity_at(g3, P(0, 0, 0, 1)) == 2

    def test_smooth_point(self, corpus):
        assert multiplicity_at(corpus["fermat_cubic"], P(1, -1, 0)) == 1

    def test_off_hypersurface_returns_zero(self, corpus):
        assert multiplicity_at(corpus["f2"], P(1, 1, 1)) == 0

    def test_cone_vertex_full_multiplicity(self):
        cone = parse_poly("x0^3 + x1^3 + x2^3", 3)
        assert multiplicity_at(cone, P(0, 0, 0, 1)) == 3

    def test_invariance_under_stabilizing_change(self, corpus, rng):
        f = corpus["f2"]
        q = P(0, 0, 1)
        for _ in range(10):
            rows = [
                [1, rng.randint(-2, 2), rng.randint(-2, 2)],
                [0, 1, rng.randint(-2, 2)],
                [0, 0, rng.choice([1, 2, -1])],
            ]
            sigma = RationalMatrix.from_rows(rows)
            g = apply_linear_change(f, sigma)
            assert multiplicity_at(g, q) == multiplicity_at(f, q)
            assert hessian_rank_at(g, q) == hessian_rank_at(f, q)


class TestMultiplicityBoundFromWeights:
    def test_f2_certificate(self):
        assert mult_lower_bound_from_weights(WeightVector((3, 1, -4)), 3, strict=True) == 2

    def test_nonstrict_case(self):
        assert mult_lower_bound_from_weights(WeightVector((1, 0, -1)), 3, strict=False) == 2

    def test_no_inequality_fires(self):
        assert mult_lower_bound_from_weights(WeightVector((2, -1, -1)), 3, strict=False) == 1

    def test_property_members_meet_bound(self, rng):
        last = P(0, 0, 1)
        for _ in range(200):
            n = rng.randint(2, 4)
            d = rng.choice([3, 4])
            strict = rng.random() < 0.5
            r = random_sorted_weights(rng, n)
            f = random_cone_member(rng, n, d, r, strict)
            if f is None:
                continue
            bound = mult_lower_bound_from_weights(r, d, strict)
            point = ProjectivePoint.make([0] * n + [1])
            assert multiplicity_at(f, point) >= bound, (f.terms, r.r)


class TestHessianRank:
    def test_f2(self, corpus):
        assert hessian_rank_at(corpus["f2"], P(0, 0, 1)) == (1, 1)

    def test_nodal_cubic(self, corpus):
        assert hessian_rank_at(corpus["nodal_cubic"], P(0, 0, 1)) == (2, 0)

    def test_g3(self):
        g3 = parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3)
        rank, corank = hessian_rank_at(g3, P(0, 0, 0, 1))
        assert (rank, corank) == (1, 2)

    def test_requires_multiplicity_two(self, corpus):
        with pytest.raises(PointError, match="multiplicity"):
            hessian_rank_at(corpus["fermat_cubic"], P(1, -1, 0))

    def test_coherence_with_rank_of_q(self, rng):
        # With no linear chart part, the chart quadratic part is exactly the
        # x_n^(d-2) coefficient.
        for _ in range(50):
            n = rng.randint(2, 4)
            d = rng.choice([3, 4])
            r = random_sorted_weights(rng, n)
            f = random_cone_member(rng, n, d, r, strict=False)
            if f is None:
                continue
            unit_last = tuple(int(j == n) for j in range(n + 1))
            has_linear = any(
                exp[n] == d - 1 and exp != unit_last for exp, _ in f.terms
            )
            if has_linear or rank_of_q(f) == 0:
                continue
            point = ProjectivePoint.make([0] * n + [1])
            if multiplicity_at(f, point) != 2:
                continue
            assert hessian_rank_at(f, point)[0] == rank_of_q(f)


class TestRankOfQ:
    def test_examples(self, corpus):
        g3 = parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3)
        assert rank_of_q(g3) == 1
        assert rank_of_q(corpus["f2"]) == 1
        assert rank_of_q(corpus["fermat_cubic"]) == 0

    def test_full_rank(self):
        f = parse_poly("x0^2*x2 + x1^2*x2 + x0^3", 2)
        assert rank_of_q(f) == 2

    def test_bounded_by_weight_threshold(self, rng):
        for _ in range(200):
            n = rng.randint(2, 5)
            d = rng.choice([3, 4])
            strict = rng.random() < 0.5
            r = random_sorted_weights(rng, n)
            f = random_cone_member(rng, n, d, r, strict)
            if f is None:
                continue
            # Strict members pair with the non-strict threshold and conversely.
            limit = m0_threshold(n, d, strict=not strict)
            assert rank_of_q(f) <= limit, (f.terms, r.r)


class TestM0Threshold:
    def test_examples(self):
        assert m0_threshold(3, 4, strict=True) == 2
        assert m0_threshold(3, 4, strict=False) == 1
        assert m0_threshold(2, 3, strict=True) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            m0_threshold(1, 3, strict=True)


class TestEssentialVariables:
    def test_product_is_cone_in_three_vars(self):
        h = AffinePoly.make(3, {(1, 1, 0): 1})
        assert essential_variable_count(h) == 2
        assert is_cone(h)

    def test_full_quadric_not_cone(self):
        h = AffinePoly.make(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        assert essential_variable_count(h) == 3
        assert not is_cone(h)

    def test_perfect_square_is_cone(self):
        h = AffinePoly.make(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert essential_variable_count(h) == 1
        assert is_cone(h)

    def test_zero_rejected(self):
        with pytest.raises(Exception):
            essential_variable_count(AffinePoly.make(2, {}))


class TestScan:
    def test_f2(self, corpus):
        scan = scan_singular_points(corpus["f2"], 2)
        assert [p.coords for p in scan.points] == [(0, 0, 1)]

    def test_g3(self):
        g3 = parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3)
        scan = scan_singular_points(g3, 2)
        assert [p.coords for p in scan.points] == [(0, 0, 0, 1), (1, 0, 0, 0)]

    def test_smooth_fermat(self, corpus):
        assert scan_singular_points(corpus["fermat_cubic"], 3).points == ()

    def test_finite_field_counts(self, corpus):
        scan = scan_singular_points(corpus["f2"], 2, field_sizes=(3, 5))
        # One rational singular point, isolated: small constant counts.
        assert scan.field_counts[3] >= 1
        assert scan.field_counts[5] >= 1

    def test_positive_dimensional_locus_shows_up(self):
        # x0^2 * x1 (as a cubic in P^2, via x0^2*x1): singular along x0 = 0.
        f = parse_poly("x0^2*x1", 2)
        scan = scan_singular_points(f, 2, field_sizes=(5,))
        assert len(scan.points) >= 3  # a line's worth of small points
        assert scan.field_counts[5] == 5 + 1  # P^1 over F_5


def _reference_scan(f, height_bound, primes):
    """The scan as a per-point loop: Fraction partials over the whole box,
    and each field's gradient zeros counted one point at a time."""
    nvars = f.n + 1
    partials = [f.partial_derivative(j) for j in range(nvars)]
    points = []
    for coords in product(range(-height_bound, height_bound + 1), repeat=nvars):
        if not any(coords) or gcd(*coords) != 1 or next(c for c in coords if c) < 0:
            continue
        if all(p.evaluate(coords) == 0 for p in partials):
            points.append(coords)
    counts = {}
    for p in primes:
        reduced = []
        for poly in partials:
            denom = lcm(*(c.denominator for _, c in poly.terms)) if poly.terms else 1
            reduced.append({exp: int(c * denom) % p for exp, c in poly.terms})
        count = 0
        for k in range(nvars):
            for tail in product(range(p), repeat=nvars - k - 1):
                point = (0,) * k + (1,) + tail
                for poly in reduced:
                    total = 0
                    for exp, c in poly.items():
                        v = c
                        for x, e in zip(point, exp):
                            v = v * pow(x, e, p) % p
                        total = (total + v) % p
                    if total != 0:
                        break
                else:
                    count += 1
        counts[p] = count
    return sorted(points), counts


def _dtype_for(f, height_bound):
    partials = [f.partial_derivative(j) for j in range(f.n + 1)]
    return _scan_dtype(*_cleared_partials(partials), height_bound)


class TestScanReference:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_points_and_counts_match_reference(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        d = data.draw(st.integers(min_value=2, max_value=4))
        h = data.draw(st.integers(min_value=1, max_value=2))
        monomials = data.draw(
            st.lists(st.sampled_from(degree_monomials(n, d)), min_size=1, max_size=4, unique=True)
        )
        coeffs = data.draw(
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(
                    lambda c: c.denominator > 1
                ),
                min_size=len(monomials),
                max_size=len(monomials),
            )
        )
        f = HomogeneousPoly.make(n, d, dict(zip(monomials, coeffs)))
        scan = scan_singular_points(f, h, field_sizes=(2, 3, 5))
        points, counts = _reference_scan(f, h, (2, 3, 5))
        assert [p.coords for p in scan.points] == points
        assert scan.field_counts == counts

    def test_object_dtype_above_int64(self):
        f = HomogeneousPoly.make(2, 3, {(2, 0, 1): 10000000000000000000, (0, 3, 0): 1})
        assert _dtype_for(f, 2) is object
        scan = scan_singular_points(f, 2, field_sizes=(3,))
        assert ([p.coords for p in scan.points], scan.field_counts) == _reference_scan(f, 2, (3,))

    def test_int64_just_below_bound(self):
        # Partials c*x1 and c*x0: the bound is c * h^1 with h = 1.
        c = 2**63 - 1
        f = HomogeneousPoly.make(2, 2, {(1, 1, 0): c})
        assert _dtype_for(f, 1) is np.int64
        assert _dtype_for(HomogeneousPoly.make(2, 2, {(1, 1, 0): c + 1}), 1) is object
        scan = scan_singular_points(f, 1)
        assert [p.coords for p in scan.points] == _reference_scan(f, 1, ())[0] == [(0, 0, 1)]

    @pytest.mark.parametrize("size", [0, 1, 4, 9, -2])
    def test_non_prime_field_rejected(self, corpus, size):
        with pytest.raises(ValueError, match="not a prime"):
            scan_singular_points(corpus["f2"], 1, field_sizes=(size,))


class TestAnalyzePoint:
    def test_local_data_fields(self, corpus):
        data = analyze_point(corpus["f2"], P(0, 0, 1))
        assert data.multiplicity == 2
        assert data.hessian_rank == 1 and data.hessian_corank == 1
        assert str(data.tangent_cone) == "x0^2"

    def test_tangent_cone_cubic_point(self):
        cone = parse_poly("x0^3 + x1^3 + x2^3", 3)
        data = analyze_point(cone, P(0, 0, 0, 1))
        assert data.multiplicity == 3
        assert data.hessian_rank is None
        assert not tangent_cone_at(cone, P(0, 0, 0, 1)).is_zero

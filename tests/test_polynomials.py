"""Polynomial core: parsing, formatting, calculus, coordinate changes."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab import (
    AffinePoly,
    HomogeneousPoly,
    PolyError,
    PolyParseError,
    RationalMatrix,
    apply_linear_change,
    dehomogenize_at_last,
    format_poly,
    parse_poly,
)
from hypstab.polynomials import parse_poly_infer

from conftest import degree_monomials


class TestParse:
    def test_spec_example(self):
        f = parse_poly("x0^2*x2 + x1^3", 2)
        assert f.as_dict() == {(2, 0, 1): Fraction(1), (0, 3, 0): Fraction(1)}
        assert (f.n, f.d) == (2, 3)

    def test_cancellation(self):
        f = parse_poly("x0^3 - x0^3 + x1^3", 1)
        assert f.as_dict() == {(0, 3): Fraction(1)}

    def test_inhomogeneous_rejected(self):
        with pytest.raises(PolyError, match="inhomogeneous"):
            parse_poly("x0^2 + x1^3", 1)

    def test_zero_rejected(self):
        with pytest.raises(PolyError, match="zero polynomial"):
            parse_poly("x0^3 - x0^3", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(PolyParseError, match="exceeds"):
            parse_poly("x0^2*x3", 2)

    def test_syntax_error_has_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x0^2 + + x1^2", 1)
        assert err.value.position == 7

    def test_missing_star_after_coefficient(self):
        with pytest.raises(PolyParseError):
            parse_poly("2x0^3", 1)

    def test_rational_coefficients(self):
        f = parse_poly("1/2*x0^2*x1 - 3*x1^3", 1)
        assert f.coefficient((2, 1)) == Fraction(1, 2)
        assert f.coefficient((0, 3)) == Fraction(-3)

    def test_leading_sign(self):
        f = parse_poly("-x0^3 + x1^3", 1)
        assert f.coefficient((3, 0)) == -1

    def test_repeated_variable_factors_multiply(self):
        f = parse_poly("x0*x0*x1", 1)
        assert f.as_dict() == {(2, 1): Fraction(1)}

    def test_infer_n(self):
        f = parse_poly_infer("x0^2*x3^2 + x0*x2^3 + x1^4")
        assert f.n == 3

    def test_whitespace_insignificant(self):
        assert parse_poly(" x0 ^ 2 * x2+x1^3", 2) == parse_poly("x0^2*x2 + x1^3", 2)


class TestFormat:
    def test_canonical_order(self):
        f = parse_poly("x1^3 + x0^2*x2", 2)
        assert format_poly(f) == "x0^2*x2 + x1^3"

    def test_signs_and_rationals(self):
        f = parse_poly("-1/2*x0^3 - x1^3", 1)
        assert format_poly(f) == "-1/2*x0^3 - x1^3"

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        d = data.draw(st.integers(min_value=1, max_value=4))
        monomials = degree_monomials(n, d)
        subset = data.draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=5, unique=True)
        )
        coeffs = data.draw(
            st.lists(
                st.fractions(min_value=-9, max_value=9).filter(lambda c: c != 0),
                min_size=len(subset),
                max_size=len(subset),
            )
        )
        f = HomogeneousPoly.make(n, d, dict(zip(subset, coeffs)))
        assert parse_poly(format_poly(f), n) == f


class TestCalculus:
    def test_partial_derivative_examples(self):
        f = parse_poly("x0^2*x2 + x1^3", 2)
        assert format_poly(f.partial_derivative(0)) == "2*x0*x2"
        assert format_poly(f.partial_derivative(2)) == "x0^2"
        g = parse_poly("x0^2*x2", 2)
        assert g.partial_derivative(1).is_zero

    def test_partial_derivative_index_error(self):
        with pytest.raises(PolyError):
            parse_poly("x0^3", 1).partial_derivative(2)

    def test_evaluate_examples(self):
        f = parse_poly("x0^2*x2 + x1^3", 2)
        assert f.evaluate((1, 1, 1)) == 2
        assert f.evaluate((0, 0, 1)) == 0
        assert parse_poly("x0*x1*x2", 2).evaluate((1, 2, 3)) == 6

    def test_evaluate_dimension_mismatch(self):
        with pytest.raises(PolyError):
            parse_poly("x0^3", 1).evaluate((1, 2, 3))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_evaluate_matches_fraction_reference(self, data):
        """The integer evaluation equals a term-by-term sum in Fraction
        arithmetic, for rational coefficients and rational points."""
        n = data.draw(st.integers(min_value=1, max_value=3))
        d = data.draw(st.integers(min_value=0, max_value=5))
        coeffs = data.draw(
            st.dictionaries(
                st.sampled_from(degree_monomials(n, d)),
                st.fractions(min_value=-20, max_value=20, max_denominator=12),
                max_size=6,
            )
        )
        f = HomogeneousPoly.make(n, d, coeffs)
        point = data.draw(
            st.lists(
                st.one_of(st.integers(-50, 50), st.fractions(-9, 9, max_denominator=15)),
                min_size=n + 1,
                max_size=n + 1,
            )
        )
        expected = Fraction(0)
        for exp, c in f.terms:
            term = c
            for x, e in zip(point, exp):
                term *= Fraction(x) ** e
            expected += term
        value = f.evaluate(point)
        assert isinstance(value, Fraction)
        assert value == expected

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_euler_relation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        d = data.draw(st.integers(min_value=1, max_value=4))
        monomials = degree_monomials(n, d)
        subset = data.draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=5, unique=True)
        )
        f = HomogeneousPoly.make(n, d, {e: 1 for e in subset})
        total = HomogeneousPoly.make(n, d, {})
        for j in range(n + 1):
            xj = HomogeneousPoly.make(n, 1, {tuple(int(k == j) for k in range(n + 1)): 1})
            total = total + xj * f.partial_derivative(j)
        assert total == f.scale(d)


class TestDehomogenize:
    def test_spec_examples(self):
        chart = dehomogenize_at_last(parse_poly("x0^2*x2 + x1^3", 2))
        assert chart.as_dict() == {(2, 0): Fraction(1), (0, 3): Fraction(1)}
        fermat = dehomogenize_at_last(parse_poly("x0^3 + x1^3 + x2^3", 2))
        assert fermat.coefficient((0, 0)) == 1
        g3 = dehomogenize_at_last(parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3))
        assert g3.as_dict() == {
            (2, 0, 0): Fraction(1),
            (1, 0, 3): Fraction(1),
            (0, 4, 0): Fraction(1),
        }


def _unipotent(n, entries, upper):
    size = n + 1
    rows = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    k = 0
    for i in range(size):
        js = range(i + 1, size) if upper else range(0, i)
        for j in js:
            rows[i][j] = Fraction(entries[k % len(entries)])
            k += 1
    return RationalMatrix.from_rows(rows)


class TestLinearChange:
    def test_identity(self):
        f = parse_poly("x0^2*x2 + x1^3", 2)
        assert apply_linear_change(f, RationalMatrix.identity(3)) == f

    def test_swap_example(self):
        f = parse_poly("x0*x2*x3 + x1^3", 3)
        sigma = RationalMatrix.permutation([0, 2, 1, 3])
        assert format_poly(apply_linear_change(f, sigma)) == "x0*x1*x3 + x2^3"

    def test_diagonal_example(self):
        f = parse_poly("x0^2*x1 + x1^2*x2", 2)
        sigma = RationalMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        assert format_poly(apply_linear_change(f, sigma)) == "2*x0^2*x1 + 4*x1^2*x2"

    def test_singular_matrix_rejected(self):
        f = parse_poly("x0^3", 1)
        with pytest.raises(Exception, match="invertible"):
            apply_linear_change(f, RationalMatrix.from_rows([[1, 1], [1, 1]]))

    def test_size_mismatch_rejected(self):
        f = parse_poly("x0^3", 1)
        with pytest.raises(Exception, match="size"):
            apply_linear_change(f, RationalMatrix.identity(3))

    def test_distributes_over_addition(self):
        f = parse_poly("x0^2*x1", 2)
        g = parse_poly("x1^2*x2", 2)
        sigma = _unipotent(2, [1, -2, 3], upper=True)
        assert apply_linear_change(f + g, sigma) == apply_linear_change(
            f, sigma
        ) + apply_linear_change(g, sigma)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_group_action_composition(self, data):
        n = data.draw(st.integers(min_value=2, max_value=3))
        d = data.draw(st.integers(min_value=2, max_value=3))
        monomials = degree_monomials(n, d)
        subset = data.draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True)
        )
        f = HomogeneousPoly.make(n, d, {e: 1 for e in subset})
        ints = st.integers(min_value=-2, max_value=2)
        u1 = data.draw(st.lists(ints, min_size=3, max_size=6))
        u2 = data.draw(st.lists(ints, min_size=3, max_size=6))
        sigma = _unipotent(n, u1 or [1], upper=True)
        tau = _unipotent(n, u2 or [1], upper=False)
        lhs = apply_linear_change(apply_linear_change(f, tau), sigma)
        rhs = apply_linear_change(f, sigma @ tau)
        assert lhs == rhs


class TestAffinePoly:
    def test_homogeneous_components(self):
        chart = dehomogenize_at_last(parse_poly("x0^2*x2 + x1^3", 2))
        assert chart.min_degree() == 2
        assert chart.homogeneous_component(2).as_dict() == {(2, 0): Fraction(1)}

    def test_constant_formatting(self):
        chart = dehomogenize_at_last(parse_poly("x0^3 + x2^3", 2))
        assert format_poly(chart) == "x0^3 + 1"

    def test_zero_polynomial_guards(self):
        zero = AffinePoly.make(2, {})
        assert zero.is_zero
        with pytest.raises(PolyError):
            zero.min_degree()

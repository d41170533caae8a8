"""Exact matrix operations, fraction-free rank, nullspace and coordinate
changes."""
from __future__ import annotations

import gc
import re
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypstab import HomogeneousPoly, ProjectivePoint, RationalMatrix, analyze_point
from hypstab.linalg import (
    MatrixError,
    apply_linear_change,
    integer_rank,
    matrix_moving_point_last,
    matrix_product,
    nullspace_basis,
    nullspace_vector,
    permutation_rows,
    rational_rank,
    transformed_supports,
)

from conftest import (
    degree_monomials,
    reference_is_invertible,
    reference_matmul,
    reference_product,
)


class TestRationalMatrix:
    def test_identity_and_permutation(self):
        eye = RationalMatrix.identity(3)
        assert (eye.scale, eye.ints) == (1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        perm = RationalMatrix(1, permutation_rows([2, 1, 0]))
        assert reference_product(perm, perm) == eye

    def test_permutation_column_convention(self):
        # x_j -> x_{images[j]}: column j carries the unit vector at images[j].
        perm = RationalMatrix(1, permutation_rows([1, 2, 0]))
        columns = list(zip(*perm.rows))
        assert columns[0] == (0, 1, 0)
        assert columns[1] == (0, 0, 1)

    def test_inverse_and_singular_refused(self):
        m = RationalMatrix.from_rows([[2, 1], [1, 1]])
        inv = RationalMatrix.from_rows([[1, -1], [-1, 2]])
        assert reference_product(inv, m) == RationalMatrix.identity(2)
        with pytest.raises(MatrixError, match="^coordinate change must be invertible$"):
            RationalMatrix.from_rows([[1, 2], [2, 4]])

    def test_fraction_entries(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(3)]])
        assert (m.scale, m.ints) == (2, ((1, 0), (0, 6)))
        # 1/2 * 1 - 1/3 * 3/2 = 0.
        with pytest.raises(MatrixError, match="^coordinate change must be invertible$"):
            RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "empty matrix"),
            ([[]], "coordinate change must be square"),
            ([[1, 2]], "coordinate change must be square"),
            ([[1], [2]], "coordinate change must be square"),
            ([[1, 0], [0]], "coordinate change must be square"),
            ([[1, 0], [0, 1, 0]], "coordinate change must be square"),
            ([[0]], "coordinate change must be invertible"),
        ],
    )
    def test_empty_non_square_and_singular_refused(self, rows, message):
        with pytest.raises(MatrixError, match=f"^{message}$"):
            RationalMatrix.from_rows(rows)
        ints = tuple(tuple(row) for row in rows)
        with pytest.raises(MatrixError, match=f"^{message}$"):
            RationalMatrix(1, ints)

    def test_product_sizes_must_match(self):
        with pytest.raises(MatrixError, match="dimension mismatch"):
            matrix_product(RationalMatrix.identity(2).ints, RationalMatrix.identity(3).ints)

    def test_string_round_trip(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), -1], [3, 0]])
        assert RationalMatrix.from_rows(m.to_strings()) == m

    def test_canonical_integer_form(self):
        # The same matrix from ints, Fractions and strings: equal fields, equal hash.
        from_ints = RationalMatrix.from_rows([[2, 0], [-1, 3]])
        from_fracs = RationalMatrix.from_rows([[Fraction(4, 2), Fraction(0)], [Fraction(-3, 3), Fraction(3)]])
        from_strs = RationalMatrix.from_rows([["2", "0/5"], ["-2/2", "3"]])
        assert from_ints == from_fracs == from_strs
        assert hash(from_ints) == hash(from_fracs) == hash(from_strs)
        assert (from_ints.scale, from_ints.ints) == (1, ((2, 0), (-1, 3)))
        half = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, "-5/6"]])
        assert (half.scale, half.ints) == (6, ((3, 2), (0, -5)))
        assert half.rows == ((Fraction(1, 2), Fraction(1, 3)), (0, Fraction(-5, 6)))
        assert RationalMatrix.from_rows(half.rows) == half
        # A product is reduced to the same canonical form.
        double = RationalMatrix.from_rows([[2, 0], [0, 2]])
        product = matrix_product(half.ints, double.ints, half.scale * double.scale)
        assert product == RationalMatrix.from_rows([[1, Fraction(2, 3)], [0, Fraction(-5, 3)]])
        assert hash(product) == hash(RationalMatrix.from_rows([[1, Fraction(2, 3)], [0, Fraction(-5, 3)]]))

    def test_non_permutation_rejected(self):
        with pytest.raises(MatrixError):
            permutation_rows([0, 0, 1])


class TestRank:
    def test_integer_rank_basic(self):
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[1, 0], [0, 1]]) == 2
        assert integer_rank([[0, 0], [0, 0]]) == 0

    def test_rational_rank_scaling_invariance(self):
        rows = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 7), Fraction(2, 7)]]
        assert rational_rank(rows) == 1

    def test_rank_rectangular(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert integer_rank(rows) == 2

    def test_rank_needs_column_skips(self):
        rows = [[0, 1, 2], [0, 2, 4], [0, 0, 5]]
        assert integer_rank(rows) == 2


def test_linear_change_leaves_no_cyclic_garbage():
    f = HomogeneousPoly.make(
        2, 4, {(2, 0, 2): 1, (1, 3, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    )
    sigma = RationalMatrix.from_rows([[1, 2, 0], [-1, 1, 3], [2, 0, 1]])
    gc.collect()
    gc.disable()
    try:
        apply_linear_change(f, sigma)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestPointMove:
    def test_last_coordinate_point_gives_identity(self):
        assert matrix_moving_point_last([0, 0, 1]) == RationalMatrix.identity(3)

    def test_general_point(self):
        sigma = matrix_moving_point_last([1, 0, 0, 0])
        assert sigma.rows[-1] == (1, 0, 0, 0)
        assert reference_is_invertible(sigma.rows)

    def test_zero_vector_rejected(self):
        with pytest.raises(MatrixError):
            matrix_moving_point_last([0, 0, 0])

    def test_integer_matrix_built_directly(self):
        sigma = matrix_moving_point_last([np.int64(0), 3, -2])
        assert sigma == RationalMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 3, -2]])
        assert sigma.scale == 1 and all(type(v) is int for row in sigma.ints for v in row)

    @pytest.mark.parametrize(
        "coords, shown",
        [
            ([Fraction(1, 2), 1, 1], "Fraction(1, 2)"),
            ([1, Fraction(4, 1), 1], "Fraction(4, 1)"),
            ([2, 1.0, 0], "1.0"),
            ([0, 0, "1"], "'1'"),
        ],
    )
    def test_non_integer_coordinate_rejected(self, coords, shown):
        # int() would truncate [1/2, 1, 1] to [0, 1, 1], another point.
        j = next(j for j, c in enumerate(coords) if type(c) is not int)
        with pytest.raises(MatrixError, match=f"coordinate {j} .*: {re.escape(shown)}$"):
            matrix_moving_point_last(coords)

    def test_analyze_point_refuses_a_fraction_coordinate(self):
        # -4*x0^2 + x1^2 vanishes at [1/2 : 1 : 1], so the analysis reaches
        # the coordinate change.
        f = HomogeneousPoly.make(2, 2, {(2, 0, 0): -4, (0, 2, 0): 1})
        point = ProjectivePoint((Fraction(1, 2), 1, 1))
        assert f.evaluate(point.coords) == 0
        with pytest.raises(MatrixError, match=r"coordinate 0 .*: Fraction\(1, 2\)$"):
            analyze_point(f, point)


# --- differential tests against the Fraction implementations ---------------
#
# Copies of the Fraction code that the integer kernels replaced; results must
# be exactly equal.


def reference_nullspace_basis(rows):
    """Gauss-Jordan to reduced echelon form; per free column c, the solution
    with x_c = 1 and the other free variables 0."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append((row, col))
        row += 1
        if row == len(m):
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, c in pivots:
            x[c] = -m[r][free]
        basis.append(x)
    return basis


def reference_nullspace_vector(rows):
    return next(iter(reference_nullspace_basis(rows)), None)


def reference_apply_linear_change(f, sigma):
    size = f.n + 1

    def unit(k):
        return tuple(int(i == k) for i in range(size))

    def times(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return out

    forms = [{unit(k): col[k] for k in range(size) if col[k] != 0} for col in zip(*sigma.rows)]
    acc = {}
    for exp, coeff in f.terms:
        prod = {tuple([0] * size): Fraction(1)}
        for j, t in enumerate(exp):
            for _ in range(t):
                prod = times(prod, forms[j])
        for e, c in prod.items():
            acc[e] = acc.get(e, Fraction(0)) + coeff * c
    return HomogeneousPoly.make(f.n, f.d, acc)


def rationals(bound, max_den):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, max_den))


@st.composite
def low_rank_matrices(draw, max_dens=(1, 5)):
    """Integer or rational matrices, often taller or wider than square, whose
    rows are combinations of a few random rows."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 8))
    max_den = draw(st.sampled_from(max_dens))
    entries = rationals(4, max_den)
    base = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(draw(st.integers(1, min(nrows, ncols + 1))))]
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(ncols)])
    return rows


def reference_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            factor = m[r][col] / m[rank][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@given(low_rank_matrices(max_dens=[1]))
@settings(max_examples=200, deadline=None)
def test_integer_rank_matches_fraction_elimination(rows):
    ints = [[int(v) for v in row] for row in rows]
    assert integer_rank(ints) == reference_rank(ints)


@given(low_rank_matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_basis_matches_fraction_elimination(rows):
    basis = nullspace_basis(rows)
    assert basis == reference_nullspace_basis(rows)
    assert len(basis) == len(rows[0]) - rational_rank(rows)
    for x in basis:
        assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in rows)


@given(low_rank_matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_matches_fraction_elimination(rows):
    x = nullspace_vector(rows)
    assert x == reference_nullspace_vector(rows)
    if x is not None:
        assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in rows)
    assert (x is None) == (rational_rank(rows) == len(rows[0]))


@st.composite
def invertible_matrices(draw, size, max_den=4):
    rows = [draw(st.lists(rationals(3, max_den), min_size=size, max_size=size)) for _ in range(size)]
    assume(reference_is_invertible(rows))
    return RationalMatrix.from_rows(rows)


@st.composite
def forms_and_changes(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    support = draw(st.lists(st.sampled_from(degree_monomials(n, d)), min_size=1, max_size=5, unique=True))
    f = HomogeneousPoly.make(n, d, {e: draw(rationals(5, 6).filter(bool)) for e in support})
    return f, draw(invertible_matrices(n + 1)), draw(invertible_matrices(n + 1))


@given(forms_and_changes())
@settings(max_examples=60, deadline=None)
def test_linear_change_matches_fraction_expansion(case):
    f, sigma, tau = case
    g = apply_linear_change(f, sigma)
    assert g == reference_apply_linear_change(f, sigma)
    assert apply_linear_change(g, tau) == apply_linear_change(f, reference_product(tau, sigma))


def matrix_entries(max_den):
    """Zero, integers and (with max_den > 1) non-integer rationals."""
    return st.one_of(st.just(Fraction(0)), rationals(6, 1), rationals(6, max_den))


@st.composite
def matrices(draw, nrows, ncols):
    max_den = draw(st.sampled_from([1, 2, 7]))
    return [draw(st.lists(matrix_entries(max_den), min_size=ncols, max_size=ncols))
            for _ in range(nrows)]


@st.composite
def square_matrices(draw):
    """Sizes 1-5; about half are made singular, by a zero column or by a row
    that is a rational combination of the others."""
    size = draw(st.integers(1, 5))
    rows = draw(matrices(size, size))
    kind = draw(st.sampled_from(["any", "zero-column", "dependent-row"]))
    if kind == "zero-column":
        j = draw(st.integers(0, size - 1))
        for row in rows:
            row[j] = Fraction(0)
    elif kind == "dependent-row" and size > 1:
        coeffs = draw(st.lists(rationals(3, 3), min_size=size - 1, max_size=size - 1))
        i = draw(st.integers(0, size - 1))
        others = rows[:i] + rows[i + 1:]
        rows[i] = [sum(c * row[j] for c, row in zip(coeffs, others)) for j in range(size)]
    return rows


@st.composite
def non_square_matrices(draw):
    """1-5 rows, either all of one length other than their number or of
    lengths 0-6 that are not all equal to it."""
    nrows = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return draw(matrices(nrows, draw(st.integers(1, 6).filter(lambda c: c != nrows))))
    lengths = draw(st.lists(st.integers(0, 6), min_size=nrows, max_size=nrows)
                   .filter(lambda ls: any(n != nrows for n in ls)))
    return [draw(matrices(1, n))[0] for n in lengths]


@given(st.one_of(square_matrices(), non_square_matrices()))
@settings(max_examples=300, deadline=None)
def test_construction_refuses_exactly_the_singular_and_non_square(rows):
    # Construction refuses exactly what the Fraction reference calls
    # singular or non-square, from rows and from stored integers alike.
    square = all(len(row) == len(rows) for row in rows)
    if reference_is_invertible(rows):
        sigma = RationalMatrix.from_rows(rows)
        assert sigma.rows == tuple(map(tuple, rows))
        assert RationalMatrix(sigma.scale, sigma.ints) == sigma
        return
    message = "invertible" if square else "square"
    with pytest.raises(MatrixError, match=f"^coordinate change must be {message}$"):
        RationalMatrix.from_rows(rows)
    scale = lcm(*(Fraction(v).denominator for row in rows for v in row))
    with pytest.raises(MatrixError, match=f"^coordinate change must be {message}$"):
        RationalMatrix(scale, tuple(tuple(int(v * scale) for v in row) for row in rows))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_product_matches_fraction_product(data):
    size = data.draw(st.integers(1, 5))
    a, b = data.draw(matrices(size, size)), data.draw(matrices(size, size))
    assume(reference_is_invertible(a) and reference_is_invertible(b))
    left, right = RationalMatrix.from_rows(a), RationalMatrix.from_rows(b)
    product = matrix_product(left.ints, right.ints, left.scale * right.scale)
    assert product.rows == reference_matmul(a, b)
    assert all(type(v) is Fraction for row in product.rows for v in row)


@st.composite
def rational_forms_and_scaled_changes(draw):
    """A form whose denominators have an lcm above 1, and an invertible
    change with a non-integer entry, so that its stored scale is above 1."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    support = draw(st.lists(st.sampled_from(degree_monomials(n, d)), min_size=1, max_size=6, unique=True))
    coeffs = [draw(rationals(7, 6).filter(bool)) for _ in support]
    coeffs[0] = Fraction(draw(st.sampled_from([-5, -1, 1, 3])), draw(st.sampled_from([2, 4, 9])))
    f = HomogeneousPoly.make(n, d, dict(zip(support, coeffs)))
    sigma = draw(invertible_matrices(n + 1, max_den=6).filter(lambda m: m.scale > 1))
    return f, sigma


def fraction_expansion(f, sigma):
    """f(x sigma) term by term: each coefficient times the product of the
    linear forms sum_k sigma[k][j] x_k, one factor per power, in Fractions."""
    size = f.n + 1
    rows = sigma.rows
    acc = {}
    for exp, coeff in f.terms:
        prod = {(0,) * size: coeff}
        for j, t in enumerate(exp):
            for _ in range(t):
                nxt = {}
                for e, c in prod.items():
                    for k in range(size):
                        if rows[k][j]:
                            key = e[:k] + (e[k] + 1,) + e[k + 1:]
                            nxt[key] = nxt.get(key, Fraction(0)) + c * rows[k][j]
                prod = nxt
        for e, c in prod.items():
            acc[e] = acc.get(e, Fraction(0)) + c
    return {e: c for e, c in acc.items() if c}


@given(rational_forms_and_scaled_changes())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_rational_change_matches_term_by_term_fractions(case):
    f, sigma = case
    assert f.integer_view.scale > 1 and sigma.scale > 1
    g = apply_linear_change(f, sigma)
    assert dict(g.terms) == fraction_expansion(f, sigma)
    assert list(g.terms) == sorted(g.terms, key=lambda t: (sum(t[0]), t[0]), reverse=True)


@given(forms_and_changes())
@settings(max_examples=60, deadline=None)
def test_linear_change_terms_are_canonical(case):
    f, sigma, _ = case
    g = apply_linear_change(f, sigma)
    assert g.terms == HomogeneousPoly.make(g.n, g.d, dict(g.terms)).terms
    for exp, c in g.terms:
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
        assert sum(exp) == g.d and len(exp) == g.nvars


@st.composite
def forms_and_frames(draw):
    """A form with n in 1..4, d in 1..5 and rational coefficients, and 1-6
    invertible frames, integer or rational."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    support = draw(st.lists(st.sampled_from(degree_monomials(n, d)), min_size=1, max_size=8, unique=True))
    f = HomogeneousPoly.make(n, d, {e: draw(rationals(5, 6).filter(bool)) for e in support})
    frame = st.one_of(invertible_matrices(n + 1, max_den=1), invertible_matrices(n + 1))
    return f, draw(st.lists(frame, min_size=1, max_size=6))


@given(forms_and_frames())
@settings(max_examples=80, deadline=None)
def test_transformed_supports_match_linear_change(case):
    f, sigmas = case
    assert transformed_supports(f, sigmas) == [apply_linear_change(f, s).support() for s in sigmas]


@given(st.integers(1, 5).flatmap(invertible_matrices))
@settings(max_examples=30, deadline=None)
def test_singular_frame_is_refused_at_construction(sigma):
    # An invertible frame with its last row replaced by the sum of the
    # others (zero for one row) is refused before any expansion can see it.
    ints = list(sigma.ints)
    ints[-1] = tuple(sum(row[j] for row in ints[:-1]) for j in range(len(ints)))
    with pytest.raises(MatrixError, match="^coordinate change must be invertible$"):
        RationalMatrix(sigma.scale, tuple(ints))
    with pytest.raises(MatrixError, match="^coordinate change must be invertible$"):
        RationalMatrix.from_rows([[Fraction(v, sigma.scale) for v in row] for row in ints])


@given(forms_and_frames(), st.integers(0, 2**10))
@settings(max_examples=30, deadline=None)
def test_transformed_supports_exact_beyond_int64(case, offset):
    # Only examples whose bound sum |c| * M^d reaches 2^63 are kept, so the
    # expansion runs on Python ints.
    f, sigmas = case
    big = HomogeneousPoly.make(f.n, f.d, {e: c * (2**62 + offset) for e, c in f.terms})
    fden = lcm(*(c.denominator for _, c in big.terms))
    column_sum = max(sum(abs(v) for v in col) for s in sigmas for col in zip(*s.ints))
    assume(sum(abs(c * fden) for _, c in big.terms) * column_sum**big.d >= 2**63)
    assert transformed_supports(big, sigmas) == [apply_linear_change(big, s).support() for s in sigmas]


def test_transformed_supports_keep_a_coefficient_int64_would_wrap():
    # 2^62 * x0^2*x1 under x0 -> 4*x0 is 2^66 * x0^2*x1, which is 0 mod 2^64.
    f = HomogeneousPoly.make(1, 3, {(2, 1): 2**62})
    sigma = RationalMatrix.from_rows([[4, 0], [0, 1]])
    assert transformed_supports(f, [sigma]) == [((2, 1),)] == [apply_linear_change(f, sigma).support()]

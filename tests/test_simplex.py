"""Exact phase-1 simplex unit tests: feasible points, Farkas certificates,
redundant rows, negative right-hand sides, degeneracy.  The solver returns
integer numerators over one denominator; the tests read them as rationals."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab.simplex import SimplexError, solve_lp


def rational(values, den):
    """Integer numerators over ``den`` as Fractions (None stays None)."""
    return None if values is None else [Fraction(v, den) for v in values]


def solve_rational(A, b):
    """``solve_lp`` with its results read as rationals: (x, farkas)."""
    result = solve_lp(A, b)
    assert type(result.den) is int and result.den > 0
    for values in (result.x, result.farkas):
        assert values is None or all(type(v) is int for v in values)
    return rational(result.x, result.den), rational(result.farkas, result.den)


def test_infeasible():
    # x + y = -1 with x, y >= 0
    x, farkas = solve_rational([[1, 1]], [-1])
    assert x is None
    assert farkas == [Fraction(-1)]


def test_infeasible_conflicting_equalities():
    result = solve_lp([[1, 0], [1, 0]], [1, 2])
    assert result.x is None


def test_redundant_rows_dropped():
    # Duplicate constraint leaves a basic artificial at zero.
    A = [[1, 1], [1, 1], [1, 0]]
    x, _ = solve_rational(A, [3, 3, 1])
    assert x == [Fraction(1), Fraction(2)]


def test_exact_fractions():
    # 3x = 1
    x, _ = solve_rational([[3]], [1])
    assert x == [Fraction(1, 3)]


def test_degenerate_cycling_guard():
    # Beale's classic cycling example (with slacks), rows scaled to integers;
    # every pivot on its zero rows is degenerate, and Bland's rule must end.
    A = [
        [1, -32, -4, 36, 4, 0, 0],
        [1, -24, -1, 6, 0, 2, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    x, _ = solve_rational(A, [0, 0, 1])
    assert all(v >= 0 for v in x)
    assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, [0, 0, 1]))


def test_negative_rhs_normalization():
    # -x = -2  <=>  x = 2
    x, _ = solve_rational([[-1]], [-2])
    assert x == [2]


@pytest.mark.parametrize(
    "A, b",
    [([], []), ([[1, 2]], [1, 2]), ([[1, 2], [1]], [1, 1]), ([[Fraction(1, 2)]], [1]), ([[1]], [0.5])],
)
def test_malformed_input_rejected(A, b):
    with pytest.raises(SimplexError):
        solve_lp(A, b)


# --- differential test against the Fraction tableau --------------------------
#
# Phase 1 over Fractions, as the fraction-free tableau's rational twin.  The
# integer pivots keep Bland's pivot sequence, so x and the Farkas vector,
# read as numerators over the solver's denominator, must both be exactly
# equal to the reference's Fractions.


def _ref_pivot(rows, cost, basis, r, c):
    pivot_val = rows[r][c]
    rows[r] = [v / pivot_val for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            factor = row[c]
            rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
    if cost[c] != 0:
        factor = cost[c]
        for j in range(len(cost)):
            cost[j] -= factor * rows[r][j]
    basis[r] = c


def reference_solve_lp(A, b):
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    m, nv = len(rows), len(rows[0])
    flips = [False] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flips[i] = True
    total = nv + m
    tableau = [rows[i] + [Fraction(int(k == i)) for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [nv + i for i in range(m)]
    cost = [Fraction(0)] * nv + [Fraction(1)] * m + [Fraction(0)]
    for row in tableau:
        for j in range(total + 1):
            cost[j] -= row[j]
    while True:
        entering = next((j for j in range(total) if cost[j] < 0), None)
        if entering is None:
            break
        best_ratio = None
        leaving = None
        for i, row in enumerate(tableau):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        assert leaving is not None, "phase 1 is bounded below"
        _ref_pivot(tableau, cost, basis, leaving, entering)
    if -cost[-1] != 0:
        farkas = [(-(1 - cost[nv + i]) if flips[i] else (1 - cost[nv + i])) for i in range(m)]
        return None, farkas
    x = [Fraction(0)] * nv
    for i, row in enumerate(tableau):
        if basis[i] < nv:
            x[basis[i]] = row[-1]
    return x, None


@st.composite
def lp_problems(draw):
    m = draw(st.integers(1, 5))
    nv = draw(st.integers(1, 8))
    A = [draw(st.lists(st.integers(-6, 6), min_size=nv, max_size=nv)) for _ in range(m)]
    if draw(st.booleans()):
        # Feasible by construction: b = A x0 for some integer x0 >= 0.
        x0 = draw(st.lists(st.integers(0, 4), min_size=nv, max_size=nv))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m))
    # Redundant rows: integer multiples of earlier rows, rhs included.
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(A) - 1))
        factor = draw(st.integers(-3, 3).filter(bool))
        A.append([factor * v for v in A[k]])
        b.append(factor * b[k])
    return A, b


@given(lp_problems())
@settings(max_examples=400, deadline=None)
def test_matches_fraction_tableau(problem):
    A, b = problem
    x, farkas = solve_rational(A, b)
    assert (x, farkas) == reference_solve_lp(A, b)
    assert (x is None) != (farkas is None)
    if x is None:
        assert all(sum(yi * row[j] for yi, row in zip(farkas, A)) <= 0 for j in range(len(A[0])))
        assert sum(yi * bi for yi, bi in zip(farkas, b)) > 0
    else:
        assert all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))

"""Exact simplex unit tests: optima, infeasibility, unboundedness, degeneracy."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, solve_lp


def test_simple_optimum():
    # min -x - y  s.t.  x + y + s = 4
    result = solve_lp([[1, 1, 1]], [4], [-1, -1, 0])
    assert result.status == OPTIMAL
    assert result.objective == -4


def test_two_constraints():
    # min -3x - 5y  s.t.  x + s1 = 4, 2y + s2 = 12, 3x + 2y + s3 = 18
    A = [[1, 0, 1, 0, 0], [0, 2, 0, 1, 0], [3, 2, 0, 0, 1]]
    result = solve_lp(A, [4, 12, 18], [-3, -5, 0, 0, 0])
    assert result.status == OPTIMAL
    assert result.objective == -36
    assert result.x[0] == 2 and result.x[1] == 6


def test_infeasible():
    # x + y = -1 with x, y >= 0
    result = solve_lp([[1, 1]], [-1], [0, 0])
    assert result.status == INFEASIBLE


def test_infeasible_conflicting_equalities():
    result = solve_lp([[1, 0], [1, 0]], [1, 2], [0, 0])
    assert result.status == INFEASIBLE


def test_unbounded():
    # min -x  s.t.  x - y = 0 (x = y can grow forever)
    result = solve_lp([[1, -1]], [0], [-1, 0])
    assert result.status == UNBOUNDED


def test_redundant_rows_dropped():
    # Duplicate constraint leaves a basic artificial at zero.
    A = [[1, 1], [1, 1], [1, 0]]
    result = solve_lp(A, [3, 3, 1], [0, -1])
    assert result.status == OPTIMAL
    assert result.x == [Fraction(1), Fraction(2)]


def test_exact_fractions():
    # min x  s.t.  3x = 1
    result = solve_lp([[3]], [1], [1])
    assert result.status == OPTIMAL
    assert result.x[0] == Fraction(1, 3)


def test_degenerate_cycling_guard():
    # Beale's classic cycling example (with slacks); Bland's rule must end.
    A = [
        [Fraction(1, 4), -8, -1, 9, 1, 0, 0],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    c = [Fraction(-3, 4), 20, Fraction(-1, 2), 6, 0, 0, 0]
    result = solve_lp(A, b, c)
    assert result.status == OPTIMAL
    assert result.objective == Fraction(-5, 4)


def test_negative_rhs_normalization():
    # -x = -2  <=>  x = 2
    result = solve_lp([[-1]], [-2], [1])
    assert result.status == OPTIMAL
    assert result.x[0] == 2


# --- differential test against the Fraction tableau --------------------------
#
# A copy of the Fraction simplex that the fraction-free tableau replaced.  The
# integer pivots keep Bland's pivot sequence, so status, x, objective and the
# Farkas vector must all be exactly equal.


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


def _ref_iterate(rows, cost, basis, ncols):
    while True:
        entering = next((j for j in range(ncols) if cost[j] < 0), None)
        if entering is None:
            return OPTIMAL
        best_ratio = None
        leaving = None
        for i, row in enumerate(rows):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _ref_pivot(rows, cost, basis, leaving, entering)


def reference_solve_lp(A, b, c):
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    obj = [Fraction(v) for v in c]
    m, nv = len(rows), len(obj)
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
    assert _ref_iterate(tableau, cost, basis, total) == OPTIMAL
    if -cost[-1] != 0:
        farkas = [(-(1 - cost[nv + i]) if flips[i] else (1 - cost[nv + i])) for i in range(m)]
        return LPResult(INFEASIBLE, farkas=farkas)
    keep = []
    for i in range(m):
        if basis[i] >= nv:
            col = next((j for j in range(nv) if tableau[i][j] != 0), None)
            if col is None:
                continue
            _ref_pivot(tableau, cost, basis, i, col)
        keep.append(i)
    tableau = [tableau[i][:nv] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost2 = list(obj) + [Fraction(0)]
    for i, row in enumerate(tableau):
        if cost2[basis[i]] != 0:
            factor = cost2[basis[i]]
            for j in range(nv + 1):
                cost2[j] -= factor * row[j]
    if _ref_iterate(tableau, cost2, basis, nv) == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * nv
    for i, row in enumerate(tableau):
        x[basis[i]] = row[-1]
    return LPResult(OPTIMAL, x, sum((ci * xi for ci, xi in zip(obj, x)), Fraction(0)))


def rationals(bound, max_den):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, max_den))


@st.composite
def lp_problems(draw):
    m = draw(st.integers(1, 5))
    nv = draw(st.integers(1, 8))
    A = [draw(st.lists(rationals(4, 6), min_size=nv, max_size=nv)) for _ in range(m)]
    if draw(st.booleans()):
        # Feasible by construction: b = A x0 for some x0 >= 0.
        x0 = draw(st.lists(rationals(3, 3).map(abs), min_size=nv, max_size=nv))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = draw(st.lists(rationals(6, 4), min_size=m, max_size=m))
    # Redundant rows: rational multiples of earlier rows, rhs included.
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(A) - 1))
        factor = draw(rationals(3, 4).filter(bool))
        A.append([factor * v for v in A[k]])
        b.append(factor * b[k])
    c = draw(st.lists(rationals(5, 7), min_size=nv, max_size=nv))
    return A, b, c


@given(lp_problems())
@settings(max_examples=400, deadline=None)
def test_matches_fraction_tableau(problem):
    A, b, c = problem
    result = solve_lp(A, b, c)
    expected = reference_solve_lp(A, b, c)
    assert result.status == expected.status
    assert result.x == expected.x
    assert result.objective == expected.objective
    assert result.farkas == expected.farkas
    if result.status == INFEASIBLE:
        y = result.farkas
        assert all(sum(yi * row[j] for yi, row in zip(y, A)) <= 0 for j in range(len(c)))
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0
    if result.status == OPTIMAL:
        assert all(v >= 0 for v in result.x)
        assert all(sum(a * x for a, x in zip(row, result.x)) == bi for row, bi in zip(A, b))


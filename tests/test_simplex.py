"""Exact simplex unit tests: optima, infeasibility, unboundedness, degeneracy."""
from __future__ import annotations

from fractions import Fraction

from hypstab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


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


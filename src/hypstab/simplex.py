"""Exact two-phase simplex over the rationals with Bland's pivoting rule.

Solves ``min c.x  subject to  A x = b, x >= 0`` in exact arithmetic.  Bland's
rule (lowest eligible index enters, ties in the ratio test broken by lowest
basic index) guarantees termination; the problems solved here are tiny, so
exactness costs nothing noticeable.  The solver carries no shared state and
is safe for concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .verdicts import InternalConsistencyError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexError(InternalConsistencyError):
    """Internal solver or LP-certificate failure; never expected on
    well-formed input."""


@dataclass
class LPResult:
    status: str
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    farkas: list[Fraction] | None = None
    """Infeasibility certificate: y with y.A_j <= 0 for every column j and
    y.b > 0, in terms of the caller's original rows.  Set only when the
    status is infeasible."""


def _pivot(rows: list[list[Fraction]], cost: list[Fraction], basis: list[int], r: int, c: int) -> None:
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


def _iterate(rows: list[list[Fraction]], cost: list[Fraction], basis: list[int], ncols: int) -> str:
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
        _pivot(rows, cost, basis, leaving, entering)


def solve_lp(A: Iterable[Iterable], b: Sequence, c: Sequence) -> LPResult:
    """Solve ``min c.x`` subject to ``A x = b``, ``x >= 0`` exactly."""
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    obj = [Fraction(v) for v in c]
    m = len(rows)
    nv = len(obj)
    if len(rhs) != m or any(len(row) != nv for row in rows):
        raise SimplexError("inconsistent LP dimensions")

    flips = [False] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flips[i] = True

    # Phase 1: minimize the sum of one artificial variable per row.
    total = nv + m
    tableau = [
        rows[i] + [Fraction(int(k == i)) for k in range(m)] + [rhs[i]] for i in range(m)
    ]
    basis = [nv + i for i in range(m)]
    cost = [Fraction(0)] * nv + [Fraction(1)] * m + [Fraction(0)]
    for row in tableau:
        for j in range(total + 1):
            cost[j] -= row[j]

    status = _iterate(tableau, cost, basis, total)
    if status != OPTIMAL:
        raise SimplexError("phase 1 cannot be unbounded")
    if -cost[-1] != 0:
        # Farkas certificate from the phase-1 duals: the reduced cost of the
        # i-th artificial column is 1 - y_i; undo the rhs sign flips.
        farkas = [
            (-(1 - cost[nv + i]) if flips[i] else (1 - cost[nv + i])) for i in range(m)
        ]
        return LPResult(INFEASIBLE, farkas=farkas)

    # Drive remaining artificial variables out of the basis; drop redundant rows.
    keep: list[int] = []
    for i in range(m):
        if basis[i] >= nv:
            col = next((j for j in range(nv) if tableau[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tableau, cost, basis, i, col)
        keep.append(i)
    tableau = [tableau[i][:nv] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: original objective.
    cost2 = list(obj) + [Fraction(0)]
    for i, row in enumerate(tableau):
        if cost2[basis[i]] != 0:
            factor = cost2[basis[i]]
            for j in range(nv + 1):
                cost2[j] -= factor * row[j]

    status = _iterate(tableau, cost2, basis, nv)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    x = [Fraction(0)] * nv
    for i, row in enumerate(tableau):
        x[basis[i]] = row[-1]
    objective = sum((ci * xi for ci, xi in zip(obj, x)), Fraction(0))
    return LPResult(OPTIMAL, x, objective)


"""Exact two-phase simplex with Bland's pivoting rule, pivoted fraction-free.

Solves ``min c.x  subject to  A x = b, x >= 0`` in exact arithmetic.  Bland's
rule (lowest eligible index enters, ties in the ratio test broken by lowest
basic index) guarantees termination.  The solver carries no shared state and
is safe for concurrent use.

The tableau is held as Python integers over one common denominator ``D > 0``
(Edmonds 1967; Bareiss 1968).  A pivot on ``(r, c)`` with ``p = T[r][c]`` sets
``T[i][j] <- (T[i][j] * p - T[i][c] * T[r][j]) / D`` for every row but ``r``
and then ``D <- p``.  By Sylvester's identity every entry stays an integer
multiple of a minor of the integer-scaled input, so each division is exact.
``T / D`` is at every step the tableau the same pivots give over the
rationals, so results are converted to :class:`~fractions.Fraction` only
when they are returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from .linalg import as_rational, scaled_integers
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


class _Tableau:
    """Constraint rows, then the cost row, as integers over ``den``; the
    last column is the right-hand side."""

    def __init__(self, rows: list[list[int]], cost: list[int], basis: list[int], den: int):
        self.rows = rows + [cost]
        self.basis = basis
        self.den = den

    @property
    def cost(self) -> list[int]:
        return self.rows[-1]

    def pivot(self, r: int, c: int) -> None:
        pivot_row = self.rows[r]
        p, den = pivot_row[c], self.den
        for i, row in enumerate(self.rows):
            if i == r:
                continue
            factor = row[c]
            if factor:
                self.rows[i] = [(a * p - factor * b) // den for a, b in zip(row, pivot_row)]
            elif p != den:
                self.rows[i] = [a * p // den for a in row]
        self.basis[r] = c
        self.den = p
        if p < 0:
            self.rows = [[-v for v in row] for row in self.rows]
            self.den = -p

    def run(self, ncols: int) -> str:
        """Bland's rule over the first ``ncols`` columns."""
        while True:
            cost = self.cost
            entering = next((j for j in range(ncols) if cost[j] < 0), None)
            if entering is None:
                return OPTIMAL
            leaving = None
            for i, row in enumerate(self.rows[:-1]):
                a = row[entering]
                if a > 0:
                    if leaving is None:
                        leaving = i
                        continue
                    # row[-1] / a against the best ratio, cross-multiplied.
                    best = self.rows[leaving]
                    lhs, rhs = row[-1] * best[entering], best[-1] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leaving]):
                        leaving = i
            if leaving is None:
                return UNBOUNDED
            self.pivot(leaving, entering)


def solve_lp(A: Iterable[Iterable], b: Sequence, c: Sequence) -> LPResult:
    """Solve ``min c.x`` subject to ``A x = b``, ``x >= 0`` exactly."""
    rows = [[as_rational(v) for v in row] for row in A]
    rhs = [as_rational(v) for v in b]
    obj = [as_rational(v) for v in c]
    m = len(rows)
    nv = len(obj)
    if len(rhs) != m or any(len(row) != nv for row in rows):
        raise SimplexError("inconsistent LP dimensions")

    flips = [v < 0 for v in rhs]
    # Row i scaled by its own denominator lcm s_i is an integer row; the
    # rational tableau [A | I | b] times prod(s_i) is integral, and from that
    # start every fraction-free division is exact.  A common lcm is not
    # enough once two rows share a prime in their denominators.
    den = prod(lcm(*(v.denominator for v in row), r.denominator) for row, r in zip(rows, rhs))

    # Phase 1: minimize the sum of one artificial variable per row.
    total = nv + m
    tableau = []
    for i in range(m):
        row = scaled_integers(rows[i] + [rhs[i]], den)
        if flips[i]:
            row = [-v for v in row]
        tableau.append(row[:nv] + [den if k == i else 0 for k in range(m)] + row[nv:])
    cost = [-sum(col) for col in zip(*tableau)] if m else [0] * (total + 1)
    cost[nv:total] = [0] * m
    t = _Tableau(tableau, cost, [nv + i for i in range(m)], den)

    if t.run(total) != OPTIMAL:
        raise SimplexError("phase 1 cannot be unbounded")
    if t.cost[-1] != 0:
        # Farkas certificate from the phase-1 duals: the reduced cost of the
        # i-th artificial column is 1 - y_i; undo the rhs sign flips.
        farkas = []
        for i in range(m):
            y = Fraction(t.den - t.cost[nv + i], t.den)
            farkas.append(-y if flips[i] else y)
        return LPResult(INFEASIBLE, farkas=farkas)

    # Drive remaining artificial variables out of the basis; drop redundant rows.
    keep: list[int] = []
    for i in range(m):
        if t.basis[i] >= nv:
            col = next((j for j in range(nv) if t.rows[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            t.pivot(i, col)
        keep.append(i)

    # Phase 2: original objective.  Scaling the tableau by the objective's
    # denominator lcm keeps the reduced costs integral.
    scale = lcm(*(v.denominator for v in obj))
    scaled_obj = scaled_integers(obj, scale)
    rows2 = [t.rows[i][:nv] + [t.rows[i][-1]] for i in keep]
    basis = [t.basis[i] for i in keep]
    cost2 = [v * t.den for v in scaled_obj] + [0]
    for i, row in enumerate(rows2):
        factor = scaled_obj[basis[i]]
        if factor:
            cost2 = [a - factor * v for a, v in zip(cost2, row)]
    if scale != 1:
        rows2 = [[v * scale for v in row] for row in rows2]
    t = _Tableau(rows2, cost2, basis, t.den * scale)

    if t.run(nv) == UNBOUNDED:
        return LPResult(UNBOUNDED)

    x = [Fraction(0)] * nv
    for i, row in enumerate(t.rows[:-1]):
        x[t.basis[i]] = Fraction(row[-1], t.den)
    objective = sum((ci * xi for ci, xi in zip(obj, x)), Fraction(0))
    return LPResult(OPTIMAL, x, objective)

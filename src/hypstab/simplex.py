"""Exact LP feasibility by phase-1 simplex, Bland's rule, pivoted fraction-free.

Decides whether ``A x = b, x >= 0`` has a solution, for integer ``A`` and
``b``, in exact arithmetic.  Each row gets an artificial variable, the rows
are signed so that ``b >= 0``, and the sum of the artificials is minimized
from the all-artificial basis.  A zero minimum gives a point ``x``; a
positive one gives a Farkas vector from the duals.  The minimum is bounded
below by 0, and Bland's rule (lowest eligible index enters, ties in the
ratio test broken by lowest basic index) guarantees termination.  The
solver carries no shared state and is safe for concurrent use.

The tableau is held as Python integers over one common denominator
``D > 0``, starting from ``D = 1`` (Edmonds 1967; Bareiss 1968).  A pivot on
``(r, c)`` with ``p = T[r][c] > 0`` sets
``T[i][j] <- (T[i][j] * p - T[i][c] * T[r][j]) / D`` for every row but ``r``
and then ``D <- p``.  By Sylvester's identity every entry stays an integer
multiple of a minor of the input, so each division is exact.  ``T / D`` is
at every step the tableau the same pivots give over the rationals.  The
result keeps that form: the integer numerators of ``x`` or of the Farkas
vector over the final ``D``, so no :class:`~fractions.Fraction` is made
here.  The caller builds Fractions only for what it returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .verdicts import InternalConsistencyError


class SimplexError(InternalConsistencyError):
    """Internal solver or LP-certificate failure; never expected on
    well-formed input."""


@dataclass
class LPResult:
    den: int
    """The common denominator ``D > 0`` of ``x`` or ``farkas``."""
    x: list[int] | None = None
    """Numerators over ``den`` of a point ``x >= 0`` with ``A x = b``; set
    only when one exists."""
    farkas: list[int] | None = None
    """Numerators over ``den`` of an infeasibility certificate: y with
    y.A_j <= 0 for every column j and y.b > 0, in terms of the caller's
    original rows.  Set only when ``x`` is not."""


def _pivot(rows: list[list[int]], r: int, c: int, den: int) -> int:
    """Fraction-free pivot on ``(r, c)``; returns the new denominator."""
    pivot_row = rows[r]
    p = pivot_row[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        factor = row[c]
        if factor:
            rows[i] = [(a * p - factor * b) // den for a, b in zip(row, pivot_row)]
        elif p != den:
            rows[i] = [a * p // den for a in row]
    return p


def solve_lp(A: Sequence[Sequence[int]], b: Sequence[int]) -> LPResult:
    """Decide ``A x = b``, ``x >= 0`` exactly, for integer ``A`` and ``b``."""
    m = len(A)
    nv = len(A[0]) if m else 0
    if not m or len(b) != m or any(len(row) != nv for row in A):
        raise SimplexError("inconsistent LP dimensions")
    if not all(isinstance(v, int) for row in (*A, b) for v in row):
        raise SimplexError("LP data must be integers")

    signs = [-1 if v < 0 else 1 for v in b]
    total = nv + m
    rows = [
        [s * v for v in row] + [int(k == i) for k in range(m)] + [s * rhs]
        for i, (row, rhs, s) in enumerate(zip(A, b, signs))
    ]
    # Cost row of the sum of the artificials, reduced against their basis.
    cost = [-sum(col) for col in zip(*rows)]
    cost[nv:total] = [0] * m
    rows.append(cost)
    basis = list(range(nv, total))
    den = 1

    while True:
        cost = rows[-1]
        entering = next((j for j in range(total) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(m):
            row = rows[i]
            a = row[entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                # row[-1] / a against the best ratio, cross-multiplied.
                best = rows[leaving]
                lhs, rhs = row[-1] * best[entering], best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise SimplexError("phase 1 cannot be unbounded")
        den = _pivot(rows, leaving, entering, den)
        basis[leaving] = entering

    cost = rows[-1]
    if cost[-1] != 0:
        # The reduced cost of the i-th artificial column is 1 - y_i; undo
        # the row signs.
        return LPResult(den, farkas=[s * (den - cost[nv + i]) for i, s in enumerate(signs)])
    # Artificials still basic sit at 0 (their rows are redundant).
    x = [0] * nv
    for i, j in enumerate(basis):
        if j < nv:
            x[j] = rows[i][-1]
    return LPResult(den, x=x)

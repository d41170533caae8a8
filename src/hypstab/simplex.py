"""Exact LP feasibility by phase-1 simplex, Bland's rule, pivoted fraction-free.

Decides whether ``A x = b, x >= 0`` has a solution, for integer ``A`` and
``b``, in exact arithmetic.  Each row gets an artificial variable, the rows
are signed so that ``b >= 0``, and the sum of the artificials is minimized
from the all-artificial basis.  A zero minimum gives a point ``x``; a
positive one gives a Farkas vector from the duals.  The minimum is bounded
below by 0, and Bland's rule guarantees termination.  The solver carries no
shared state and is safe for concurrent use.

The tableau is condensed (Tucker's form): it holds the rows over the
nonbasic columns and the right-hand side only, ``nv + 1`` columns for ``nv``
variables, and never the basic columns, which are unit vectors.  Each
column and each row carries the label of its variable: ``x_j`` is ``j`` and
the i-th artificial ``nv + i``.  The entries are Python integers over one
common denominator ``D > 0``, starting from ``D = 1`` (Edmonds 1967;
Bareiss 1968).  A pivot on ``(r, c)`` with ``p = T[r][c] > 0``

- sets ``T[i][j] <- (T[i][j] * p - T[i][c] * T[r][j]) / D`` for every row
  ``i != r`` (the cost row included) and column ``j != c``;
- negates the rest of column ``c``, sets ``T[r][c] <- D`` and then
  ``D <- p``;
- swaps the labels of row ``r`` and column ``c``: the leaving variable
  takes the entering one's column.

That is the full tableau's fraction-free pivot restricted to its nonbasic
columns: there the leaving variable's unit column ``D e_r`` becomes
``-T[i][c]`` off row ``r`` and ``D`` on it.  By Sylvester's identity every
entry stays an integer multiple of a minor of the input, so each division
is exact, and ``T / D`` is at every step the full tableau's nonbasic part
over the rationals.  Bland's rule enters the nonbasic variable of lowest
*label* with a negative reduced cost (not the lowest column, since a
leaving artificial takes a low column), and the ratio test breaks ties by
the lowest basic label.  Basic columns have reduced cost 0, so these are
the full tableau's choices, and the pivot sequence, ``D``, ``x`` and the
Farkas vector are the full tableau's too.  The Farkas vector reads each
artificial's reduced cost from its column when it is nonbasic and as 0
when it is basic.

The result keeps the integer form: the numerators of ``x`` or of the
Farkas vector over the final ``D``, so no :class:`~fractions.Fraction` is
made here.  The caller builds Fractions only for what it returns.
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
    """Condensed fraction-free pivot on ``(r, c)``; returns the new
    denominator.  Column ``c`` becomes the leaving variable's."""
    pivot_row = rows[r]
    p = pivot_row[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        factor = row[c]
        if factor:
            rows[i] = [(a * p - factor * b) // den for a, b in zip(row, pivot_row)]
            rows[i][c] = -factor
        elif p != den:
            rows[i] = [a * p // den for a in row]
    pivot_row[c] = den
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
    rows = [[s * v for v in row] + [s * rhs] for row, rhs, s in zip(A, b, signs)]
    # Cost row of the sum of the artificials, reduced against their basis.
    rows.append([-sum(col) for col in zip(*rows)])
    # The label of each column's and each row's variable: x_j is j, the
    # i-th artificial nv + i.
    labels, basis = list(range(nv)), list(range(nv, nv + m))
    den = 1

    while True:
        cost = rows[-1]
        # Bland's rule reads labels, not column positions.
        entering = min((j for j in range(nv) if cost[j] < 0), key=labels.__getitem__, default=None)
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
        basis[leaving], labels[entering] = labels[entering], basis[leaving]

    cost = rows[-1]
    if cost[-1] != 0:
        # The reduced cost of the i-th artificial is 1 - y_i: its column's
        # entry when it is nonbasic, 0 when it is basic.  Undo the row signs.
        reduced = dict(zip(labels, cost))
        return LPResult(den, farkas=[s * (den - reduced.get(nv + i, 0)) for i, s in enumerate(signs)])
    # Artificials still basic sit at 0 (their rows are redundant).
    x = [0] * nv
    for i, j in enumerate(basis):
        if j < nv:
            x[j] = rows[i][-1]
    return LPResult(den, x=x)

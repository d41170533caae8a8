"""Integer weight vectors of diagonal one-parameter subgroups.

A weight vector is an integer tuple ``r`` with ``sum(r) == 0`` and ``r != 0``;
it pairs with a monomial exponent vector through the dot product.  A
polynomial whose support pairs non-negatively (positively) with some ``r``
after a linear coordinate change is not stable (not semi-stable).

Sorting ``r`` in non-increasing order is a normalization, not a storage
requirement: coordinate permutations are absorbed into the GL(n+1) part of a
certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

from .polynomials import Exponent, HomogeneousPoly


class WeightError(ValueError):
    """Invalid weight vector or weight operation."""


@dataclass(frozen=True)
class WeightVector:
    r: tuple[int, ...]

    def __post_init__(self):
        # operator.index takes Python and numpy integers and refuses floats and
        # Fractions, which int() would truncate into a different weight.
        try:
            object.__setattr__(self, "r", tuple(map(index, self.r)))
        except TypeError as exc:
            raise WeightError(f"weights must be integers, got {self.r!r}") from exc
        if len(self.r) < 2:
            raise WeightError("need at least two weights")
        if all(v == 0 for v in self.r):
            raise WeightError("weight vector must be nonzero")
        if sum(self.r) != 0:
            raise WeightError(f"weights must sum to zero, got {sum(self.r)}")

    def __iter__(self):
        return iter(self.r)

    def __len__(self) -> int:
        return len(self.r)

    def reduced(self) -> "WeightVector":
        """Divide by the gcd of the entries (canonical primitive form)."""
        g = 0
        for v in self.r:
            g = gcd(g, abs(v))
        return self if g <= 1 else WeightVector(tuple(v // g for v in self.r))

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.r) + ")"


def weight_of(r: WeightVector, exp: Exponent) -> int:
    """Pairing sum_j r_j * i_j of a weight vector with a monomial."""
    if len(exp) != len(r):
        raise WeightError(f"length mismatch: {len(r)} weights vs {len(exp)} exponents")
    return sum(v * e for v, e in zip(r.r, exp))


def membership(f: HomogeneousPoly, r: WeightVector, strict: bool) -> bool:
    """Does every support monomial of ``f`` pair >= 0 (strict: > 0) with r?"""
    if f.is_zero:
        raise WeightError("membership is undefined for the zero polynomial")
    return first_violation(f, r, strict) is None


def first_violation(f: HomogeneousPoly, r: WeightVector, strict: bool):
    """First (graded-lex order) support monomial with a bad weight, or None."""
    for exp, _ in f.terms:
        w = weight_of(r, exp)
        if w < 0 or (strict and w == 0):
            return exp, w
    return None

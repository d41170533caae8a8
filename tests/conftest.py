"""Shared corpus and sampling helpers for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hypstab import HomogeneousPoly, RationalMatrix, WeightVector, parse_poly
from hypstab.weights import weight_of


def reference_is_invertible(rows) -> bool:
    """Whether ``rows`` is a non-empty square matrix of nonzero determinant,
    by Gaussian elimination in Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    if not size or any(len(row) != size for row in m):
        return False
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return True


def reference_matmul(a, b):
    """The product of two matrices given by rows, entry by entry."""
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def reference_product(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The coordinate change ``a @ b``, multiplied in Fractions and built
    from its rows, sharing no code with ``linalg.matrix_product``."""
    return RationalMatrix.from_rows(reference_matmul(a.rows, b.rows))


def degree_monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree d in n + 1 variables."""
    out = []
    for combo in combinations_with_replacement(range(n + 1), d):
        exp = [0] * (n + 1)
        for j in combo:
            exp[j] += 1
        out.append(tuple(exp))
    return sorted(set(out))


def random_sorted_weights(rng: random.Random, n: int, bound: int = 6) -> WeightVector:
    """Random valid sorted weight vector with entries in [-bound, bound]."""
    while True:
        head = [rng.randint(-bound, bound) for _ in range(n)]
        tail = -sum(head)
        if abs(tail) > bound:
            continue
        vec = sorted(head + [tail], reverse=True)
        if any(vec):
            return WeightVector(tuple(vec))


def random_cone_member(
    rng: random.Random, n: int, d: int, r: WeightVector, strict: bool
) -> HomogeneousPoly | None:
    """Random polynomial supported on monomials with weight >= 0 (> 0)."""
    eligible = [
        e
        for e in degree_monomials(n, d)
        if (weight_of(r, e) > 0 if strict else weight_of(r, e) >= 0)
    ]
    if not eligible:
        return None
    k = rng.randint(1, len(eligible))
    chosen = rng.sample(eligible, k)
    terms = {}
    for e in chosen:
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if c == 0:
            c = Fraction(1)
        terms[e] = c
    return HomogeneousPoly.make(n, d, terms)


def random_support_poly(rng: random.Random, n: int, d: int) -> HomogeneousPoly:
    """Random nonzero polynomial with unit-ish coefficients."""
    monomials = degree_monomials(n, d)
    k = rng.randint(1, len(monomials))
    chosen = rng.sample(monomials, k)
    return HomogeneousPoly.make(n, d, {e: rng.choice([1, -1, 2]) for e in chosen})


CORPUS_TEXTS = {
    "f2": ("x0^2*x2 + x1^3", 2),
    "fermat_cubic": ("x0^3 + x1^3 + x2^3", 2),
    "triangle": ("x0*x1*x2", 2),
    "nodal_cubic": ("x1^2*x2 - x0^2*x2 - x0^3", 2),
    "cuspidal_cubic": ("x1^2*x2 - x0^3", 2),
    "g2": ("x0^2*x2^2 + x0*x1^3", 2),
    "fermat_quartic": ("x0^4 + x1^4 + x2^4", 2),
    "double_conic_ish": ("x0^2*x1^2 + x1^2*x2^2 + x0^2*x2^2", 2),
}


@pytest.fixture(scope="session")
def corpus() -> dict[str, HomogeneousPoly]:
    return {name: parse_poly(text, n) for name, (text, n) in CORPUS_TEXTS.items()}


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240831)

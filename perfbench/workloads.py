"""Seeded inputs for the four benchmark workloads.

Inputs are generated here from the workload seed with plain Python
arithmetic, never with ``hypstab`` itself, so the program under test only
ever sees the generated polynomial text.  Each input carries the key of its
known answer in :mod:`known` (``None`` for crosscheck inputs, whose answer is
the agreement of two independent routes).
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations_with_replacement

WORKLOADS = ("families", "smooth", "disguised", "crosscheck")

# Copies of each disguised base per pass, each under its own coordinate change.
DISGUISE_COPIES = 2
# smooth and disguised draw their search frames (and disguised its coordinate
# changes) from this fixed seed, not the workload seed.  One draw's cost spans
# 3x across seeds (quintic: 5.9-19.9 s over search seeds 1-7; a disguised pass:
# 3.2-18.8 s over seeds 1-6), and no run that fits the time budget averages
# that out, so with a seed-driven draw the run-to-run spread hides any change.
PINNED_SEED = 0
# Crosscheck supports per (n, d) cell, their sizes (cycled, so every seed has
# the same mix of sizes), and the oracle box bound per n.
CROSSCHECK_SUPPORTS = 20
SUPPORT_SIZES = {2: (4, 5, 6, 7), 3: (6, 7, 8, 9)}
ORACLE_BOUND = {2: 200, 3: 24}


@dataclass(frozen=True)
class Input:
    """One operation: an ``analyze`` run, or one crosscheck decision."""

    name: str
    text: str  # polynomial text exactly as the program receives it
    n: int
    known: str | None
    analyze_seed: int = 0
    fields: str = ""
    strict: bool | None = None  # crosscheck only
    oracle_bound: int | None = None  # crosscheck only


def family_text(family: str, n: int) -> str:
    """The paper's families, written from their definition:
    fn = x0^2*xn + x1^3 + ... + x_{n-1}^3 and
    gn = x0^2*xn^2 + x0*x_{n-1}^3 + x1^4 + ... + x_{n-2}^4."""
    if family == "fn":
        return " + ".join([f"x0^2*x{n}"] + [f"x{k}^3" for k in range(1, n)])
    return " + ".join([f"x0^2*x{n}^2", f"x0*x{n - 1}^3"] + [f"x{k}^4" for k in range(1, n - 1)])


SMOOTH = {
    "fermat-quintic-surface": "x0^5 + x1^5 + x2^5 + x3^5",
    "cyclic-cubic-surface": "x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^2*x0",
    "fermat-cubic-threefold": "x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
    "klein-quartic": "x0^3*x1 + x1^3*x2 + x2^3*x0",
}

DISGUISE_BASES = {
    "fn2": family_text("fn", 2),
    "fn3": family_text("fn", 3),
    "gn2": family_text("gn", 2),
    "gn3": family_text("gn", 3),
    "cusp": "x1^2*x2 - x0^3",
    "nodal-cubic": "x1^2*x2 - x0^2*x2 - x0^3",
    "singular-line": "x0^2*x2 + x1^2*x3",
    "irrational-node-cubic": "x0^3 - 2*x0*x1^2 - 2*x1^2*x2 + x2^3",
}


# --- minimal integer polynomial arithmetic: {exponent tuple: int} ----------

def parse_text(text: str, nvars: int) -> dict[tuple[int, ...], int]:
    """Parse the integer-coefficient subset of the program's grammar."""
    poly: dict[tuple[int, ...], int] = {}
    for chunk in text.replace(" ", "").replace("-", "+-").split("+"):
        if not chunk:
            continue
        coeff, exp = 1, [0] * nvars
        for factor in chunk.split("*"):
            if factor.startswith("-"):
                coeff, factor = -coeff, factor[1:]
            if factor.startswith("x"):
                var, _, power = factor[1:].partition("^")
                exp[int(var)] += int(power or 1)
            else:
                coeff *= int(factor)
        key = tuple(exp)
        poly[key] = poly.get(key, 0) + coeff
    return {e: c for e, c in poly.items() if c}


def format_text(poly: dict[tuple[int, ...], int]) -> str:
    parts = []
    for exp in sorted(poly, reverse=True):
        c = poly[exp]
        factors = [f"x{j}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(exp) if e]
        body = "*".join(factors)
        term = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + term)
        else:
            parts.append(("-" if c < 0 else "") + term)
    return " ".join(parts)


def _mul(a, b):
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def substitute(poly, sigma: list[list[int]]):
    """f(sigma) under x_j -> sum_k sigma[k][j] * x_k (the program's convention)."""
    size = len(sigma)
    forms = [
        {tuple(int(i == k) for i in range(size)): sigma[k][j] for k in range(size) if sigma[k][j]}
        for j in range(size)
    ]
    out: dict[tuple[int, ...], int] = {}
    for exp, c in poly.items():
        term = {(0,) * size: c}
        for j, e in enumerate(exp):
            for _ in range(e):
                term = _mul(term, forms[j])
        for te, tc in term.items():
            out[te] = out.get(te, 0) + tc
    return {e: c for e, c in out.items() if c}


def disguise(rng: random.Random, size: int) -> list[list[int]]:
    """sigma = U @ P: U integer upper-unitriangular with entries in [-1, 1],
    P a permutation matrix."""
    u = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(size)] for i in range(size)]
    images = list(range(size))
    rng.shuffle(images)
    p = [[int(images[i] == j) for j in range(size)] for i in range(size)]
    return [[sum(u[i][k] * p[k][j] for k in range(size)) for j in range(size)] for i in range(size)]


def degree_monomials(nvars: int, d: int) -> list[tuple[int, ...]]:
    out = set()
    for combo in combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for j in combo:
            exp[j] += 1
        out.add(tuple(exp))
    return sorted(out)


# --- workloads ---------------------------------------------------------------

def _families(seed: int) -> list[Input]:
    return [
        Input(f"{fam}{n}", family_text(fam, n), n, "fn" if fam == "fn" else "gn", seed, "2,3,5,7")
        for fam in ("fn", "gn")
        for n in range(2, 7)
    ]


def _smooth(seed: int) -> list[Input]:
    return [
        Input(name, text, _nvars(text) - 1, "smooth", PINNED_SEED) for name, text in SMOOTH.items()
    ]


def _nvars(text: str) -> int:
    return 1 + max(int(v) for v in re.findall(r"x(\d+)", text))


def _disguised(seed: int) -> list[Input]:
    rng = random.Random(PINNED_SEED)
    out = []
    for copy in range(DISGUISE_COPIES):
        for name, text in DISGUISE_BASES.items():
            nvars = _nvars(text)
            sigma = disguise(rng, nvars)
            hidden = format_text(substitute(parse_text(text, nvars), sigma))
            out.append(Input(f"{name}#{copy}", hidden, nvars - 1, name, PINNED_SEED))
    return out


def _crosscheck(seed: int) -> list[Input]:
    rng = random.Random(seed)
    out = []
    for n in (2, 3):
        for d in (3, 4):
            monos = degree_monomials(n + 1, d)
            for i in range(CROSSCHECK_SUPPORTS):
                sizes = SUPPORT_SIZES[n]
                support = rng.sample(monos, sizes[i % len(sizes)])
                poly = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in support}
                text = format_text(poly)
                for strict in (True, False):
                    mode = "strict" if strict else "nonstrict"
                    out.append(Input(f"n{n}d{d}#{i}-{mode}", text, n, None, seed,
                                     strict=strict, oracle_bound=ORACLE_BOUND[n]))
    return out


def build(workload: str, seed: int) -> list[Input]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {"families": _families, "smooth": _smooth, "disguised": _disguised,
            "crosscheck": _crosscheck}[workload](seed)

"""A proven lower bound on the Hessian rank at every singular point.

The ideals are the partials of F with the r x r minors of its Hessian, and
the partials restricted to a hyperplane; each goes to the Macaulay kernel
:func:`~hypstab.modp.prove_empty` once, which ramps its degree up to
(n+1)(d-2)+1 at most.  Why these ideals bound rank, delta and s is argued in
the :mod:`~hypstab.modp` docstring.  The report imports this module only
when it tries a proof.  It is not part of :mod:`~hypstab.modp`: compiling
one module that held both (no bytecode cache) raised the peak memory of 100
passes over the benchmark's disguised inputs by 0.3-0.6 MB (2-core host,
Python 3.11).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, count
from math import comb
from typing import Sequence

import numpy as np

from .linalg import RationalMatrix, apply_linear_change
from .modp import (
    MAX_CELLS,
    PRIME,
    IntForm,
    MacaulayProof,
    _monomials,
    macaulay_shape,
    matrix_shape,
    partial_terms,
    prove_empty,
)
from .polynomials import HomogeneousPoly, primitive_form


@dataclass(frozen=True)
class HessianRankBound:
    """Every singular point of V(f) over the algebraic closure of Q has
    Hessian rank at least ``rank`` (``minors``), so delta <= 2 and
    s <= ``s_max``: n - ``rank``, or 0 by ``hyperplane``."""

    rank: int
    s_max: int
    minors: MacaulayProof
    hyperplane: MacaulayProof | None = None


def _hessian_minors(F: HomogeneousPoly, r: int) -> list[IntForm]:
    """The nonzero r x r minors of the Hessian of F mod PRIME, one for each
    pair of index sets I <= J (H is symmetric, so the minor on (J, I) is the
    same form).  The k x k minors come from the (k-1) x (k-1) ones in one
    batch, by expansion along the first row: every entry times its cofactor
    at once, the products added up by monomial in one bincount.  A sum holds
    at most k times (number of entry monomials) products, each below PRIME,
    so it is exact in float64."""
    nvars, e = F.nvars, F.d - 2
    weights = [(r * e + 1) ** k for k in range(nvars)]
    radix = np.array(weights, dtype=np.int64)
    monomials = [_monomials(nvars, k * e) for k in range(r + 1)]
    codes = [m @ radix for m in monomials]
    position = {int(code): at for at, code in enumerate(codes[1])}
    hessian = np.zeros((nvars, nvars, len(position)), dtype=np.int64)
    for exp, c in F.terms:
        code = sum(x * w for x, w in zip(exp, weights))
        for i, j in combinations_with_replacement(range(nvars), 2):
            times = exp[i] * (exp[j] - (i == j))
            if times:
                at = position[code - weights[i] - weights[j]]
                value = (int(hessian[i, j, at]) + c.numerator * times) % PRIME
                hessian[i, j, at] = hessian[j, i, at] = value
    singles = list(combinations(range(nvars), 1))
    minors = {(i, j): hessian[i[0], j[0]] for a, i in enumerate(singles) for j in singles[a:]}
    for k in range(2, r + 1):
        subsets = list(combinations(range(nvars), k))
        pairs = [(i, j) for a, i in enumerate(subsets) for j in subsets[a:]]
        smaller = list(minors)
        where = {key: at for at, key in enumerate(smaller)}
        pair, entry, cofactor, sign = [], [], [], []
        for p, (i, j) in enumerate(pairs):
            for t in range(k):
                sub = (i[1:], j[:t] + j[t + 1:])
                pair.append(p)
                entry.append(hessian[i[0], j[t]])
                cofactor.append(where[min(sub, sub[::-1])])
                sign.append(1 - 2 * (t % 2))
        cofactors = np.stack(list(minors.values()))[cofactor]
        products = np.array(entry)[:, :, None] * cofactors[:, None, :] % PRIME
        # Monomial of each (entry term, cofactor term) product: descending
        # codes, so the index counts back from the end.
        ascending = codes[k][::-1]
        product_codes = codes[1][:, None] + codes[k - 1][None, :]
        target = len(ascending) - 1 - np.searchsorted(ascending, product_codes)
        width = len(ascending)
        bins = (np.array(pair)[:, None, None] * width + target[None]).ravel()
        signed = (products * np.array(sign)[:, None, None]).ravel().astype(np.float64)
        sums = np.bincount(bins, signed, minlength=len(pairs) * width)
        minors = dict(zip(pairs, np.rint(sums).astype(np.int64).reshape(len(pairs), width) % PRIME))
    return [IntForm(r * e, monomials[r][v != 0], v[v != 0]) for v in minors.values() if v.any()]


def _hyperplane(n: int, points) -> list[int]:
    """Coefficients c_i = t^(i+1) of a hyperplane x_n = sum c_i x_i, with the
    first t >= 2 for which it misses every point given.  A point P is on it
    for at most n values of t: sum P_i t^(i+1) - P_n is a nonzero polynomial
    in t, since P != 0."""
    for t in count(2):
        c = [t ** (i + 1) for i in range(n)]
        if all(sum(ci * Fraction(x) for ci, x in zip(c, p)) != Fraction(p[n]) for p in points):
            return c


def _restricted_partials(F: HomogeneousPoly, c: list[int]) -> list[IntForm]:
    """The partials of G = F(x_0, ..., x_(n-1), x_n + sum c_i x_i) at
    x_n = 0, as forms in x_0..x_(n-1).  By the chain rule they are the
    partials of F on x_n = sum c_i x_i times a unimodular integer matrix, so
    their ideal, and each Macaulay matrix's rank, is the same."""
    n = F.n
    sigma = [[int(k == j) for j in range(n)] + [ck] for k, ck in enumerate(c)]
    G = apply_linear_change(F, RationalMatrix.from_rows(sigma + [[0] * n + [1]]))
    return [
        IntForm.from_terms(F.d - 1, n, {exp[:-1]: u for exp, u in partial.items() if not exp[-1]})
        for partial in partial_terms(G)
    ]


def prove_hessian_rank(
    f: HomogeneousPoly, r: int, points: Sequence[Sequence[Fraction]] = ()
) -> HessianRankBound | None:
    """A proof that every singular point of V(f) over the algebraic closure
    of Q has Hessian rank at least ``r``, with the bound on s it gives, or
    None.  When r < n it also tries s <= 0 on a hyperplane that misses
    ``points`` (coordinate tuples of known singular points).  Each call to
    :func:`prove_empty` ramps its degree up to (n+1)(d-2)+1 at most."""
    if not 1 <= r <= f.n or f.d < 3:
        return None
    F = primitive_form(f)
    top = macaulay_shape(f.n, f.d)[0]
    partials = [IntForm.from_terms(f.d - 1, f.nvars, p) for p in partial_terms(F)]
    # Every minor counted: a matrix over the cap at the first degree is not
    # tried, and its minors are not computed.
    degrees = [f.d - 1] * f.nvars + [r * (f.d - 2)] * comb(comb(f.nvars, r) + 1, 2)
    nrows, ncols = matrix_shape(degrees, f.nvars, max(degrees))
    if nrows * ncols > MAX_CELLS:
        return None
    ideal = f"the partials and the {r} x {r} Hessian minors"
    minors = prove_empty(partials + _hessian_minors(F, r), f.nvars, top, ideal=ideal)
    if minors is None:
        return None
    if r == f.n:
        return HessianRankBound(r, 0, minors)
    c = _hyperplane(f.n, points)
    plane = " + ".join(f"{ci}*x{i}" for i, ci in enumerate(c))
    hyperplane = prove_empty(
        _restricted_partials(F, c), f.n, top, ideal=f"the partials on x{f.n} = {plane}"
    )
    if hyperplane is None:
        return HessianRankBound(r, f.n - r, minors)
    return HessianRankBound(r, 0, minors, hyperplane)

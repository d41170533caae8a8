"""Torus destabilization at fixed coordinates, decided by exact LP.

The question: does some nonzero integer vector ``r`` with ``sum(r) == 0``
pair positively (strict) or non-negatively (non-strict) with every support
monomial of ``f``?

Let ``c = (d/(n+1), ..., d/(n+1))`` be the centroid of the degree simplex.
For zero-sum ``r`` the pairing ``r.i`` equals ``r.(i - c)``, so both modes
are questions about the matrix ``A`` whose columns are the shifted support
monomials ``i - c`` (scaled by ``n + 1`` to integers).  Each mode is decided
by one integer feasibility LP over the n+1 rows of ``A``, solved by the
exact phase-1 simplex of :mod:`hypstab.simplex`:

- strict: ``A lam = 0``, ``sum(lam) = 1``, ``lam >= 0``, i.e. the centroid
  lies in the convex hull of the support;
- non-strict: ``A mu = -A 1``, ``mu >= 0``, i.e. ``lam = 1 + mu`` is a
  strictly positive solution of ``A lam = 0``.  By Stiemke's alternative it
  exists exactly when no ``r`` pairs non-negatively with every column and
  positively with one.  A nonzero zero-sum ``r`` orthogonal to every column
  is ruled out first by a nullspace test, so a feasible LP means the cone
  is trivial.

A feasible LP gives the barycentric certificate: convex weights over support
monomials averaging to the centroid, strictly positive in the non-strict
case.  An infeasible LP gives a Farkas vector ``y``; the projection of
``-y`` (its rows of ``A``) onto the zero-sum hyperplane, scaled to
integers, is the destabilizing witness.  Witnesses and certificates are
re-verified before being returned.

The decision stays in Python integers from the simplex tableau on: the LP
returns numerators over one denominator, the weights ``w`` and their sum
``total`` are integers, the witness is a primitive integer vector, and the
certificate is checked in integers.  Fractions are made only for the
returned certificate, as ``w / total``.

A brute-force enumeration oracle over a box of integer vectors is provided
as an independent cross-check; it shares no code path with the LP.  The
zero sum fixes ``r_n``, and the oracle walks ``r[:n-1]`` in lexicographic
order, as tile rows under batches of prefixes.  On each row every monomial
bounds ``r_{n-1}`` linearly, so the row's members are one integer interval,
computed exactly with integer floor division; the first row with a
non-empty interval gives the first member at its lower end (see
``enumerate_weight_oracle``).  What depends only on the box (the tile, its
row sums, its zero row and the interval's ends from the box) is cached per
box, read-only, beside :mod:`~hypstab.grid`'s tile, so a call evaluates
only its form.  A box whose tile holds every walked coordinate (up to
``(2 bound + 1)**(n-1) <= grid.BLOCK_ROWS``) has no prefix: the tile is its
one block.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import grid
from .linalg import integer_rank, nullspace_vector, primitive_row
from .polynomials import Exponent, HomogeneousPoly, PolyError
from .simplex import SimplexError, solve_lp
from .verdicts import InternalConsistencyError
from .weights import WeightError, WeightVector, membership

BarycentricCertificate = tuple[tuple[Exponent, Fraction], ...]


@dataclass(frozen=True)
class TorusDecision:
    feasible: bool
    strict: bool
    witness: WeightVector | None = None
    certificate: BarycentricCertificate | None = None

    def to_json(self) -> dict:
        out = {"feasible": self.feasible, "strict": self.strict}
        out["witness"] = list(self.witness.r) if self.witness else None
        if self.certificate is not None:
            out["infeasibility_certificate"] = [
                {"monomial": list(exp), "lambda": str(lam)} for exp, lam in self.certificate
            ]
        else:
            out["infeasibility_certificate"] = None
        return out


def _integer_weight(values) -> WeightVector:
    return WeightVector(tuple(primitive_row(values)))


def _shifted_rows(support, n: int, d: int) -> list[list[int]]:
    """Rows of ``A``: its columns are ``(n + 1) * (i - c)`` over the support."""
    return [[(n + 1) * exp[j] - d for exp in support] for j in range(n + 1)]


def _farkas_witness(y: list[int]) -> WeightVector:
    """Project ``-y`` onto the zero-sum hyperplane and scale to integers:
    ``mean(y) - y_i`` times ``len(y)`` is ``sum(y) - len(y) * y_i``."""
    total = sum(y)
    return _integer_weight([total - len(y) * v for v in y])


def _verify_barycentric(support, weights, total: int, n: int, d: int, positive: bool) -> None:
    """Check the certificate ``w / total`` in integers: ``total > 0`` is
    the weights' sum, they have the right signs, and
    ``(n + 1) * sum(w * exp_j)`` is ``d * total`` for every j, i.e. they
    average the support to the centroid."""
    if total < 1 or sum(weights) != total:
        raise SimplexError("barycentric weights do not sum to 1")
    if any(w < 0 for w in weights) or (positive and any(w == 0 for w in weights)):
        raise SimplexError("barycentric weights have wrong signs")
    for j in range(n + 1):
        if (n + 1) * sum(w * exp[j] for w, exp in zip(weights, support)) != d * total:
            raise SimplexError("barycentric combination misses the centroid")
    if positive and integer_rank(_shifted_rows(support, n, d)) != n:
        raise SimplexError("shifted support does not span the direction space")


def _certificate(support, weights, n: int, d: int, positive: bool) -> BarycentricCertificate:
    """The verified certificate of integer ``weights`` over ``support``:
    each nonzero weight over their sum."""
    total = sum(weights)
    _verify_barycentric(support, weights, total, n, d, positive)
    return tuple((exp, Fraction(w, total)) for exp, w in zip(support, weights) if w)


def _corners(support, n: int, d: int) -> list[Exponent] | None:
    """The pure powers x_j^d, when every one is in the support.  Uniform
    weights on them certify infeasibility in both modes: any nonzero
    zero-sum vector has a negative coordinate, hence a negative corner
    weight.  At d = 0 the n + 1 corners are one monomial and the argument
    fails, so the LP decides."""
    if d < 1:
        return None
    corners = [tuple(d if k == j else 0 for k in range(n + 1)) for j in range(n + 1)]
    present = set(support)
    return corners if all(c in present for c in corners) else None


def _check_form(f: HomogeneousPoly) -> None:
    """Refuse what is not a hypersurface: the zero polynomial, and a form in
    one variable (n = 0), whose only zero-sum weight is 0."""
    if f.is_zero:
        raise ValueError("cannot destabilize the zero polynomial")
    if f.n < 1:
        raise PolyError(f"need at least two variables, got n = {f.n}")


def torus_destabilize(f: HomogeneousPoly, strict: bool) -> TorusDecision:
    """Decide destabilizability of ``f`` by a diagonal torus in the given
    coordinates; total function over hypersurfaces in two or more variables."""
    _check_form(f)
    support = f.support()
    n, d = f.n, f.d

    corners = _corners(support, n, d)
    if corners is not None:
        cert = _certificate(corners, [1] * (n + 1), n, d, positive=not strict)
        return TorusDecision(False, strict, certificate=cert)

    rows = _shifted_rows(support, n, d)
    if strict:
        A = [[1] * len(support)] + rows
        b = [1] + [0] * (n + 1)
    else:
        # Degenerate fast path: a nonzero zero-sum vector orthogonal to the
        # whole support gives every monomial weight 0.  Ruling it out first
        # is what makes a strictly positive solution prove the cone trivial.
        # Such a vector exists exactly when these rows have rank below n + 1;
        # the integer rank is cheap, so the vector is found only then.
        flat_rows = [*support, [1] * (n + 1)]
        if integer_rank(flat_rows) <= n:
            witness = _integer_weight(nullspace_vector(flat_rows))
            if not membership(f, witness, strict=False):
                raise SimplexError("orthogonal witness failed re-verification")
            return TorusDecision(True, False, witness=witness)
        A = rows
        b = [-sum(row) for row in rows]

    result = solve_lp(A, b)
    if result.x is None:
        witness = _farkas_witness(result.farkas[-(n + 1):])
        if not membership(f, witness, strict):
            raise SimplexError("Farkas witness failed re-verification")
        return TorusDecision(True, strict, witness=witness)
    weights = result.x if strict else [result.den + v for v in result.x]
    cert = _certificate(support, weights, n, d, positive=not strict)
    return TorusDecision(False, strict, certificate=cert)


def _box_ends(bound: int, sums):
    """The ends of ``r_{n-1}`` from ``|r_{n-1}| <= bound`` and
    ``|r_n| <= bound`` on rows of ``r[:n-1]`` whose sums are ``sums``."""
    return np.maximum(-bound, -bound - sums), np.minimum(bound, bound - sums)


@lru_cache(maxsize=16)
def _oracle_box(bound: int, width: int, cap: int):
    """The read-only arrays of the oracle's box ``[-bound, bound]^width``
    that no form changes: ``(tile, sums, zero, lo, hi)``.

    ``tile`` is the tile of ``grid.box_split``, ``sums`` its row sums,
    ``zero`` the index of its zero row, and ``lo`` and ``hi`` the ends of
    ``r_{n-1}`` on each tile row under the zero prefix from
    ``|r_{n-1}| <= bound`` and ``|r_n| <= bound``.  ``cap`` is
    ``grid.BLOCK_ROWS`` at the call, part of the key as in the tile's cache:
    it decides the tile.
    """
    tile = grid.box_split(range(-bound, bound + 1), width)[0]
    sums = tile.sum(axis=1)
    lo, hi = _box_ends(bound, sums)
    for array in (sums, lo, hi):
        array.flags.writeable = False
    return tile, sums, int(np.flatnonzero(~tile.any(axis=1))[0]), lo, hi


def _first_member(ends, deficit, last, zero):
    """``(row, r_{n-1})`` of the first row of a block with a member, or None.

    ``deficit`` has one row per monomial, over the block's rows, offset so
    that ``deficit // a`` is the monomial's end of ``r_{n-1}`` (``a`` its
    entry of ``last``) and, where ``a = 0``, ``deficit <= 0`` is its
    condition.  ``ends`` are the rows' ends from the box, and ``zero`` the
    index of the zero row of ``r[:n-1]`` in the block, or None.  Nothing is
    written to ``ends``, which may be cached.
    """
    lo, hi = ends
    level = None
    # One scalar divisor per monomial, so ``//`` takes NumPy's fast path
    # for a scalar integer divisor.
    for q, a in zip(deficit, last):
        if a > 0:
            lo = np.maximum(lo, q // a)
        elif a < 0:
            hi = np.minimum(hi, q // a)
        elif level is None:
            level = q <= 0
        else:
            level &= q <= 0
    ok = lo <= hi
    if level is not None:
        ok &= level
    if zero is not None and lo[zero] == 0:
        # The zero row's lower end 0 is r = 0: it starts at 1.
        ok[zero] &= hi[zero] >= 1
    h = int(ok.argmax())
    if not ok[h]:
        return None
    value = int(lo[h])
    return h, value + (h == zero and value == 0)


def enumerate_weight_oracle(f: HomogeneousPoly, bound: int, strict: bool) -> WeightVector | None:
    """Exhaustive scan of integer vectors with entries in [-bound, bound],
    zero sum, returning the lexicographically first member of the weight
    cone, else None.

    Independent of the LP path; intended for small n.  For zero-sum ``r``
    the pairing with a monomial ``i`` is ``sum_{j<n} r_j a_j`` with
    ``a = i[:n] - i_n``.  A member pairs to at least ``least`` (1 strict, 0
    otherwise) with every monomial and has ``|r_n| <= bound`` and ``r != 0``.

    Only ``r[:n-1]`` is walked, as ``grid.box_split`` gives it, in
    lexicographic order.  Given a row with pairing ``P``, each monomial's
    condition ``P + a_{n-1} r_{n-1} >= least`` is linear in ``r_{n-1}``, so
    the members on the row are one integer interval:

    - ``a_{n-1} > 0`` gives ``r_{n-1} >= ceil((least - P) / a_{n-1})``;
    - ``a_{n-1} < 0`` gives ``r_{n-1} <= floor((least - P) / a_{n-1})``;
    - ``a_{n-1} = 0`` holds on the whole row or on none of it: ``P >= least``;
    - ``|r_{n-1}| <= bound`` and ``|sum(r[:n-1]) + r_{n-1}| <= bound``;
    - on the zero row a lower end of 0 becomes 1, skipping ``r = 0``.

    Each end is one int64 floor division per row.  The first row with a
    non-empty interval, at its lower end, is the first member in the box,
    and it is re-checked by ``membership``.  What depends only on the box
    (the tile, its row sums, its zero row and the ends from the box) is
    cached per box by :func:`_oracle_box`, so a call evaluates only its
    form.  When the tile holds every walked coordinate, as it does up to
    ``(2 bound + 1)**(n-1) <= grid.BLOCK_ROWS``, the box has no prefix and
    the tile is its one block.  Otherwise rows are evaluated as prefixes
    times the tile, ``grid.BLOCK_ROWS // len(tile)`` prefixes at a time.
    """
    if bound < 1:
        raise WeightError("bound must be >= 1")
    _check_form(f)
    supp = np.array(f.support(), dtype=np.int64)
    cols = supp[:, :-1] - supp[:, -1:]
    last = cols[:, -1].tolist()
    # Each monomial's deficit least - P, plus a - 1 where a > 0, so that
    # deficit // a is its end of r_{n-1}: ceil(x / a) is (x + a - 1) // a.
    offset = np.maximum(cols[:, -1:] - 1, 0) + (1 if strict else 0)
    tile, tile_sums, zero, lo, hi = _oracle_box(bound, f.n - 1, grid.BLOCK_ROWS)
    cut = f.n - 1 - tile.shape[1]
    # The tile is every combination of the values in lexicographic order, so
    # the deficit on it is built one column at a time: each column repeats
    # every row once per value, less the value times the monomial's entry.
    # (An int64 matmul with the tile takes about twice as long.)
    values = np.arange(-bound, bound + 1, dtype=np.int64)
    deficit = offset
    for c in cols[:, cut:-1].T:
        deficit = (deficit[:, :, None] - np.multiply.outer(c, values)[:, None, :]).reshape(
            len(supp), -1
        )
    if not cut:
        hit = _first_member((lo, hi), deficit, last, zero)
        if hit is None:
            return None
        return _verified(f, strict, [*map(int, tile[hit[0]]), hit[1]])
    _, prefixes = grid.box_split(range(-bound, bound + 1), f.n - 1)
    step = grid.BLOCK_ROWS // len(tile)
    for batch in prefixes:
        heads = cols[:, :cut] @ batch.T
        for k in range(0, len(batch), step):
            pre = batch[k : k + step]
            block = (deficit[:, None, :] - heads[:, k : k + step, None]).reshape(len(supp), -1)
            ends = _box_ends(bound, (pre.sum(axis=1)[:, None] + tile_sums).ravel())
            at_zero = np.flatnonzero(~pre.any(axis=1))
            row = int(at_zero[0]) * len(tile) + zero if at_zero.size else None
            hit = _first_member(ends, block, last, row)
            if hit is not None:
                i, j = divmod(hit[0], len(tile))
                return _verified(f, strict, [*map(int, pre[i]), *map(int, tile[j]), hit[1]])
    return None


def _verified(f: HomogeneousPoly, strict: bool, head: list[int]) -> WeightVector:
    """The oracle's member ``head + [-sum(head)]``, re-checked by ``membership``."""
    candidate = WeightVector(tuple(head + [-sum(head)]))
    if not membership(f, candidate, strict):
        raise InternalConsistencyError("oracle produced a non-member; enumeration bug")
    return candidate

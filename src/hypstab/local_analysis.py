"""Local invariants of hypersurface points.

An exact integer coordinate change moves the point to [0:...:0:1], and the
moved form g is read by the powers of x_n: the multiplicity m is d minus the
largest x_n exponent in g, the tangent cone is the form that multiplies
x_n^(d-m), and at a double point the Hessian rank is the rank of that
quadratic form Q.  It is computed by fraction-free elimination on the
integer symmetric matrix of 2L*Q, L the lcm of Q's denominators from Q's
cached integer view: a positive multiple of Q's rational matrix, so of the
same rank and kernel.  f's own view clears the denominators of f(p) and of
the coordinate change, once per form, however many points are analyzed.
The singular-point scan enumerates rational points of bounded height exactly
and, optionally, counts singular points over small finite fields as (clearly
labelled) heuristic evidence about the dimension of the singular locus,
which is never computed exactly here.  Written in symmetric residues with
first nonzero coordinate 1, the points of P^n(F_p) are canonical rows of the
height box once p // 2 <= h, so one walk of the box gives the rational
points and the counts for every such prime; a larger prime walks its own
residue box.  A row of a walk carries its checks as the bits of one unsigned
word, cleared by table lookups: of its entries, for the residue boxes, and
of each polynomial's value mod a product of the primes, for divisibility.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import prod

import numpy as np

from . import grid
from .linalg import (
    RationalMatrix,
    apply_linear_change,
    integer_rank,
    matrix_moving_point_last,
    primitive_row,
    rational_rank,
)
from .modp import partial_terms
from .polynomials import (
    Exponent,
    HomogeneousPoly,
    PolyError,
    last_coefficient,
)
from .verdicts import InternalConsistencyError


class PointError(ValueError):
    """Invalid projective point or point operation."""


@dataclass(frozen=True)
class ProjectivePoint:
    """Rational projective point in canonical integer form: cleared
    denominators, gcd one, first nonzero coordinate positive."""

    coords: tuple[int, ...]

    @staticmethod
    def make(values) -> "ProjectivePoint":
        ints = primitive_row(values)
        first = next((v for v in ints if v != 0), None)
        if first is None:
            raise PointError("projective point cannot be the zero vector")
        if first < 0:
            ints = [-v for v in ints]
        return ProjectivePoint(tuple(ints))

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coords]


def quadratic_form_matrix(q: HomogeneousPoly) -> list[list[int]]:
    """The integer symmetric matrix of 2L*q, for L the lcm of q's
    denominators (q's integer view): a positive multiple of q's symmetric
    matrix, so of the same rank and kernel.  A square x_i^2 with integer
    coefficient C = L*c puts 2C at (i, i), a cross term x_i*x_j puts C at
    (i, j) and (j, i)."""
    if q.d != 2:
        raise PolyError(f"a quadratic form has degree 2, got {q.d}")
    m = q.nvars
    mat = [[0] * m for _ in range(m)]
    for (exp, _), c in zip(q.terms, q.integer_view.ints):
        i, j = [k for k, e in enumerate(exp) for _ in range(e)]
        if i == j:
            mat[i][i] = 2 * c
        else:
            mat[i][j] = mat[j][i] = c
    return mat


def quadratic_form_rank(q: HomogeneousPoly) -> int:
    """Rank of the symmetric matrix of a quadratic form; 0 for the zero form."""
    if q.is_zero:
        return 0
    return integer_rank(quadratic_form_matrix(q))


def essential_variable_count(h: HomogeneousPoly) -> int:
    """Dimension of the span of the first partials of a homogeneous form.

    The form can be written in fewer variables after a linear change (is a
    cone) exactly when this count is less than the number of variables.
    """
    if h.is_zero:
        raise PolyError("essential variable count of the zero polynomial")
    partials = [h.partial_derivative(j) for j in range(h.nvars)]
    monomials = sorted({exp for p in partials for exp, _ in p.terms})
    if not monomials:
        return 0
    rows = [[p.coefficient(exp) for exp in monomials] for p in partials]
    return rational_rank(rows)


def is_cone(h: HomogeneousPoly) -> bool:
    return essential_variable_count(h) < h.nvars


@dataclass
class LocalData:
    """Exact local invariants at one rational point.  ``frame`` is sigma_P,
    the integer matrix of ``matrix_moving_point_last`` whose last row is the
    point, and ``moved`` is f∘sigma_P, where the point is [0:...:0:1] (both
    None off the hypersurface): its x_n-coefficient forms are the local
    expansion, of which the tangent cone is the lowest.  The search reads
    both, so sigma_P is built and f∘sigma_P expanded once per point."""

    point: ProjectivePoint
    multiplicity: int
    tangent_cone: HomogeneousPoly | None
    hessian_rank: int | None = None
    hessian_corank: int | None = None
    moved: HomogeneousPoly | None = field(default=None, repr=False, compare=False)
    frame: RationalMatrix | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "multiplicity": self.multiplicity,
            "tangent_cone": str(self.tangent_cone) if self.tangent_cone is not None else None,
            "hessian_rank": self.hessian_rank,
            "hessian_corank": self.hessian_corank,
        }


def analyze_point(f: HomogeneousPoly, p: ProjectivePoint) -> LocalData:
    """Multiplicity, tangent cone and (at a double point) Hessian rank, all
    from one evaluation of f(p) and one coordinate change g = f(sigma x)
    with sigma moving p to [0:...:0:1]."""
    if f.is_zero:
        raise PolyError("multiplicity is undefined for the zero polynomial")
    if f.evaluate(p.coords) != 0:
        return LocalData(p, 0, None)
    sigma = matrix_moving_point_last(p.coords)
    g = apply_linear_change(f, sigma)
    mult = g.d - max(exp[-1] for exp, _ in g.terms)
    cone = last_coefficient(g, mult)
    if mult != 2:
        return LocalData(p, mult, cone, moved=g, frame=sigma)
    rank = quadratic_form_rank(cone)
    return LocalData(p, mult, cone, rank, f.n - rank, g, sigma)


@dataclass
class ScanResult:
    """Singular-point scan output.

    F is f with its denominators cleared and its content removed.
    ``points`` is exact: every canonical rational point (integer, gcd one,
    first nonzero coordinate positive) of height <= ``height_bound`` at which
    F and its gradient vanish, sorted by coordinates, each re-checked in
    Python ints.  ``field_counts`` is heuristic evidence only: for each
    prime p, the number of singular points of F over F_p, that is of points
    of P^n(F_p) at which F and every partial of F vanish mod p; or None when
    P^n(F_p) has more than ``_FIELD_SCAN_LIMIT`` points.  The points and
    the counts for up to 63 primes with p // 2 <= ``height_bound`` come from
    one walk of the evaluator; each larger prime's count from one more walk,
    of its residue box.  Neither proves anything about singular points outside
    the height bound or with irrational coordinates.
    """

    points: tuple[ProjectivePoint, ...]
    height_bound: int
    field_counts: dict[int, int | None] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "height_bound": self.height_bound,
            "field_counts": {str(p): c for p, c in self.field_counts.items()},
            "heuristic": True,
        }


_FIELD_SCAN_LIMIT = 200_000


def check_scan_options(height_bound: int, field_sizes: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless the height bound is >= 1 and every field
    size is a prime below 2^64.  A larger field would get no count anyway:
    P^n(F_p) has more than ``_FIELD_SCAN_LIMIT`` points."""
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    for prime in field_sizes:
        if prime >= 2**64:
            raise ValueError(f"field size {prime} is out of range: it must be below 2^64")
        if not _is_prime(prime):
            raise ValueError(f"field size {prime} is not a prime")


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below
    318665857834031151167461 (about 3.19e23, the least strong pseudoprime to
    all of them), so for every field size below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    if p in bases:
        return True
    if any(p % b == 0 for b in bases):
        return False
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in bases:
        x = pow(b, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _residues(p: int) -> range:
    """The symmetric residues of p, [-((p - 1) // 2), p // 2]."""
    return range(-((p - 1) // 2), p // 2 + 1)


def _integer_table(polys) -> tuple[list[Exponent], list[list[int]]]:
    """The polynomials, {exponent: integer coefficient} mappings, as a
    monomial list and a (monomial x polynomial) coefficient table."""
    monomials = sorted({exp for poly in polys for exp in poly})
    return monomials, [[poly.get(exp, 0) for poly in polys] for exp in monomials]


def _scan_dtype(monomials: list[Exponent], table: list[list[int]], height_bound: int):
    """Evaluation dtype for a walk of the scan: a polynomial of the table
    with coefficients c_j is bounded by sum |c_j| * h^D on the box of height
    h, D the largest degree in the table, and so is every term and every
    partial sum of it."""
    degree = max((sum(exp) for exp in monomials), default=0)
    column_sums = [sum(abs(c) for c in col) for col in zip(*table)]
    return grid.exact_dtype(max(column_sums, default=0) * height_bound**degree)


def _monomial_values(points, exps, dtype):
    """values[i, m] = prod_j points[i, j] ** exps[m, j] in ``dtype``."""
    values = np.ones((len(points), len(exps)), dtype=dtype)
    for j, col in enumerate(points.astype(dtype, copy=False).T):
        degree = int(exps[:, j].max(initial=0))
        if not degree:
            continue
        # powers[e] = col ** e
        powers = np.empty((degree + 1, len(col)), dtype=dtype)
        powers[0] = 1
        for e in range(1, len(powers)):
            np.multiply(powers[e - 1], col, out=powers[e])
        values *= powers[exps[:, j]].T
    return values


# A walk's checks are the bits of one unsigned word per row, 64 at most.
_WALK_CHECKS = 64
# The primes that share one residue table have a product of at most this;
# a larger prime has a table of its own.
_TABLE_SIZE = 2**16


def _zero(values, check: int):
    """Where ``values`` passes ``check``: is 0 (check 0), or 0 mod the prime
    ``check``."""
    return values == values // check * check if check else values == 0


def _survivors(values, words, checks, tables):
    """``(keep, words)`` after one polynomial took ``values`` on some rows:
    which rows some check still holds on, and those rows' words.  With no
    words (one check on all its rows) ``keep`` is that check's filter."""
    if words is None:
        return _zero(values, checks[0]), None
    # Bit 0, the exact check if it is walked, where the value is 0; each
    # prime's bit where the table of the value's residue has it.
    passed = values == 0 if checks[0] == 0 else 0
    for table in tables:
        m = len(table)
        passed = passed | table[(values - values // m * m).astype(np.intp, copy=False)]
    words = words & passed
    keep = words != 0
    return keep, words[keep]


def _row_words(rows, by_value, low: int, lead):
    """The residue word of each of ``rows``, the AND over its entries v of
    ``by_value[v - low]``.  If ``lead`` is not None (the part holds the
    row's first nonzero entry), the rows whose first nonzero entry is not 1
    keep only the bits of ``lead``."""
    words = np.full(len(rows), np.bitwise_or.reduce(by_value), dtype=by_value.dtype)
    first = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T[::-1]:
        words &= by_value[col - low]
        first = np.where(col != 0, col, first)
    if lead is not None:
        words[first != 1] &= lead
    return words


@lru_cache(maxsize=16)
def _check_words(values: range, top: int, width: int, checks: tuple[int, ...], cap: int):
    """The read-only words of a walk with several checks, bit c for check c:
    ``(by_value, tables, tile_words, lead_words)``.

    ``by_value[v - values[0]]`` has the checks whose residues hold the value
    v: check 0 every value, a prime p its symmetric residues.  ``tables``
    split the checked primes, in order, into groups whose product M is at
    most ``_TABLE_SIZE`` (or one prime above it): ``table[r]``, for r in
    0..M-1, has the group's primes that divide r.  ``tile_words`` are the
    residue words of the rows of the tile of ``grid.canonical_split(values,
    top, width)``, and ``lead_words`` those words under the rule that a row
    whose first nonzero entry is not 1 loses its prime bits.  ``cap`` is
    ``grid.BLOCK_ROWS`` at the call, part of the key as in the tile's cache:
    it decides the tile.
    """
    dtype = np.min_scalar_type((1 << len(checks)) - 1)
    by_value = np.array(
        [sum(1 << c for c, p in enumerate(checks) if not p or v in _residues(p)) for v in values],
        dtype=dtype,
    )
    tables = []
    for c, p in enumerate(checks):
        if p:
            if not tables or len(tables[-1]) * p > _TABLE_SIZE:
                tables.append(np.zeros(1, dtype=dtype))
            table = np.tile(tables[-1], p)
            table[::p] |= dtype.type(1 << c)
            tables[-1] = table
    tile = grid.canonical_split(values, top, width)[0]
    tile_words = _row_words(tile, by_value, values[0], None)
    lead_words = _row_words(tile, by_value, values[0], int(checks[0] == 0))
    for array in (by_value, *tables, tile_words, lead_words):
        array.flags.writeable = False
    return by_value, tuple(tables), tile_words, lead_words


def _canonical_zeros(exps, coeffs, values: range, top: int, checks: tuple[int, ...]):
    """Walk the rows of ``product(values, repeat=nvars)`` whose first nonzero
    entry is in 1..``top`` once, and yield ``(rows, words)`` for the rows at
    which every polynomial passes some check: ``rows`` an int64 array of at
    most ``grid.BLOCK_ROWS`` rows, ``words`` one unsigned integer per row,
    whose bit c is set when check c holds there, in no particular order.

    A check is 0, "every polynomial is 0", or a prime p, "every polynomial
    is 0 mod p, on a row of symmetric residues of p whose first nonzero
    entry is 1": those rows are the points of P^n(F_p), one each.  A lone
    check must apply to every row walked (0, or p on its own residue box
    with ``top`` 1); then each polynomial filters the rows as one boolean
    test, and every word yielded is 1.  Up to ``_WALK_CHECKS`` checks share
    a walk; then each row carries one word of the checks still alive, and
    is dropped when it is 0.  A row starts with its residue word, the AND of
    a per-value table over its entries, and loses every prime bit if its
    first nonzero entry is not 1 (the tile's words are cached by
    :func:`_check_words`).  Each polynomial leaves check 0's bit where its
    value is 0 and, by one lookup of the value mod M in a table, M a product
    of the checked primes, the bits of the primes that divide the value.  No
    divisibility test in the walk uses ``%``.

    Column q of ``coeffs`` (monomial x polynomial) holds the integer
    coefficients of polynomial q on the monomials ``exps``, in the dtype of
    the evaluation; every value is exact in it.  The rows are split into
    prefixes and a tile as :func:`grid.canonical_split` describes, so a
    monomial is (prefix part) x (tile part).  Each polynomial is evaluated
    once per row it reaches, only where it can vary.  One that reads no
    prefix coordinate filters the tile rows, once per call; one that reads
    no tile coordinate filters each batch of prefixes.  The rest run on
    (surviving prefixes) x (surviving tile rows): the sparsest as one matrix
    product over its support, and each next one only on the pairs that
    survive all before it.  Every product is c * P * T and every sum is part
    of one polynomial's value, so no value exceeds the bound the dtype was
    chosen for.
    """
    nvars = exps.shape[1]
    tile, is_lead, prefixes = grid.canonical_split(values, top, nvars)
    cut = nvars - tile.shape[1]
    dtype = coeffs.dtype
    masked = len(checks) > 1
    # (support, coefficients) of each polynomial that is not zero, by the
    # side of the split it reads, sparsest first.
    on_tile, on_prefix, mixed = [], [], []
    for col in sorted(coeffs.T, key=np.count_nonzero):
        support = np.flatnonzero(col)
        if len(support):
            reads = exps[support].any(axis=0)
            reads_prefix, reads_tile = reads[:cut].any(), reads[cut:].any()
            side = mixed if reads_prefix and reads_tile else on_prefix if reads_prefix else on_tile
            side.append((support, col[support]))

    def values_on(points, part, support, c):
        """One polynomial's values on ``points``, a part of the split."""
        return _monomial_values(points, exps[support, part], dtype) @ c

    head, tail = slice(cut), slice(cut, None)

    tables = tile_word = lead_word = None
    if masked:
        by_value, tables, tile_words, lead_words = _check_words(
            values, top, nvars, checks, grid.BLOCK_ROWS
        )
        alive = np.flatnonzero(tile_words)
        tile_word = tile_words[alive]
    else:
        alive = np.arange(len(tile))
    for s, c in on_tile:
        keep, tile_word = _survivors(values_on(tile[alive], tail, s, c), tile_word, checks, tables)
        alive = alive[keep]
    if not len(alive):
        return
    tile_values = _monomial_values(tile[alive], exps[:, tail], dtype)
    leading = np.flatnonzero(is_lead[alive])
    if masked and len(leading):
        # Under the zero prefix a tile row holds its row's first nonzero entry.
        lead_word = tile_word[leading] & lead_words[alive[leading]]
        keep = lead_word != 0
        leading, lead_word = leading[keep], lead_word[keep]
    # (prefixes, whether they hold the first nonzero entry, tile rows).
    parts = ((pre, True, alive, tile_values, tile_word) for pre in prefixes)
    if len(leading):
        zero = np.zeros((1, cut), dtype=np.int64)
        parts = chain(parts, [(zero, False, alive[leading], tile_values[leading], lead_word)])
    for pre, lead, rows, row_values, row_word in parts:
        pre_word = None
        if masked:
            pre_word = _row_words(pre, by_value, values[0], int(checks[0] == 0) if lead else None)
            keep = pre_word != 0
            pre, pre_word = pre[keep], pre_word[keep]
        for s, c in on_prefix:
            keep, pre_word = _survivors(values_on(pre, head, s, c), pre_word, checks, tables)
            pre = pre[keep]
        step = max(1, grid.BLOCK_ROWS // len(rows))
        for start in range(0, len(pre), step):
            batch = pre[start : start + step]
            words = pre_word[start : start + step, None] & row_word[None] if masked else None
            if mixed:
                pre_values = _monomial_values(batch, exps[:, head], dtype)
                s, c = mixed[0]
                products = (pre_values[:, s] * c) @ row_values[:, s].T
                keep, words = _survivors(products, words, checks, tables)
            elif masked:
                keep = words != 0
                words = words[keep]
            else:
                keep = np.ones((len(batch), len(rows)), dtype=bool)
            bi, ri = np.nonzero(keep)
            for s, c in mixed[1:]:
                if not len(bi):
                    break
                sums = (pre_values[bi[:, None], s] * c * row_values[ri[:, None], s]).sum(axis=1)
                keep, words = _survivors(sums, words, checks, tables)
                bi, ri = bi[keep], ri[keep]
            if len(bi):
                out = np.empty((len(bi), nvars), dtype=np.int64)
                out[:, :cut] = batch[bi]
                out[:, cut:] = tile[rows[ri]]
                yield out, words if masked else np.ones(len(bi), dtype=np.uint8)


def scan_singular_points(
    f: HomogeneousPoly, height_bound: int, field_sizes: tuple[int, ...] = ()
) -> ScanResult:
    """All rational projective points of height <= bound at which F and its
    gradient vanish (exact), plus heuristic singular counts over finite
    fields.

    F is f with its denominators cleared and its content removed; its
    partials have the rational zeros of f's.  Only canonical points are
    enumerated: coordinates in [-h, h], the first nonzero one in 1..h.  Each
    point of P^n(F_p) is one canonical row of the residues
    [-((p - 1) // 2), p // 2] with first nonzero coordinate 1, which lies in
    that box when p // 2 <= h.  So one walk of ``_canonical_zeros`` checks
    every canonical row exactly and, on those rows, mod each such prime, up
    to ``_WALK_CHECKS`` checks in all: the next such primes walk again,
    ``_WALK_CHECKS`` to a walk, over the residue box of the largest of them.
    A prime with p // 2 > h gets its own walk over its residue box.  The
    partials of F, and F itself when d = 0 or a requested prime divides d,
    are evaluated in exact integers: int64 when max_j sum |c_j| * H^D < 2^63,
    for H the largest coordinate walked and D the largest degree, and Python
    ints otherwise.  (F is needed only then: by Euler, d*F = sum x_i dF/dx_i,
    so where the partials vanish, exactly or mod a prime not dividing d, F
    does too.  A constant F vanishes nowhere.)  The rows that pass the exact
    check with gcd 1 are the points, each re-checked in Python ints, apart
    from numpy; the count for p is the number of rows whose word has p's
    bit, or None when P^n(F_p) has more than ``_FIELD_SCAN_LIMIT`` points.
    Field sizes must be primes below 2^64.  A row that passes the exact
    check but not the re-check raises :class:`InternalConsistencyError`.
    """
    check_scan_options(height_bound, field_sizes)
    if f.is_zero:
        raise PolyError("cannot scan the zero polynomial")
    nvars = f.n + 1
    F = f.primitive
    partials = partial_terms(F)
    counts = {
        p: 0 for p in field_sizes if sum(p**k for k in range(nvars)) <= _FIELD_SCAN_LIMIT
    }
    primes = list(counts)
    if not f.d or any(f.d % p == 0 for p in primes):
        polys = partials + [{exp: c.numerator for exp, c in F.terms}]
    else:
        polys = partials
    monomials, table = _integer_table(polys)
    exps = np.array(monomials, dtype=np.int64).reshape(len(monomials), nvars)
    h = height_bound
    shared = (0, *[p for p in primes if p // 2 <= h])
    chunks = [shared[i : i + _WALK_CHECKS] for i in range(0, len(shared), _WALK_CHECKS)]
    walks = [(range(-h, h + 1), h, chunks[0])]
    walks += [(_residues(max(chunk)), 1, chunk) for chunk in chunks[1:]]
    walks += [(_residues(p), 1, (p,)) for p in primes if p // 2 > h]
    found = []
    for values, top, checks in walks:
        dtype = _scan_dtype(monomials, table, max(-values[0], values[-1]))
        coeffs = np.array(table, dtype=dtype).reshape(len(monomials), len(polys))
        for rows, words in _canonical_zeros(exps, coeffs, values, top, checks):
            for c, p in enumerate(checks):
                if p:
                    counts[p] += int(np.count_nonzero(words >> c & 1))
            if checks[0] == 0:
                exact = rows[words & 1 == 1]
                found += exact[np.gcd.reduce(exact, axis=1) == 1].tolist()
    points = []
    for coords in sorted(map(tuple, found)):
        # The re-check, in Python ints, runs no numpy code.
        if any(sum(c * prod(map(pow, coords, exp)) for exp, c in p.items()) for p in polys):
            raise InternalConsistencyError(
                f"integer scan found {coords}, where F or its gradient does not vanish"
            )
        points.append(ProjectivePoint(coords))
    field_counts = {p: counts.get(p) for p in field_sizes}
    return ScanResult(tuple(points), height_bound, field_counts)

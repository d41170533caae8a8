"""Multiplicity, tangent cones, Hessian ranks, and the singular scan."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product
from math import gcd, lcm

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab import (
    ProjectivePoint,
    RationalMatrix,
    analyze_point,
    apply_linear_change,
    essential_variable_count,
    parse_poly,
    scan_singular_points,
)
from hypstab import grid, local_analysis
from hypstab.families import family_poly
from hypstab.frames import HessianKernel
from hypstab.local_analysis import (
    LocalData,
    PointError,
    _integer_table,
    _is_prime,
    _scan_dtype,
    check_scan_options,
    is_cone,
)
from hypstab.linalg import matrix_moving_point_last
from hypstab.polynomials import HomogeneousPoly, PolyError, format_terms
from hypstab.verdicts import InternalConsistencyError

from conftest import degree_monomials


def P(*coords):
    return ProjectivePoint.make(coords)


def hessian(f, p):
    data = analyze_point(f, p)
    return data.hessian_rank, data.hessian_corank


class TestProjectivePoint:
    def test_canonicalization(self):
        assert P(Fraction(1, 2), Fraction(1, 3), 0).coords == (3, 2, 0)
        assert P(-2, 4, -6).coords == (1, -2, 3)
        assert P(0, 0, 5).coords == (0, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(PointError):
            P(0, 0, 0)


class TestMultiplicity:
    def test_f2_at_q(self, corpus):
        assert analyze_point(corpus["f2"], P(0, 0, 1)).multiplicity == 2

    def test_g3_both_points(self):
        g3 = parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3)
        assert analyze_point(g3, P(1, 0, 0, 0)).multiplicity == 2
        assert analyze_point(g3, P(0, 0, 0, 1)).multiplicity == 2

    def test_smooth_point(self, corpus):
        assert analyze_point(corpus["fermat_cubic"], P(1, -1, 0)).multiplicity == 1

    def test_off_hypersurface_returns_zero(self, corpus):
        assert analyze_point(corpus["f2"], P(1, 1, 1)).multiplicity == 0

    def test_cone_vertex_full_multiplicity(self):
        cone = parse_poly("x0^3 + x1^3 + x2^3", 3)
        assert analyze_point(cone, P(0, 0, 0, 1)).multiplicity == 3

    def test_invariance_under_stabilizing_change(self, corpus, rng):
        f = corpus["f2"]
        q = P(0, 0, 1)
        for _ in range(10):
            rows = [
                [1, rng.randint(-2, 2), rng.randint(-2, 2)],
                [0, 1, rng.randint(-2, 2)],
                [0, 0, rng.choice([1, 2, -1])],
            ]
            sigma = RationalMatrix.from_rows(rows)
            g = apply_linear_change(f, sigma)
            assert analyze_point(g, q).multiplicity == analyze_point(f, q).multiplicity
            assert hessian(g, q) == hessian(f, q)


class TestHessianRank:
    def test_f2(self, corpus):
        assert hessian(corpus["f2"], P(0, 0, 1)) == (1, 1)

    def test_nodal_cubic(self, corpus):
        assert hessian(corpus["nodal_cubic"], P(0, 0, 1)) == (2, 0)

    def test_g3(self):
        g3 = parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3)
        rank, corank = hessian(g3, P(0, 0, 0, 1))
        assert (rank, corank) == (1, 2)


def _fraction_matrix(q):
    """The symmetric matrix of q in Fractions: c on the diagonal for c*x_i^2,
    c/2 twice for c*x_i*x_j."""
    m = q.nvars
    mat = [[Fraction(0)] * m for _ in range(m)]
    for exp, c in q.terms:
        i, j = [k for k, e in enumerate(exp) for _ in range(e)]
        mat[i][j] += c if i == j else c / 2
        if i != j:
            mat[j][i] += c / 2
    return mat


@st.composite
def _quadratic_forms(draw):
    """Quadratic forms in 1-5 variables with rational coefficients, odd
    cross coefficients among them: sparse random ones, and sums of r < m
    weighted squares of integer linear forms, whose rank is below m."""
    m = draw(st.integers(1, 5), label="m")
    if draw(st.booleans(), label="low rank"):
        acc = {}
        for _ in range(draw(st.integers(0, m - 1))):
            weight = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.sampled_from([1, 2, 3])))
            line = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
            for i, j in product(range(m), repeat=2):
                if i <= j and line[i] * line[j]:
                    e = tuple((k == i) + (k == j) for k in range(m))
                    acc[e] = acc.get(e, 0) + weight * line[i] * line[j] * (1 if i == j else 2)
        return HomogeneousPoly.make(m - 1, 2, acc)
    support = draw(st.lists(st.sampled_from(degree_monomials(m - 1, 2)), max_size=6, unique=True))
    coeffs = st.one_of(st.sampled_from([-3, -1, 1, 3, 5]), st.fractions(-7, 7, max_denominator=4))
    return HomogeneousPoly.make(m - 1, 2, {e: draw(coeffs) for e in support})


def _primitive(v):
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    return tuple(x // gcd(*ints) for x in ints)


class TestQuadraticFormMatrix:
    """The integer matrix of 2L*Q against sympy on Q's Fraction matrix."""

    def test_odd_cross_coefficient(self):
        q = parse_poly("x0^2 + 3*x0*x1 - 1/2*x1^2", 1)
        assert local_analysis.quadratic_form_matrix(q) == [[4, 6], [6, -2]]

    @given(_quadratic_forms())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matrix_is_2L_times_the_fraction_matrix(self, q):
        scale = q.integer_view.scale
        ints = local_analysis.quadratic_form_matrix(q)
        assert ints == [[2 * scale * x for x in row] for row in _fraction_matrix(q)]
        assert all(type(x) is int for row in ints for x in row)

    @given(_quadratic_forms())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_rank_and_kernel_match_sympy(self, q):
        reference = sympy.Matrix(_fraction_matrix(q)).applyfunc(sympy.Rational)
        assert local_analysis.quadratic_form_rank(q) == reference.rank()
        point = ProjectivePoint((0,) * q.nvars + (1,))
        data = LocalData(point, 2, q, frame=RationalMatrix.identity(q.nvars + 1))
        kernel = HessianKernel.of(data)
        # sympy's nullspace is the reduced echelon basis too: per free column,
        # free variable 1 and the other free variables 0.
        expected = [_primitive([Fraction(int(x.p), int(x.q)) for x in v]) for v in reference.nullspace()]
        assert list(kernel.vectors) == expected

    def test_not_quadratic_rejected(self):
        with pytest.raises(PolyError, match="degree 2"):
            local_analysis.quadratic_form_matrix(parse_poly("x0^3 + x1^3", 1))


class TestEssentialVariables:
    def test_product_is_cone_in_three_vars(self):
        h = HomogeneousPoly.make(2, 2, {(1, 1, 0): 1})
        assert essential_variable_count(h) == 2
        assert is_cone(h)

    def test_full_quadric_not_cone(self):
        h = HomogeneousPoly.make(2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        assert essential_variable_count(h) == 3
        assert not is_cone(h)

    def test_perfect_square_is_cone(self):
        h = HomogeneousPoly.make(1, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert essential_variable_count(h) == 1
        assert is_cone(h)

    def test_zero_rejected(self):
        with pytest.raises(Exception):
            essential_variable_count(HomogeneousPoly.make(1, 2, {}))


class TestScan:
    def test_f2(self, corpus):
        scan = scan_singular_points(corpus["f2"], 2)
        assert [p.coords for p in scan.points] == [(0, 0, 1)]

    def test_g3(self):
        g3 = parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3)
        scan = scan_singular_points(g3, 2)
        assert [p.coords for p in scan.points] == [(0, 0, 0, 1), (1, 0, 0, 0)]

    def test_smooth_fermat(self, corpus):
        assert scan_singular_points(corpus["fermat_cubic"], 3).points == ()

    def test_finite_field_counts(self, corpus):
        scan = scan_singular_points(corpus["f2"], 2, field_sizes=(3, 5))
        # One rational singular point, isolated: small constant counts.
        assert scan.field_counts[3] >= 1
        assert scan.field_counts[5] >= 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fn_counts_over_f3(self, n):
        # Over F_3, x1^3 + ... + x_{n-1}^3 = (x1 + ... + x_{n-1})^3, so the
        # singular points are x0 = 0 and x1 + ... + x_{n-1} = 0: a P^(n-2).
        scan = scan_singular_points(family_poly("fn", n), 1, field_sizes=(3,))
        assert scan.field_counts[3] == (3 ** (n - 1) - 1) // 2

    @pytest.mark.parametrize(
        "text, p, count",
        [
            ("x0^2*x2 + x1^3", 3, 1),
            # The line x0 + x1 + x2 = 0, not all of P^2(F_3).
            ("x0^3 + x1^3 + x2^3", 3, 4),
            ("2*x0^3 + 2*x1^3 + 2*x2^3", 3, 4),
            ("1/2*x0^3 + 1/2*x1^3 + 1/2*x2^3", 3, 4),
            ("x0^3 + x1^3 + x2^3", 2, 0),
            ("2*x0^3 + 2*x1^3 + 2*x2^3", 2, 0),
            ("1/2*x0^3 + 1/2*x1^3 + 1/2*x2^3", 2, 0),
        ],
    )
    def test_counts_singular_points(self, text, p, count):
        scan = scan_singular_points(parse_poly(text, 2), 1, field_sizes=(p,))
        assert scan.field_counts[p] == count

    def test_counts_invariant_under_scaling(self, rng):
        for _ in range(30):
            n, d = rng.randint(1, 3), rng.randint(2, 4)
            f = _random_form(rng, n, d, rng.randint(1, 4))
            c = Fraction(rng.choice([-21, -2, 1, 3, 6, 7, 10]), rng.choice([1, 5, 35]))
            cf = HomogeneousPoly.make(n, d, {exp: c * v for exp, v in f.terms})
            counts = scan_singular_points(f, 1, (2, 3, 5, 7)).field_counts
            assert scan_singular_points(cf, 1, (2, 3, 5, 7)).field_counts == counts, (f, c)

    def test_positive_dimensional_locus_shows_up(self):
        # x0^2 * x1 (as a cubic in P^2, via x0^2*x1): singular along x0 = 0.
        f = parse_poly("x0^2*x1", 2)
        scan = scan_singular_points(f, 2, field_sizes=(5,))
        assert len(scan.points) >= 3  # a line's worth of small points
        assert scan.field_counts[5] == 5 + 1  # P^1 over F_5


def _reference_scan(f, height_bound, primes):
    """The scan as a per-point loop: Fraction partials over the whole box,
    and f itself when d = 0 (by Euler it vanishes with them when d >= 1),
    and for each field the points of P^n(F_p) at which F and every partial
    of F vanish, F being f with denominators cleared and content removed,
    counted one point at a time."""
    nvars = f.n + 1
    checked = [f.partial_derivative(j) for j in range(nvars)] + ([] if f.d else [f])
    points = []
    for coords in product(range(-height_bound, height_bound + 1), repeat=nvars):
        if not any(coords) or gcd(*coords) != 1 or next(c for c in coords if c) < 0:
            continue
        if all(p.evaluate(coords) == 0 for p in checked):
            points.append(coords)
    scale = lcm(*(c.denominator for _, c in f.terms))
    content = gcd(*(int(c * scale) for _, c in f.terms))
    F = HomogeneousPoly.make(f.n, f.d, {exp: c * scale / content for exp, c in f.terms})
    polys = [F] + [F.partial_derivative(j) for j in range(nvars)]
    counts = {}
    for p in primes:
        reduced = [{exp: int(c) % p for exp, c in poly.terms} for poly in polys]
        count = 0
        for k in range(nvars):
            for tail in product(range(p), repeat=nvars - k - 1):
                point = (0,) * k + (1,) + tail
                for poly in reduced:
                    total = 0
                    for exp, c in poly.items():
                        v = c
                        for x, e in zip(point, exp):
                            v = v * pow(x, e, p) % p
                        total = (total + v) % p
                    if total != 0:
                        break
                else:
                    count += 1
        counts[p] = count
    return sorted(points), counts


def _gradient_vanishes(block, exps, coeffs, modulus=None):
    """The block evaluator the factored scan replaced: every power of every
    row, the monomial columns gathered, times the whole coefficient table."""
    values = np.ones((len(block), len(exps)), dtype=coeffs.dtype)
    for j, col in enumerate(block.astype(coeffs.dtype, copy=False).T):
        powers = [np.ones_like(col)]
        for _ in range(int(exps[:, j].max(initial=0))):
            powers.append(powers[-1] * col)
            if modulus:
                powers[-1] %= modulus
        values *= np.stack(powers, axis=1)[:, exps[:, j]]
        if modulus:
            values %= modulus
    sums = values @ coeffs
    if modulus:
        sums %= modulus
    return (sums == 0).all(axis=1)


def _blocks(values, width, head):
    """The rows ``head + t`` for ``t`` in ``product(values, repeat=width)``,
    as int64 arrays of at most 4096 rows."""
    rows = (head + t for t in product(values, repeat=width))
    while block := list(islice(rows, 4096)):
        yield np.array(block, dtype=np.int64)


def _cleared(p):
    """p with its denominators cleared, as {exponent: integer coefficient}."""
    return dict(zip(p.support(), p.integer_view.ints))


def _blockwise_scan(f, height_bound, primes):
    """The scan over plain ``product`` blocks with the block evaluator: rows
    with gcd != 1 dropped first, then every polynomial evaluated on every row."""
    nvars = f.n + 1
    partials = [f.partial_derivative(j) for j in range(nvars)]
    monomials, table = _integer_table([_cleared(p) for p in partials])
    exps = np.array(monomials, dtype=np.int64)
    coeffs = np.array(table, dtype=_scan_dtype(monomials, table, height_bound))
    box = range(-height_bound, height_bound + 1)
    points = []
    for k in range(nvars):
        for a in range(1, height_bound + 1):
            for block in _blocks(box, nvars - k - 1, (0,) * k + (a,)):
                block = block[np.gcd.reduce(block, axis=1) == 1]
                hits = block[_gradient_vanishes(block, exps, coeffs)]
                points += [tuple(int(c) for c in row) for row in hits]
    F = f.primitive
    polys = [F] + [F.partial_derivative(j) for j in range(nvars)]
    monomials, table = _integer_table([_cleared(p) for p in polys])
    exps = np.array(monomials, dtype=np.int64)
    counts = {}
    for p in primes:
        coeffs = np.array([[c % p for c in row] for row in table], dtype=np.int64)
        counts[p] = sum(
            int(_gradient_vanishes(block, exps, coeffs, p).sum())
            for k in range(nvars)
            for block in _blocks(range(p), nvars - k - 1, (0,) * k + (1,))
        )
    return sorted(points), counts


def _dtype_for(f, height_bound):
    partials = [f.partial_derivative(j) for j in range(f.n + 1)]
    return _scan_dtype(*_integer_table([_cleared(p) for p in partials]), height_bound)


def _draw_form(data, max_n, max_d):
    n = data.draw(st.integers(min_value=1, max_value=max_n))
    d = data.draw(st.integers(min_value=2, max_value=max_d))
    monomials = data.draw(
        st.lists(st.sampled_from(degree_monomials(n, d)), min_size=1, max_size=4, unique=True)
    )
    coeffs = data.draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(
                lambda c: c.denominator > 1
            ),
            min_size=len(monomials),
            max_size=len(monomials),
        )
    )
    return HomogeneousPoly.make(n, d, dict(zip(monomials, coeffs)))


def _random_form(rng, n, d, terms):
    monomials = degree_monomials(n, d)
    monomials = rng.sample(monomials, min(terms, len(monomials)))
    return HomogeneousPoly.make(n, d, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in monomials})


def _split_form(data, n, cut, d):
    """A form with monomials from three pools: those in x_0..x_{cut-1} only,
    those in x_cut..x_n only, and the rest.  Split after coordinate cut, the
    partials of the first two pools read only prefix or only tile
    coordinates; at d = 1 the partials are constants and read neither.
    Coefficients include multiples of 3 and 5, so that some partials vanish
    mod p."""
    monomials = degree_monomials(n, d)
    pools = [
        [m for m in monomials if not any(m[cut:])],
        [m for m in monomials if not any(m[:cut])],
        [m for m in monomials if any(m[:cut]) and any(m[cut:])],
    ]
    chosen = {data.draw(st.sampled_from(monomials))}
    for pool in pools:
        if pool:
            chosen.update(data.draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)))
    coeffs = st.sampled_from([-9, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10])
    return HomogeneousPoly.make(n, d, {m: data.draw(coeffs) for m in sorted(chosen)})


class TestScanReference:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_points_and_counts_match_reference(self, data):
        f = _draw_form(data, 3, 4)
        h = data.draw(st.integers(min_value=1, max_value=2))
        scan = scan_singular_points(f, h, field_sizes=(2, 3, 5))
        points, counts = _reference_scan(f, h, (2, 3, 5))
        assert [p.coords for p in scan.points] == points
        assert scan.field_counts == counts

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_small_blocks_match_reference(self, data):
        # Below 2h + 1 rows per block every box has a nonempty prefix, and
        # its prefixes span several batches.
        f = _draw_form(data, 3, 4)
        h = data.draw(st.integers(min_value=1, max_value=2))
        rows = data.draw(st.sampled_from([1, 2, 7, 30]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "BLOCK_ROWS", rows)
            scan = scan_singular_points(f, h, field_sizes=(2, 3, 5))
        points, counts = _reference_scan(f, h, (2, 3, 5))
        assert [p.coords for p in scan.points] == points
        assert scan.field_counts == counts

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_split_forms_match_reference(self, data):
        # BLOCK_ROWS = m^t makes the tile exactly the last t coordinates of a
        # box of m values, so each pool of _split_form lands on one level of
        # the evaluator, and prefixes exist for every n <= 3.
        n = data.draw(st.integers(min_value=1, max_value=3))
        d = data.draw(st.integers(min_value=1, max_value=4))
        prime = data.draw(st.sampled_from([None, 2, 3, 5]))
        h = data.draw(st.integers(min_value=1, max_value=2)) if prime is None else 1
        t = data.draw(st.integers(min_value=0, max_value=n))
        f = _split_form(data, n, n + 1 - t, d)
        primes = (prime,) if prime else ()
        real = local_analysis._canonical_zeros
        # p = 2, 3 share the box of height h = 1; 5 walks its own residues.
        rows = (prime if prime and prime // 2 > h else 2 * h + 1) ** t

        def capped(*args):
            for hits, words in real(*args):
                assert 0 < len(hits) == len(words) <= rows
                assert (words != 0).all()
                yield hits, words

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "BLOCK_ROWS", rows)
            mp.setattr(local_analysis, "_canonical_zeros", capped)
            scan = scan_singular_points(f, h, field_sizes=primes)
        points, counts = _reference_scan(f, h, primes)
        assert [p.coords for p in scan.points] == points, f
        assert scan.field_counts == counts, f

    def test_one_evaluator_pass_per_box(self, monkeypatch):
        # One walk checks every prime with p // 2 <= h along with the
        # rational scan; each larger prime walks its own residue box.
        real = local_analysis._canonical_zeros
        calls = []

        def counted(*args):
            calls.append(args[2:5])
            return real(*args)

        monkeypatch.setattr(local_analysis, "_canonical_zeros", counted)
        f = family_poly("fn", 6)
        counts = {2: 1, 3: 121, 5: 1, 7: 1}
        assert scan_singular_points(f, 3, field_sizes=(2, 3, 5, 7)).field_counts == counts
        assert calls == [(range(-3, 4), 3, (0, 2, 3, 5, 7))]
        calls.clear()
        assert scan_singular_points(f, 1, field_sizes=(2, 3, 5, 7)).field_counts == counts
        assert calls == [
            (range(-1, 2), 1, (0, 2, 3)),
            (range(-2, 3), 1, (5,)),
            (range(-3, 4), 1, (7,)),
        ]

    @pytest.mark.parametrize(
        "text, n",
        [
            ("x0^3 + x1^3 + x2^3", 2),  # 3 divides d and every partial
            ("5*x0^2*x1 + x1^2*x2 + 7*x2^3", 2),  # 2 and 5 divide d/dx0 = 10*x0*x1
            ("x0^5 + x1^5 + x0*x1*x2^3", 2),  # 5 divides d
            ("x0^2*x3^2 + x0*x2^3 + x1^4", 3),  # 2 divides d
            ("6*x0^2 + 10*x0*x1 - 15*x1^2", 1),
            ("x0*x1", 1),
            ("x0^0*x1^0*x2^0", 2),  # d = 0: F is 1, so no point vanishes
        ],
    )
    def test_counts_match_brute_force(self, text, n):
        # Every prime from 2 to 13 (repeated), at each height 1-3: a prime
        # shares the height walk when p // 2 <= h and walks alone otherwise.
        f = parse_poly(text, n)
        primes = (2, 3, 5, 7, 11, 13, 3, 7)
        for h in (1, 2, 3):
            scan = scan_singular_points(f, h, field_sizes=primes)
            points, counts = _reference_scan(f, h, primes)
            assert [p.coords for p in scan.points] == points, (text, h)
            assert scan.field_counts == counts, (text, h)
            assert list(scan.field_counts) == [2, 3, 5, 7, 11, 13]

    def test_random_counts_match_brute_force(self, rng, monkeypatch):
        for _ in range(40):
            n, d, h = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
            h = min(h, 2) if n == 3 else h
            f = _random_form(rng, n, d, rng.randint(1, 5))
            primes = tuple(rng.choice((2, 3, 5, 7, 11, 13)) for _ in range(rng.randint(1, 5)))
            # Small blocks put the split at every coordinate.
            monkeypatch.setattr(grid, "BLOCK_ROWS", rng.choice([1, 7, 30, 4096]))
            scan = scan_singular_points(f, h, field_sizes=primes)
            points, counts = _reference_scan(f, h, primes)
            assert [p.coords for p in scan.points] == points, (f, h, primes)
            assert scan.field_counts == counts, (f, h, primes)

    def test_nine_checks_in_one_walk(self, monkeypatch):
        # Height 10 covers every prime below 21: the exact check and eight
        # primes, more checks than a byte of flags would hold, in one walk.
        real = local_analysis._canonical_zeros
        calls = []

        def counted(*args):
            calls.append(args[4])
            return real(*args)

        monkeypatch.setattr(local_analysis, "_canonical_zeros", counted)
        primes = (2, 3, 5, 7, 11, 13, 17, 19)
        rng = random.Random(9)
        for f in [parse_poly("x0^2*x2 + x1^3", 2)] + [_random_form(rng, 2, 3, 4) for _ in range(3)]:
            calls.clear()
            scan = scan_singular_points(f, 10, field_sizes=primes)
            assert calls == [(0,) + primes]
            points, counts = _reference_scan(f, 10, primes)
            assert [p.coords for p in scan.points] == points, f
            assert scan.field_counts == counts, f

    def test_sixty_six_primes_take_two_walks(self, monkeypatch):
        # At height 160 every prime up to 321 shares the box of a binary
        # form: 66 primes and the exact check, three past the 64 bits of a
        # word, which walk again over the residues of the largest of them.
        # f = x0*x1^2*(x0 - 311*x1)*(x0 - 313*x1) has one singular point over
        # most F_p and two over F_2, F_311 and F_313, so a dropped check
        # reads 0 and one that wraps onto another bit reads that bit's count.
        real = local_analysis._canonical_zeros
        calls = []

        def counted(*args):
            calls.append(args[2:5])
            return real(*args)

        monkeypatch.setattr(local_analysis, "_canonical_zeros", counted)
        primes = tuple(sympy.primerange(2, 322))
        assert len(primes) == 66 and primes[-3:] == (311, 313, 317)
        f = parse_poly("x0^3*x1^2 - 624*x0^2*x1^3 + 97343*x0*x1^4", 1)
        scan = scan_singular_points(f, 160, field_sizes=primes)
        assert calls == [
            (range(-160, 161), 160, (0,) + primes[:63]),
            (range(-158, 159), 1, primes[63:]),
        ]
        points, counts = _reference_scan(f, 160, primes)
        assert [p.coords for p in scan.points] == points == [(1, 0)]
        assert scan.field_counts == counts
        assert {p for p, c in counts.items() if c == 2} == {2, 311, 313}
        assert set(counts.values()) == {1, 2}

    def test_walks_split_at_the_check_limit(self, monkeypatch):
        # With three checks a word, the exact check and the six primes up to
        # 13 take three walks of their own boxes; the last is 13's alone.
        real = local_analysis._canonical_zeros
        calls = []

        def counted(*args):
            calls.append(args[2:5])
            return real(*args)

        monkeypatch.setattr(local_analysis, "_canonical_zeros", counted)
        monkeypatch.setattr(local_analysis, "_WALK_CHECKS", 3)
        primes = (2, 3, 5, 7, 11, 13)
        rng = random.Random(34)
        for _ in range(12):
            n = rng.randint(1, 2)
            f = _random_form(rng, n, rng.randint(2, 4), rng.randint(1, 4))
            monkeypatch.setattr(grid, "BLOCK_ROWS", rng.choice([1, 7, 30, 4096]))
            calls.clear()
            scan = scan_singular_points(f, 6, field_sizes=primes)
            assert calls == [
                (range(-6, 7), 6, (0, 2, 3)),
                (range(-5, 6), 1, (5, 7, 11)),
                (range(-6, 7), 1, (13,)),
            ]
            points, counts = _reference_scan(f, 6, primes)
            assert [p.coords for p in scan.points] == points, f
            assert scan.field_counts == counts, f

    def test_cached_check_words(self, monkeypatch):
        # The words of a tile are cached read-only beside it, under the same
        # key, so a scan at a patched cap reads words for its own tile; caps
        # below 7 make the tile 0 wide, one empty row, whose words read no
        # entry.
        values, top, width, checks = range(-3, 4), 3, 4, (0, 2, 3, 5, 7)

        def expected(row):
            residue = sum(
                1 << c
                for c, p in enumerate(checks)
                if all(-((p - 1) // 2) <= v <= p // 2 for v in row) or not p
            )
            return residue, residue if next((v for v in row if v), 0) == 1 else residue & 1

        f = family_poly("fn", 3)
        points, counts = _reference_scan(f, top, checks[1:])
        for rows in (4096, 50, 7, 2, 1):
            monkeypatch.setattr(grid, "BLOCK_ROWS", rows)
            scan = scan_singular_points(f, top, field_sizes=checks[1:])
            assert ([p.coords for p in scan.points], scan.field_counts) == (points, counts)
            tile = grid.canonical_split(values, top, width)[0]
            words = local_analysis._check_words(values, top, width, checks, rows)
            assert local_analysis._check_words(values, top, width, checks, rows) is words
            by_value, tables, tile_words, lead_words = words
            assert len(tile_words) == len(lead_words) == len(tile)
            assert list(zip(tile_words.tolist(), lead_words.tolist())) == [
                expected(row) for row in tile.tolist()
            ]
            for array in (by_value, *tables, tile_words, lead_words):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
        assert tile.shape == (1, 0) and tile_words.tolist() == [31]

    def test_residue_tables_split_past_2_to_the_16(self):
        # 251 * 257 fits one table of 64507 residues; 263 gets its own.
        checks = (0, 251, 257, 263)
        _, tables, _, _ = local_analysis._check_words(range(-131, 132), 131, 2, checks, 4096)
        assert [len(t) for t in tables] == [251 * 257, 263]
        rng = random.Random(16)
        for v in [0, 1, -1, 251 * 257 * 263] + [rng.randint(-(10**12), 10**12) for _ in range(200)]:
            word = tables[0][v - v // len(tables[0]) * len(tables[0])]
            word |= tables[1][v - v // 263 * 263]
            assert word == sum(1 << c for c, p in enumerate(checks) if p and v % p == 0), v

    @pytest.mark.parametrize(
        "n, primes, forms",
        [
            (5, (7,), [("fn", 5), ("gn", 5), (3, 3), (3, 6), (4, 4)]),
            (6, (), [("fn", 6), ("gn", 6), (3, 4), (4, 3)]),
        ],
    )
    def test_matches_block_evaluator(self, n, primes, forms):
        rng = random.Random(n)
        polys = [
            family_poly(*form) if isinstance(form[0], str) else _random_form(rng, n, *form)
            for form in forms
        ]
        for f in polys:
            scan = scan_singular_points(f, 3, field_sizes=primes)
            points, counts = _blockwise_scan(f, 3, primes)
            assert [p.coords for p in scan.points] == points, f
            assert scan.field_counts == counts, f

    def test_object_dtype_above_int64(self):
        f = HomogeneousPoly.make(2, 3, {(2, 0, 1): 10000000000000000000, (0, 3, 0): 1})
        assert _dtype_for(f, 2) is object
        expected = _reference_scan(f, 2, (3,))
        scan = scan_singular_points(f, 2, field_sizes=(3,))
        assert ([p.coords for p in scan.points], scan.field_counts) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "BLOCK_ROWS", 7)  # one-column tiles, two-column prefixes
            scan = scan_singular_points(f, 2, field_sizes=(3,))
        assert ([p.coords for p in scan.points], scan.field_counts) == expected

    def test_int64_just_below_bound(self):
        # Partials c*x1 and c*x0: the bound is c * h^1 with h = 1.
        c = 2**63 - 1
        f = HomogeneousPoly.make(2, 2, {(1, 1, 0): c})
        assert _dtype_for(f, 1) is np.int64
        assert _dtype_for(HomogeneousPoly.make(2, 2, {(1, 1, 0): c + 1}), 1) is object
        scan = scan_singular_points(f, 1)
        assert [p.coords for p in scan.points] == _reference_scan(f, 1, ())[0] == [(0, 0, 1)]

    def test_false_hit_raises(self, corpus, monkeypatch):
        # A row the integer evaluator wrongly reports fails the exact re-check.
        false_hit = (np.array([[1, 1, 1]]), np.array([1], dtype=np.uint8))
        monkeypatch.setattr(local_analysis, "_canonical_zeros", lambda *args: iter([false_hit]))
        with pytest.raises(InternalConsistencyError, match="does not vanish"):
            scan_singular_points(corpus["f2"], 1)

    @pytest.mark.parametrize("size", [0, 1, 4, 9, -2])
    def test_non_prime_field_rejected(self, corpus, size):
        with pytest.raises(ValueError, match="not a prime"):
            scan_singular_points(corpus["f2"], 1, field_sizes=(size,))


# The least strong pseudoprime to the bases 2..37 that the primality test uses.
PSI12 = 318665857834031151167461


class TestIsPrime:
    def test_matches_a_sieve(self):
        limit = 10**5
        sieve = [False, False] + [True] * (limit - 2)
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = [False] * len(range(p * p, limit, p))
        assert [p for p in range(-3, limit) if _is_prime(p)] == [p for p in range(limit) if sieve[p]]

    @pytest.mark.parametrize(
        "value, prime",
        [
            (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
            (3825123056546413051, False),  # strong pseudoprime to the bases 2..23
            (399165290221, True),  # the two factors of PSI12
            (798330580441, True),
            (2**61 - 1, True),
            (2**64 - 59, True),  # the largest prime below 2^64
        ],
    )
    def test_large_values(self, value, prime):
        assert _is_prime(value) is prime

    @pytest.mark.parametrize("size", [PSI12, 2**64 + 13, 2**64])
    def test_field_sizes_from_2_64_are_out_of_range(self, size):
        assert PSI12 == 399165290221 * 798330580441
        with pytest.raises(ValueError, match=f"field size {size} is out of range"):
            check_scan_options(1, (size,))


class TestAnalyzePoint:
    def test_local_data_fields(self, corpus):
        data = analyze_point(corpus["f2"], P(0, 0, 1))
        assert data.multiplicity == 2
        assert data.hessian_rank == 1 and data.hessian_corank == 1
        assert str(data.tangent_cone) == "x0^2"

    def test_tangent_cone_cubic_point(self):
        cone = parse_poly("x0^3 + x1^3 + x2^3", 3)
        data = analyze_point(cone, P(0, 0, 0, 1))
        assert data.multiplicity == 3
        assert data.hessian_rank is None
        assert not data.tangent_cone.is_zero

    @pytest.mark.parametrize(
        "text, n",
        [
            ("x0^2*x2 + x1^3", 2),  # cusp at [0:0:1]
            ("x1^2*x2 - x0^2*x2 - x0^3", 2),  # node at [0:0:1]
            ("x0^2*x3 + x1^3 + x2^3", 3),  # cone: a line of singular points
            ("x0^3 + x1^3 + x2^3", 3),  # a cone: a triple point
            ("x0^2*x2^2 + x0*x1^3", 2),  # two singular points
        ],
    )
    def test_one_chart_per_singular_point(self, monkeypatch, text, n):
        f = parse_poly(text, n)
        points = scan_singular_points(f, 2).points
        assert points
        calls = []

        def counted(g, sigma):
            calls.append(sigma)
            return apply_linear_change(g, sigma)

        monkeypatch.setattr(local_analysis, "apply_linear_change", counted)
        for p in points:
            calls.clear()
            data = analyze_point(f, p)
            assert len(calls) == 1
            assert data.multiplicity >= 2
            assert (data.hessian_rank is not None) == (data.multiplicity == 2)

    def test_a_double_point_is_a_cone_exactly_below_full_rank(self, corpus):
        # The tangent cone at a double point is a quadric in n variables, so
        # the profile builder reads "not a cone" from Hessian rank n.
        doubles = [
            (f.n, data)
            for f in corpus.values()
            for data in (analyze_point(f, p) for p in scan_singular_points(f, 2).points)
            if data.multiplicity == 2
        ]
        assert {d.hessian_rank < n for n, d in doubles} == {True, False}
        assert all(is_cone(d.tangent_cone) == (d.hessian_rank < n) for n, d in doubles)

    def test_point_off_the_hypersurface_builds_no_chart(self, corpus, monkeypatch):
        monkeypatch.setattr(local_analysis, "apply_linear_change", None)
        data = analyze_point(corpus["f2"], P(1, 1, 1))
        assert data.multiplicity == 0 and data.frame is None and data.moved is None

    def test_zero_polynomial_rejected(self):
        with pytest.raises(PolyError, match="zero polynomial"):
            analyze_point(HomogeneousPoly.make(2, 3, {}), P(0, 0, 1))

    def test_binary_double_point(self):
        # The tangent cone of a binary form is a form in one variable.
        data = analyze_point(parse_poly("x0^2*x1 + x0^3", 1), P(0, 1))
        assert data.multiplicity == 2
        assert str(data.tangent_cone) == "x0^2"
        assert (data.hessian_rank, data.hessian_corank) == (1, 0)
        assert not is_cone(data.tangent_cone)

    def test_binary_triple_point(self):
        data = analyze_point(parse_poly("x0^3", 1), P(0, 1))
        assert data.multiplicity == 3
        assert str(data.tangent_cone) == "x0^3"


def _chart_reference(f, p):
    """(multiplicity, tangent cone, Hessian rank, corank) the long way:
    dehomogenize the moved form at x_n = 1, take its lowest-degree part, and
    rank that part's symmetric matrix with sympy."""
    if f.evaluate(p.coords) != 0:
        return 0, None, None, None
    g = apply_linear_change(f, matrix_moving_point_last(p.coords))
    chart = {}
    for exp, c in g.terms:
        chart[exp[:-1]] = chart.get(exp[:-1], 0) + c
    chart = {e: c for e, c in chart.items() if c}
    mult = min(sum(e) for e in chart)
    cone = tuple(sorted(((e, c) for e, c in chart.items() if sum(e) == mult), reverse=True))
    if mult != 2:
        return mult, format_terms(cone), None, None
    q = sympy.zeros(f.n, f.n)
    for e, c in cone:
        i, j = [k for k, x in enumerate(e) for _ in range(x)]
        half = sympy.Rational(c.numerator, 2 * c.denominator)
        q[i, j] += half
        q[j, i] += half
    rank = q.rank()
    return mult, format_terms(cone), rank, f.n - rank


_NON_INTEGER = st.builds(Fraction, st.integers(-12, 12), st.integers(2, 6)).filter(
    lambda c: c.denominator > 1
)


class TestAgainstChartPath:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_local_data_match(self, data):
        """A form g with every x_n exponent at most d - m has multiplicity at
        least m at [0:...:0:1]; m = 0 adds x_n^d, which puts that point off
        the hypersurface.  f = g(x tau) for a random unimodular tau carries
        the point to P = e_n tau^(-1)."""
        n = data.draw(st.integers(1, 3), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        m = data.draw(st.integers(0, d), label="m")
        allowed = [e for e in degree_monomials(n, d) if e[-1] <= d - max(m, 1)]
        support = data.draw(
            st.lists(st.sampled_from(allowed), min_size=1, max_size=6, unique=True)
        )
        if m == 0:
            support.append(tuple(d * (j == n) for j in range(n + 1)))
        coeffs = data.draw(st.lists(_NON_INTEGER, min_size=len(support), max_size=len(support)))
        g = HomogeneousPoly.make(n, d, dict(zip(support, coeffs)))
        size, entries = n + 1, st.integers(-2, 2)
        lower = sympy.Matrix(size, size, lambda i, j: data.draw(entries) if i > j else int(i == j))
        upper = sympy.Matrix(size, size, lambda i, j: data.draw(entries) if i < j else int(i == j))
        tau = lower * upper
        rows = [[int(x) for x in row] for row in tau.tolist()]
        f = apply_linear_change(g, RationalMatrix.from_rows(rows))
        point = P(*(int(x) for x in tau.inv().row(n)))

        local = analyze_point(f, point)
        cone = None if local.tangent_cone is None else str(local.tangent_cone)
        got = (local.multiplicity, cone, local.hessian_rank, local.hessian_corank)
        assert got == _chart_reference(f, point)
        assert local.multiplicity == 0 if m == 0 else local.multiplicity >= m
        if m == 0:
            assert local.frame is None and local.moved is None
        else:
            # sigma_P moves the point last, and moved is f∘sigma_P.
            assert local.frame.rows[-1] == point.coords
            assert local.moved == apply_linear_change(f, local.frame)

"""The smoothness proof modulo a prime.

Soundness is tested on the kernel itself, without the scan in front of it:
forms with a planted singular point, the singular benchmark bases and
families, and a form that is smooth over Q but not mod the prime must never
be proven smooth.  A Groebner basis mod the prime (sympy, test-only) decides
the same question independently.  On every proven input the full frame
search runs and must find no certificate, since ``analyze`` skips it there.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypstab import HomogeneousPoly, RationalMatrix, apply_linear_change, modp, parse_poly_infer
from hypstab.cli import EXIT_INTERNAL, EXIT_OK, main
from hypstab.families import family_poly
from hypstab.modp import PRIME, macaulay_shape, prove_smooth
from hypstab.search import SearchConfig, search_destabilization

from conftest import degree_monomials

SMOOTH = {
    "fermat-quintic-surface": "x0^5 + x1^5 + x2^5 + x3^5",
    "cyclic-cubic-surface": "x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^2*x0",
    "fermat-cubic-threefold": "x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
    "klein-quartic": "x0^3*x1 + x1^3*x2 + x2^3*x0",
}

# Fermat forms under a fixed integer change U*P (x_j -> sum_k sigma[k][j] x_k),
# with their term counts: dense inputs for the elimination.
_UP4 = [[1, 0, 1, 1], [1, 0, 0, 1], [1, 1, 0, 0], [1, 0, 0, 0]]
DISGUISED = {
    "fermat-cubic-surface": ("x0^3 + x1^3 + x2^3 + x3^3", _UP4, 20),
    "fermat-quartic-curve": ("x0^4 + x1^4 + x2^4", [[-1, 1, 1], [1, -1, 0], [0, 1, 0]], 15),
    "fermat-quintic-surface": (
        "x0^5 + x1^5 + x2^5 + x3^5",
        [[1, 1, 1, 0], [-1, -1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
        36,
    ),
    "fermat-cubic-threefold": (
        "x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
        [[-1, 1, 1, -1, 1], [-1, -1, -1, 1, 0], [1, -1, -1, 0, 0], [0, 1, 1, 0, 0],
         [0, 1, 0, 0, 0]],
        34,
    ),
    "fermat-quartic-surface": ("x0^4 + x1^4 + x2^4 + x3^4", _UP4, 35),
}

# Singular: the disguised benchmark bases, and the node at a pair of
# conjugate irrational points that the rational scan cannot see.
SINGULAR = {
    "cusp": "x1^2*x2 - x0^3",
    "nodal-cubic": "x1^2*x2 - x0^2*x2 - x0^3",
    "singular-line": "x0^2*x2 + x1^2*x3",
    "irrational-node-cubic": "x0^3 - 2*x0*x1^2 - 2*x1^2*x2 + x2^3",
}

# The frames of the parent's golden reports for the four smooth inputs,
# saved before the search left the proven reports.
PARENT_FRAMES = json.loads(
    (Path(__file__).parent / "data" / "smooth_frames.json").read_text()
)


def disguised(name: str) -> HomogeneousPoly:
    text, sigma, terms = DISGUISED[name]
    f = apply_linear_change(parse_poly_infer(text), RationalMatrix.from_rows(sigma))
    assert len(f.terms) == terms
    return f


PROVEN = [f"smooth:{k}" for k in SMOOTH] + [f"disguised:{k}" for k in DISGUISED]


def proven_input(name: str) -> HomogeneousPoly:
    kind, _, key = name.partition(":")
    return parse_poly_infer(SMOOTH[key]) if kind == "smooth" else disguised(key)


def groebner_pure_powers(f: HomogeneousPoly) -> bool:
    """Every variable has a pure power among the leading terms of a Groebner
    basis of the partials mod PRIME: they have no common zero over the
    algebraic closure of F_p."""
    xs = sympy.symbols(f"x0:{f.nvars}")
    scale = lcm(*(c.denominator for _, c in f.terms))
    F = sum(int(c * scale) * prod(x**e for x, e in zip(xs, exp)) for exp, c in f.terms)
    basis = sympy.groebner([sympy.diff(F, x) for x in xs], *xs, modulus=PRIME, order="grevlex")
    leading = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    return all(any(m[i] == sum(m) > 0 for m in leading) for i in range(f.nvars))


def from_sympy(expr, n: int, d: int) -> HomogeneousPoly:
    """The form of degree d in x0..xn that sympy expands ``expr`` to."""
    xs = sympy.symbols(f"x0:{n + 1}")
    return HomogeneousPoly.make(n, d, {e: int(c) for e, c in sympy.Poly(expr, *xs).as_dict().items()})


@st.composite
def planted_singular(draw):
    """f = sum of r * l * l' over linear forms l, l' vanishing at a random
    rational point P, so f and its gradient vanish at P."""
    n = draw(st.integers(2, 3))
    d = draw(st.integers(3, 4))
    point = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
    assume(any(point))
    xs = sympy.symbols(f"x0:{n + 1}")
    forms = [point[k] * xs[j] - point[j] * xs[k] for j in range(n + 1) for k in range(j + 1, n + 1)]
    forms = [form for form in forms if form != 0]
    monomials = degree_monomials(n, d - 2)
    f = 0
    for _ in range(draw(st.integers(2, 5))):
        a, b = draw(st.sampled_from(forms)), draw(st.sampled_from(forms))
        coeffs = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3),
                                      min_size=1, max_size=4))
        r = sum(c * prod(x**e for x, e in zip(xs, exp)) for exp, c in coeffs.items())
        f += r * a * b
    f = from_sympy(f, n, d)
    assume(not f.is_zero)
    return f, point


@st.composite
def sparse_forms(draw):
    n = draw(st.integers(2, 3))
    d = draw(st.integers(3, 4)) if n == 2 else 3
    coeffs = draw(st.dictionaries(st.sampled_from(degree_monomials(n, d)),
                                  st.integers(-3, 3), min_size=1, max_size=8))
    f = HomogeneousPoly.make(n, d, coeffs)
    assume(not f.is_zero)
    return f


@st.composite
def binomial_partials(draw, planted: bool):
    """f = sum of c_i * x_i^(d-k_i) * x_s(i)^k_i over a permutation s, so
    that every variable is in at most two terms and every partial has at
    most two: the rows the two-entry pivots settle.  Planted: the terms
    with x_j-degree >= d-1 are dropped, so the coordinate point e_j is
    singular (f and its gradient vanish there).  Otherwise f is returned
    with None, smooth or not."""
    n = draw(st.integers(2, 3))
    d = draw(st.integers(3, 5 if n == 2 else 4))
    image = draw(st.permutations(range(n + 1)))
    xs = sympy.symbols(f"x0:{n + 1}")
    f = 0
    for i, j in enumerate(image):
        k = draw(st.integers(0, d - 1))
        c = draw(st.integers(-3, 3).filter(bool))
        f += c * xs[i] ** (d - k) * xs[j] ** k
    f = from_sympy(f, n, d)
    if not planted:
        return f, None
    j = draw(st.integers(0, n))
    f = HomogeneousPoly.make(n, d, {exp: c for exp, c in f.terms if exp[j] < d - 1})
    assume(not f.is_zero)
    return f, tuple(int(v == j) for v in range(n + 1))


class TestSoundness:
    @given(st.one_of(planted_singular(), binomial_partials(planted=True)))
    @settings(max_examples=60, deadline=None)
    def test_planted_singular_point_is_never_proven(self, case):
        f, point = case
        assert all(f.partial_derivative(j).evaluate(point) == 0 for j in range(f.nvars))
        assert prove_smooth(f) is None

    @pytest.mark.parametrize("name", sorted(SINGULAR))
    def test_singular_bases_are_not_proven(self, name):
        assert prove_smooth(parse_poly_infer(SINGULAR[name])) is None

    @pytest.mark.parametrize("family", ["fn", "gn"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_families_are_not_proven(self, family, n):
        assert prove_smooth(family_poly(family, n)) is None

    def test_smooth_over_q_but_singular_mod_the_prime(self):
        # The x2 partial vanishes mod PRIME, so the prime decides the outcome.
        f = parse_poly_infer(f"x0^3 + x1^3 + {PRIME}*x2^3")
        assert prove_smooth(f) is None
        assert prove_smooth(parse_poly_infer("x0^3 + x1^3 + 2*x2^3")) is not None


class TestGroebnerCrossCheck:
    @pytest.mark.parametrize("name", PROVEN)
    def test_proven_inputs(self, name):
        assert groebner_pure_powers(proven_input(name))

    @pytest.mark.parametrize("name", sorted(SINGULAR))
    def test_singular_inputs(self, name):
        assert not groebner_pure_powers(parse_poly_infer(SINGULAR[name]))

    @given(
        st.one_of(
            sparse_forms(),
            planted_singular().map(lambda case: case[0]),
            binomial_partials(planted=False).map(lambda case: case[0]),
            binomial_partials(planted=True).map(lambda case: case[0]),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_forms(self, f):
        assert (prove_smooth(f) is not None) == groebner_pure_powers(f)


class TestKernel:
    def test_proof_names_prime_degree_and_rank(self):
        proof = prove_smooth(parse_poly_infer(SMOOTH["fermat-quintic-surface"]))
        assert (proof.prime, proof.degree, proof.rank) == (PRIME, 13, 560)
        assert macaulay_shape(3, 5) == (13, 880, 560)
        assert "rank 560 mod 2147483647" in str(proof)

    def test_rational_coefficients(self):
        assert prove_smooth(parse_poly_infer("1/2*x0^3 + 2/3*x1^3 + x2^3")) is not None

    @pytest.mark.parametrize(
        "c", [2, -3, Fraction(5, 7), PRIME, -PRIME, 6 * PRIME, Fraction(PRIME, 2)], ids=str
    )
    @pytest.mark.parametrize(
        "text", [SMOOTH["klein-quartic"], SMOOTH["cyclic-cubic-surface"], SINGULAR["cusp"],
                 "x0^3 + x1^3 + 2*x2^3"],
    )
    def test_content_is_removed(self, text, c):
        # A content divisible by PRIME would zero the whole matrix mod PRIME.
        f = parse_poly_infer(text)
        scaled = HomogeneousPoly.make(f.n, f.d, {e: a * c for e, a in f.terms})
        assert prove_smooth(scaled) == prove_smooth(f)

    def test_above_the_size_bound_is_not_tested(self, monkeypatch, fresh_skeletons):
        monkeypatch.setattr(modp, "MAX_CELLS", 880 * 560 - 1)
        assert prove_smooth(parse_poly_infer(SMOOTH["fermat-quintic-surface"])) is None
        assert modp._skeleton.cache_info().currsize == 0  # checked before anything is built
        assert prove_smooth(parse_poly_infer(SMOOTH["klein-quartic"])) is not None


def reference_monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    return [
        tuple(combo.count(j) for j in range(nvars))
        for combo in combinations_with_replacement(range(nvars - 1, -1, -1), degree)
    ]


def reference_macaulay_rows(
    forms: list[modp.IntForm], nvars: int, degree: int
) -> tuple[list[dict[int, int]], int]:
    """The rows built one dict per shift in pure Python, square rows first:
    the reference for the numpy construction.  Row (j, m) holds m * g_j,
    for the shifts m of each form in ascending column order, and is square
    when j < nvars and m_i < e_i for every i < j."""
    column = {exp: k for k, exp in enumerate(reference_monomials(nvars, degree))}
    lower = [g.degree for g in forms[:nvars]]
    square, extra = [], []
    for j, g in enumerate(forms):
        if g.degree > degree:
            continue
        terms = [(exp, v) for exp, v in zip(g.exps.tolist(), g.values.tolist()) if v]
        for m in reversed(reference_monomials(nvars, degree - g.degree)):
            row = {column[tuple(a + b for a, b in zip(m, exp))]: v for exp, v in terms}
            (square if j < nvars and all(m[i] < lower[i] for i in range(j)) else extra).append(row)
    return square + extra, len(square)


def reference_partials(f: HomogeneousPoly) -> list[modp.IntForm]:
    """The partials of f with its content removed, term by term."""
    F = f.primitive
    return [
        modp.IntForm.from_terms(f.d - 1, f.nvars, {
            exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c.numerator * exp[i] for exp, c in F.terms if exp[i]
        })
        for i in range(f.nvars)
    ]


def reference_full_column_rank(rows: list[dict[int, int]], ncols: int) -> bool:
    """Plain Gaussian elimination mod PRIME on dense Python rows."""
    matrix = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][c]), None)
        if pivot is None:
            return False
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inverse = pow(matrix[rank][c], -1, PRIME)
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][c] * inverse % PRIME
            matrix[r] = [(x - factor * y) % PRIME for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return True


@st.composite
def sparse_matrices(draw):
    """Small matrices mod PRIME, most rows with at most two entries, and
    values from a small set so that pivots cancel entries."""
    ncols = draw(st.integers(1, 7))
    values = st.one_of(st.sampled_from([1, 2, 3, PRIME - 1, PRIME - 2]), st.integers(1, PRIME - 1))
    size = draw(st.sampled_from([2, 2, 3, 4]))
    row = st.dictionaries(st.integers(0, ncols - 1), values, min_size=1, max_size=size)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return rows, ncols


def coo(rows: list[dict[int, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    entries = [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()]
    return tuple(np.array([e[k] for e in entries], dtype=np.int64) for k in range(3))


def macaulay_dicts(
    forms: list[modp.IntForm], nvars: int, degree: int
) -> tuple[list[dict[int, int]], int]:
    nrows, _ = modp.matrix_shape([g.degree for g in forms], nvars, degree)
    row, col, value, late = modp._macaulay_rows(forms, nvars, degree)
    rows = [{} for _ in range(nrows)]
    for r, c, v in zip(row.tolist(), col.tolist(), value.tolist()):
        assert c not in rows[r]
        rows[r][c] = v
    return rows, late


def partials_match(f: HomogeneousPoly) -> bool:
    """The rows of f's partials in the degree of the smoothness proof match
    the reference."""
    degree = macaulay_shape(f.n, f.d)[0]
    rows = macaulay_dicts(modp._partials(f.primitive), f.nvars, degree)
    return rows == reference_macaulay_rows(reference_partials(f), f.nvars, degree)


def ramp_matches(forms: list[modp.IntForm], nvars: int, top: int) -> int:
    """Compare the rows with the reference in every degree of the ramp from
    the largest generator degree to ``top`` within 20,000 cells; returns the
    number of degrees compared."""
    degrees = [g.degree for g in forms]
    compared = 0
    for degree in range(max(degrees), top + 1):
        nrows, ncols = modp.matrix_shape(degrees, nvars, degree)
        if nrows * ncols <= 20_000:
            assert macaulay_dicts(forms, nvars, degree) == reference_macaulay_rows(forms, nvars, degree)
            compared += 1
    return compared


@st.composite
def form_lists(draw):
    """One to six forms in one to four variables, of degrees 1 to 4 in any
    order, some coefficients zero mod PRIME, and a degree from the largest
    generator degree up."""
    nvars = draw(st.integers(1, 4))
    values = st.one_of(st.just(0), st.integers(1, 3), st.integers(0, PRIME - 1))
    forms = []
    for _ in range(draw(st.integers(1, 6))):
        e = draw(st.integers(1, 4))
        terms = draw(st.dictionaries(st.sampled_from(degree_monomials(nvars - 1, e)), values,
                                     min_size=1, max_size=5))
        forms.append(modp.IntForm.from_terms(e, nvars, terms))
    degree = draw(st.integers(max(g.degree for g in forms), max(g.degree for g in forms) + 2))
    return forms, nvars, degree


@pytest.fixture
def fresh_skeletons():
    """An empty skeleton cache, so that a test's patches reach the build,
    and no skeleton built under them outlives the test."""
    modp._skeleton.cache_clear()
    yield
    modp._skeleton.cache_clear()


class TestElimination:
    @pytest.mark.parametrize(
        "f",
        [parse_poly_infer(text) for text in list(SMOOTH.values()) + list(SINGULAR.values())]
        + [disguised(name) for name in DISGUISED]
        + [parse_poly_infer("1/2*x0^3 + 2/3*x1^3 + x2^3"), parse_poly_infer(f"x0^3 + x1^3 + {PRIME}*x2^3")],
        ids=list(SMOOTH) + list(SINGULAR) + [f"disguised-{k}" for k in DISGUISED]
        + ["rational", "prime-coefficient"],
    )
    def test_rows_match_the_dict_construction(self, f):
        assert partials_match(f)

    @given(st.one_of(sparse_forms(), binomial_partials(planted=False).map(lambda case: case[0])))
    @settings(max_examples=60, deadline=None)
    def test_random_rows_match_the_dict_construction(self, f):
        assert partials_match(f)

    @pytest.mark.parametrize(
        "text",
        [SINGULAR["nodal-cubic"], SINGULAR["cusp"], SMOOTH["klein-quartic"],
         SMOOTH["cyclic-cubic-surface"], "x0*x1*x2 + x0*x1*x3 + x0*x2*x3 + x1*x2*x3"],
        ids=["nodal-cubic", "cusp", "klein-quartic", "cyclic-cubic-surface", "cayley-cubic"],
    )
    def test_hessian_ideal_rows_match_the_dict_construction(self, text):
        # The partials of degree d-1 and the r x r minors of degree r(d-2):
        # mixed degrees whenever r(d-2) != d-1.
        f = parse_poly_infer(text)
        F = f.primitive
        for r in range(1, f.n + 1):
            forms = modp._partials(F) + modp._hessian_minors(F, r)
            assert ramp_matches(forms, f.nvars, macaulay_shape(f.n, f.d)[0]) >= 1

    @pytest.mark.parametrize("name", ["fermat-cubic-surface", "fermat-cubic-threefold"])
    def test_restricted_partials_rows_match_the_dict_construction(self, name):
        f = disguised(name)
        forms = modp._restricted_partials(f.primitive, modp._hyperplane(f.n, ()))
        top = macaulay_shape(f.n, f.d)[0]
        assert ramp_matches(forms, f.n, top) == len(range(f.d - 1, top + 1))  # every degree

    @given(form_lists())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_form_lists_match_the_dict_construction(self, case):
        forms, nvars, degree = case
        assert macaulay_dicts(forms, nvars, degree) == reference_macaulay_rows(forms, nvars, degree)

    def test_forms_of_one_shape_get_their_own_entries(self, fresh_skeletons):
        # Both in three variables with partials of degree 3: one skeleton,
        # and each form's own entries from it.
        forms = [parse_poly_infer(SMOOTH["klein-quartic"]), disguised("fermat-quartic-curve")]
        built = [macaulay_dicts(modp._partials(f.primitive), 3, 7) for f in forms]
        assert modp._skeleton.cache_info()[:2] == (1, 1)  # one hit, one build
        assert built[0] != built[1]
        for f, rows in zip(forms, built):
            assert rows == reference_macaulay_rows(reference_partials(f), 3, 7)

    def test_skeleton_is_cached_read_only(self):
        """The tables a shape decides are built once per (nvars, degree,
        generator degrees), and nothing can write to them."""
        radix, ascending, shifts, first, numbers, nsquare = cached = modp._skeleton(3, 7, (3, 3, 3))
        assert all(a is b for a, b in zip(modp._skeleton(3, 7, (3, 3, 3)), cached))
        assert isinstance(shifts, tuple) and [e for e, _ in shifts] == [3]
        for array in (radix, ascending, first, numbers, shifts[0][1]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # A general form's partials: the square choice is square.
        assert (len(numbers), len(ascending), nsquare) == (45, 36, 36)
        # Another tuple of generator degrees, or the same in another order,
        # gets its own entry.
        for degrees in [(3, 3, 2), (2, 3, 3)]:
            other = modp._skeleton(3, 7, degrees)
            assert other[4] is not numbers and len(other[4]) == modp.matrix_shape(degrees, 3, 7)[0]
        assert not np.array_equal(modp._skeleton(3, 7, (3, 3, 2))[4], modp._skeleton(3, 7, (2, 3, 3))[4])

    @pytest.mark.parametrize("nvars", [63, 64, 70])
    def test_codes_beyond_int64(self, nvars):
        # A quadric's codes run up to 2^nvars: from 64 variables on they need
        # Python ints.
        squares = {tuple(2 * (k == j) for k in range(nvars)): 1 for j in range(nvars)}
        f = HomogeneousPoly.make(nvars - 1, 2, squares)
        assert partials_match(f)
        assert prove_smooth(f) is not None
        assert prove_smooth(HomogeneousPoly.make(nvars - 1, 2, dict(list(squares.items())[1:]))) is None

    @pytest.mark.parametrize("name", ["cyclic-cubic-surface", "klein-quartic"])
    def test_binomial_partials_leave_no_dense_core(self, name, monkeypatch):
        cores = []
        dense = modp._has_full_column_rank
        monkeypatch.setattr(
            modp, "_has_full_column_rank", lambda m, late: cores.append(m.shape) or dense(m, late)
        )
        assert prove_smooth(parse_poly_infer(SMOOTH[name])) is not None
        assert cores == [(0, 0)]

    @given(sparse_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_short_pivot_never_lengthens_a_row(self, matrix, data):
        rows, _ = matrix
        rows = dict(enumerate(rows))
        short = [r for r, row in rows.items() if 1 <= len(row) <= 2]
        assume(short)
        r = data.draw(st.sampled_from(short))
        where = {}
        for s, row in rows.items():
            for c in row:
                where.setdefault(c, set()).add(s)
        before = {s: dict(row) for s, row in rows.items()}
        modp._pivot(rows, where, r)
        pivot = before.pop(r)
        a = next(iter(pivot))
        assert set(rows) == set(before)
        for s, row in rows.items():
            assert len(row) <= len(before[s])
            expected = dict(before[s])
            if a in expected:
                factor = expected[a] * pow(pivot[a], -1, PRIME) % PRIME
                expected = {c: (expected.get(c, 0) - factor * pivot.get(c, 0)) % PRIME
                            for c in set(expected) | set(pivot)}
                expected = {c: v for c, v in expected.items() if v}
            assert row == expected
        assert {c: s for c, s in where.items() if s} == {
            c: {s for s, row in rows.items() if c in row} for c in {c for row in rows.values() for c in row}
        }

    @given(sparse_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_dense_elimination(self, matrix, data):
        rows, ncols = matrix
        late = data.draw(st.integers(0, len(rows)))
        row, col, value = coo(rows)
        assert modp._sparse_has_full_column_rank(
            row, col, value, len(rows), ncols, late
        ) == reference_full_column_rank(rows, ncols)


@pytest.mark.parametrize("name", PROVEN)
def test_search_finds_no_certificate_on_proven_inputs(name):
    """``analyze`` skips the search once Stable is proven; the search itself
    must agree, and on the smooth inputs visit the parent's frames."""
    f = proven_input(name)
    assert prove_smooth(f) is not None
    outcome = search_destabilization(f, SearchConfig(budget=50, seed=0))
    assert outcome.strict is None and outcome.nonstrict is None
    assert outcome.frames_tried == 50
    kind, _, key = name.partition(":")
    if kind == "smooth":
        assert [fr.to_json() for fr in outcome.frames] == PARENT_FRAMES[key]


class TestAnalyze:
    def run(self, capsys, tmp_path, text, *flags):
        path = tmp_path / "input.poly"
        path.write_text(text + "\n")
        code = main(["analyze", str(path), "--no-timestamp", *flags])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_proven_stable_skips_the_search(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, tmp_path, SMOOTH["klein-quartic"], "--json", "-")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["schema"] == "hypstab-report/2"
        assert (report["status"], report["basis"]) == ("Stable", "exact-bound")
        assert report["profile"]["provenance"]["s"].startswith("exact: ")
        search = report["search"]
        assert (search["budget"], search["frames_tried"], search["frames"]) == (50, 0, [])
        assert "Stable is proven" in search["skipped"]

    def test_text_names_the_skip_and_the_basis(self, capsys, tmp_path):
        code, out, _ = self.run(capsys, tmp_path, SMOOTH["klein-quartic"])
        assert code == EXIT_OK
        assert "search skipped: Stable is proven" in out
        assert "no certificate found within budget" not in out
        assert out.rstrip().endswith("status: Stable (exact-bound)")

    def test_asserted_smoothness_keeps_the_search(self, capsys, tmp_path, monkeypatch):
        def unexpected(f):
            raise AssertionError("the kernel ran under an asserted s")

        monkeypatch.setattr("hypstab.report.prove_smooth", unexpected)
        code, out, _ = self.run(
            capsys, tmp_path, SMOOTH["klein-quartic"], "--s", "-1", "--budget", "3", "--json", "-"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["basis"] == "asserted"
        assert report["profile"]["provenance"]["s"] == "user-asserted"
        assert (report["search"]["frames_tried"], report["search"]["skipped"]) == (3, None)

    def test_above_the_size_bound_keeps_the_heuristic_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(modp, "MAX_CELLS", 10)
        code, out, _ = self.run(
            capsys, tmp_path, SMOOTH["klein-quartic"], "--budget", "4", "--json", "-"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["status"], report["basis"]) == ("Stable", "heuristic")
        assert report["profile"]["provenance"]["s"] == "heuristic"
        assert (report["search"]["budget"], report["search"]["frames_tried"]) == (4, 4)
        assert report["search"]["skipped"] is None

    def test_kernel_fault_exits_internal(self, capsys, tmp_path, monkeypatch, fresh_skeletons):
        # The rows and shifts are read from the column monomials of
        # ``grid.monomials``; repeating the column before x0^7 in its place
        # keeps the matrix's shape but leaves x0^7, which x0^4 times the x1
        # partial x0^3 + 3*x1^2*x2 reaches, with no column.  No input reaches
        # this, so force it where modp reads it.
        monomials, columns_degree = modp.monomial_rows, macaulay_shape(2, 4)[0]

        def lost_column(nvars, degree):
            out = monomials(nvars, degree)
            return np.concatenate([out[:-1], out[-2:-1]]) if degree == columns_degree else out

        monkeypatch.setattr(modp, "monomial_rows", lost_column)
        code, _, err = self.run(capsys, tmp_path, SMOOTH["klein-quartic"])
        assert code == EXIT_INTERNAL
        assert "internal consistency failure" in err
        assert "Macaulay row of generator" in err
        assert "Traceback" not in err
        assert "generator 1 has a monomial (7, 0, 0) outside the degree-7 columns" in err

    @pytest.mark.parametrize("patch, built", [("matrix_shape", "45 rows and 36 columns, not the 46 and 36"),
                                              ("monomial_rows", "45 rows and 35 columns, not the 45 and 36")])
    def test_skeleton_of_another_shape_exits_internal(
        self, capsys, tmp_path, monkeypatch, fresh_skeletons, patch, built
    ):
        # The cap check reads ``matrix_shape`` and the build the skeleton; a
        # skeleton of another shape (one row more expected, or one column
        # dropped) is a fault.
        original, columns_degree = getattr(modp, patch), macaulay_shape(2, 4)[0]

        def wrong_shape(*args):
            out = original(*args)
            if args[-1] != columns_degree:
                return out
            return (out[0] + 1, out[1]) if patch == "matrix_shape" else out[:-1]

        monkeypatch.setattr(modp, patch, wrong_shape)
        code, _, err = self.run(capsys, tmp_path, SMOOTH["klein-quartic"])
        assert code == EXIT_INTERNAL
        assert err.splitlines() == [
            "internal consistency failure: InternalConsistencyError: "
            f"Macaulay matrix in degree 7 built with {built} of its shape"
        ]

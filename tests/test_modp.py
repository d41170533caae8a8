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
from hypstab.polynomials import primitive_form
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


@st.composite
def planted_singular(draw):
    """f = sum of r * l * l' over linear forms l, l' vanishing at a random
    rational point P, so f and its gradient vanish at P."""
    n = draw(st.integers(2, 3))
    d = draw(st.integers(3, 4))
    point = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
    assume(any(point))
    forms = [
        {tuple(int(v == j) for v in range(n + 1)): point[k],
         tuple(int(v == k) for v in range(n + 1)): -point[j]}
        for j in range(n + 1)
        for k in range(j + 1, n + 1)
    ]
    forms = [HomogeneousPoly.make(n, 1, form) for form in forms]
    forms = [form for form in forms if not form.is_zero]
    monomials = degree_monomials(n, d - 2)
    f = HomogeneousPoly.make(n, d, {})
    for _ in range(draw(st.integers(2, 5))):
        a, b = draw(st.sampled_from(forms)), draw(st.sampled_from(forms))
        coeffs = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3),
                                      min_size=1, max_size=4))
        f = f + HomogeneousPoly.make(n, d - 2, coeffs) * a * b
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
    f = HomogeneousPoly.make(n, d, {})
    for i, j in enumerate(image):
        k = draw(st.integers(0, d - 1))
        exp = [0] * (n + 1)
        exp[i] += d - k
        exp[j] += k
        c = draw(st.integers(-3, 3).filter(bool))
        f = f + HomogeneousPoly.make(n, d, {tuple(exp): c})
    if not planted:
        return f, None
    j = draw(st.integers(0, n))
    f = HomogeneousPoly.make(n, d, [(exp, c) for exp, c in f.terms if exp[j] < d - 1])
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
        assert prove_smooth(f.scale(c)) == prove_smooth(f)

    def test_above_the_size_bound_is_not_tested(self, monkeypatch):
        monkeypatch.setattr(modp, "MAX_CELLS", 880 * 560 - 1)
        assert prove_smooth(parse_poly_infer(SMOOTH["fermat-quintic-surface"])) is None
        assert prove_smooth(parse_poly_infer(SMOOTH["klein-quartic"])) is not None


def reference_monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    return [
        tuple(combo.count(j) for j in range(nvars))
        for combo in combinations_with_replacement(range(nvars - 1, -1, -1), degree)
    ]


def reference_macaulay_rows(f: HomogeneousPoly, degree: int) -> tuple[list[dict[int, int]], int]:
    """The rows built one dict per shift in pure Python, square rows
    first: the reference for the numpy construction."""
    nvars = f.nvars
    F = primitive_form(f)
    radix = [(degree + 1) ** k for k in range(nvars)]

    def code(exp) -> int:
        return sum(e * r for e, r in zip(exp, radix))

    column = {code(exp): j for j, exp in enumerate(reference_monomials(nvars, degree))}
    shifts = [(m, code(m)) for m in reversed(reference_monomials(nvars, degree - f.d + 1))]
    square, extra = [], []
    for i in range(nvars):
        partial = [
            (code(exp) - radix[i], c.numerator * exp[i] % PRIME) for exp, c in F.terms if exp[i]
        ]
        partial = [(e, v) for e, v in partial if v]
        for m, m_code in shifts:
            row = {column[m_code + e]: v for e, v in partial}
            (square if max(m[:i], default=0) < f.d - 1 else extra).append(row)
    return square + extra, len(square)


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


def macaulay_dicts(f: HomogeneousPoly) -> tuple[list[dict[int, int]], int]:
    degree, nrows, _ = macaulay_shape(f.n, f.d)
    row, col, value, late = modp._macaulay_rows(f, degree)
    rows = [{} for _ in range(nrows)]
    for r, c, v in zip(row.tolist(), col.tolist(), value.tolist()):
        assert c not in rows[r]
        rows[r][c] = v
    return rows, late


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
        assert macaulay_dicts(f) == reference_macaulay_rows(f, macaulay_shape(f.n, f.d)[0])

    @given(st.one_of(sparse_forms(), binomial_partials(planted=False).map(lambda case: case[0])))
    @settings(max_examples=60, deadline=None)
    def test_random_rows_match_the_dict_construction(self, f):
        assert macaulay_dicts(f) == reference_macaulay_rows(f, macaulay_shape(f.n, f.d)[0])

    @pytest.mark.parametrize("nvars", [63, 64, 70])
    def test_codes_beyond_int64(self, nvars):
        # A quadric's codes run up to 2^nvars: from 64 variables on they need
        # Python ints.
        squares = {tuple(2 * (k == j) for k in range(nvars)): 1 for j in range(nvars)}
        f = HomogeneousPoly.make(nvars - 1, 2, squares)
        assert macaulay_dicts(f) == reference_macaulay_rows(f, 1)
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

    def test_kernel_fault_exits_internal(self, capsys, tmp_path, monkeypatch):
        # The rows and shifts are read from the column monomials of
        # ``_monomials``; dropping one leaves a row entry with no column.  No
        # input reaches this, so force it.
        monomials, columns_degree = modp._monomials, macaulay_shape(2, 4)[0]

        def fewer_columns(nvars, degree):
            out = monomials(nvars, degree)
            return out[:-1] if degree == columns_degree else out

        monkeypatch.setattr(modp, "_monomials", fewer_columns)
        code, _, err = self.run(capsys, tmp_path, SMOOTH["klein-quartic"])
        assert code == EXIT_INTERNAL
        assert "internal consistency failure" in err
        assert "Macaulay row of partial" in err
        assert "Traceback" not in err

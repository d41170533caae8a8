"""Polynomial core: parsing, formatting, calculus, coordinate changes."""
from __future__ import annotations

import gc
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypstab import (
    HomogeneousPoly,
    PolyError,
    PolyParseError,
    RationalMatrix,
    apply_linear_change,
    format_poly,
    parse_poly,
)
from hypstab import polynomials
from hypstab.polynomials import format_terms, parse_poly_infer

from conftest import degree_monomials


class TestParse:
    def test_spec_example(self):
        f = parse_poly("x0^2*x2 + x1^3", 2)
        assert dict(f.terms) == {(2, 0, 1): Fraction(1), (0, 3, 0): Fraction(1)}
        assert (f.n, f.d) == (2, 3)

    def test_cancellation(self):
        f = parse_poly("x0^3 - x0^3 + x1^3", 1)
        assert dict(f.terms) == {(0, 3): Fraction(1)}

    def test_inhomogeneous_rejected(self):
        with pytest.raises(PolyError, match="inhomogeneous"):
            parse_poly("x0^2 + x1^3", 1)

    def test_zero_rejected(self):
        with pytest.raises(PolyError, match="zero polynomial"):
            parse_poly("x0^3 - x0^3", 1)

    def test_one_variable_rejected(self):
        # A hypersurface needs two variables; a form in one is only a
        # tangent cone of a binary form.
        with pytest.raises(PolyError, match="at least two variables"):
            parse_poly("x0^3", 0)
        assert str(HomogeneousPoly.make(0, 3, {(3,): 1})) == "x0^3"
        with pytest.raises(PolyError):
            HomogeneousPoly.make(-1, 0, {})

    def test_variable_out_of_range(self):
        with pytest.raises(PolyParseError, match="exceeds"):
            parse_poly("x0^2*x3", 2)

    def test_syntax_error_has_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x0^2 + + x1^2", 1)
        assert err.value.position == 7

    def test_missing_star_after_coefficient(self):
        with pytest.raises(PolyParseError):
            parse_poly("2x0^3", 1)

    def test_rational_coefficients(self):
        f = parse_poly("1/2*x0^2*x1 - 3*x1^3", 1)
        assert f.coefficient((2, 1)) == Fraction(1, 2)
        assert f.coefficient((0, 3)) == Fraction(-3)

    def test_leading_sign(self):
        f = parse_poly("-x0^3 + x1^3", 1)
        assert f.coefficient((3, 0)) == -1

    def test_repeated_variable_factors_multiply(self):
        f = parse_poly("x0*x0*x1", 1)
        assert dict(f.terms) == {(2, 1): Fraction(1)}

    def test_infer_n(self):
        f = parse_poly_infer("x0^2*x3^2 + x0*x2^3 + x1^4")
        assert f.n == 3

    def test_whitespace_insignificant(self):
        assert parse_poly(" x0 ^ 2 * x2+x1^3", 2) == parse_poly("x0^2*x2 + x1^3", 2)

    def test_unexpected_term_names_the_variable(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x0^2 + x1^2 x2", 2)
        assert str(err.value) == "expected '+' or '-', got 'x2' (at position 12)"
        assert err.value.position == 12

    @pytest.mark.parametrize(
        "text, position",
        [
            # A sign stands only before the first term and between terms.
            ("x0^2 + -3*x1^2", 7),
            # A coefficient stands only first in its term, and only once.
            ("2*3*x0^2", 2),
        ],
    )
    def test_signed_or_repeated_coefficient_refused(self, text, position):
        with pytest.raises(PolyParseError, match="expected a variable like x0") as err:
            parse_poly(text, 1)
        assert err.value.position == position


# --- the one-pass parser against the token-object parser it replaced ---------
#
# The tokenizer and recursive-descent parser as they were before parsing
# became one pass, except that an unexpected variable is now named with its
# ``x`` ("got 'x2'", not "got '2'").  Both must give the same polynomial, or
# the same exception type, message and position.

_REF_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<var>x(?P<idx>\d+))|(?P<num>\d+)|(?P<op>[\^*/+\-])")


def _ref_tokenize(text):
    tokens = []
    bad = None
    pos = 0
    for m in _REF_TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos and bad is None:
            bad = pos
        pos = m.end()
        kind = m.lastgroup
        if kind == "var":
            tokens.append(("var", m.group("idx"), start))
        elif kind != "ws":
            tokens.append((kind, m.group(kind), start))
    if pos != len(text) and bad is None:
        bad = pos
    return tokens, bad


class _RefParser:
    def __init__(self, tokens, end, n):
        self.tokens = tokens
        self.n = n
        self.i = 0
        self.end = end

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect_op(self, symbol):
        tok = self.next()
        if tok is None or tok[0] != "op" or tok[1] != symbol:
            pos = tok[2] if tok else self.end
            raise PolyParseError(f"expected {symbol!r}", pos)

    def parse(self):
        acc = {}
        sign = 1
        tok = self.peek()
        if tok is None:
            raise PolyParseError("empty polynomial", 0)
        if tok[0] == "op" and tok[1] in "+-":
            sign = -1 if tok[1] == "-" else 1
            self.next()
        while True:
            coeff, exp = self.parse_term()
            exp_t = tuple(exp)
            acc[exp_t] = acc.get(exp_t, 0) + sign * coeff
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] in "+-":
                sign = -1 if tok[1] == "-" else 1
                self.next()
            else:
                got = f"x{tok[1]}" if tok[0] == "var" else tok[1]
                raise PolyParseError(f"expected '+' or '-', got {got!r}", tok[2])
        return acc

    def parse_term(self):
        tok = self.peek()
        if tok is None:
            raise PolyParseError("expected a term", self.end)
        coeff = 1
        if tok[0] == "num":
            coeff = self.parse_coef()
            self.expect_op("*")
        exp = [0] * (self.n + 1)
        self.parse_factor(exp)
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] == "*":
                self.next()
                self.parse_factor(exp)
            else:
                break
        return coeff, exp

    def parse_coef(self):
        tok = self.next()
        num = int(tok[1])
        nxt = self.peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
            self.next()
            den_tok = self.next()
            if den_tok is None or den_tok[0] != "num":
                pos = den_tok[2] if den_tok else self.end
                raise PolyParseError("expected denominator after '/'", pos)
            den = int(den_tok[1])
            if den == 0:
                raise PolyParseError("zero denominator", den_tok[2])
            return Fraction(num, den)
        return num

    def parse_factor(self, exp):
        tok = self.next()
        if tok is None or tok[0] != "var":
            pos = tok[2] if tok else self.end
            raise PolyParseError("expected a variable like x0", pos)
        idx = int(tok[1])
        if idx > self.n:
            raise PolyParseError(f"variable index {idx} exceeds n = {self.n}", tok[2])
        power = 1
        nxt = self.peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
            self.next()
            p_tok = self.next()
            if p_tok is None or p_tok[0] != "num":
                pos = p_tok[2] if p_tok else self.end
                raise PolyParseError("expected exponent after '^'", pos)
            power = int(p_tok[1])
        exp[idx] += power


def _ref_parse_tokens(text, tokens, bad, n):
    if n < 1:
        raise PolyError(f"need at least two variables, got n = {n}")
    if bad is not None:
        raise PolyParseError(f"unexpected character {text[bad]!r}", bad)
    raw = _RefParser(tokens, len(text), n).parse()
    degrees = {sum(e) for e in raw}
    if len(degrees) > 1:
        raise PolyError(f"inhomogeneous input: term degrees {sorted(degrees)}")
    canon = {e: c for e, c in raw.items() if c != 0}
    if not canon:
        raise PolyError("zero polynomial does not define a hypersurface")
    return HomogeneousPoly.make(n, next(iter(degrees)), canon)


def reference_parse_poly(text, n):
    tokens, bad = _ref_tokenize(text)
    return _ref_parse_tokens(text, tokens, bad, n)


def reference_parse_poly_infer(text):
    tokens, bad = _ref_tokenize(text)
    indices = [int(tok[1]) for tok in tokens if tok[0] == "var"]
    if not indices:
        raise PolyError("no variables found in polynomial text")
    return _ref_parse_tokens(text, tokens, bad, max(indices))


def outcome(parse, *args):
    """The parsed polynomial, or the raised exception's type, message and
    position (None for an error without one)."""
    try:
        return parse(*args)
    except PolyError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


PIECES = ["x0", "x1", "x2", "x3", "x4", *"0123456789", *"^*/+-", " ", "  "]
STRAYS = ["$", "y", "x", ".", "é"]


@st.composite
def term_texts(draw):
    """Polynomial-like text: signed terms of one degree with optional
    coefficients, often valid, then a few pieces inserted or deleted."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    pieces = []
    for k in range(draw(st.integers(1, 4))):
        if k or draw(st.booleans()):
            pieces.append(draw(st.sampled_from(["+", "-", " + ", " - "])))
        if draw(st.booleans()):
            pieces.append(str(draw(st.integers(0, 30))))
            if draw(st.booleans()):
                pieces += ["/", str(draw(st.integers(0, 9)))]
            pieces.append("*")
        exp = draw(st.sampled_from(degree_monomials(n, d)))
        times = draw(st.sampled_from(["*", " * "]))
        factors = []
        for j, e in enumerate(exp):
            if e and (e == 1 or draw(st.booleans())):
                factors.append([f"x{j}", "^", str(e)] if e > 1 or draw(st.booleans()) else [f"x{j}"])
            elif e:
                factors += [[f"x{j}"]] * e
        for i, factor in enumerate(factors):
            pieces += [times] * (i > 0) + factor
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(pieces)))
        if draw(st.booleans()) and at < len(pieces):
            del pieces[at]
        else:
            pieces.insert(at, draw(st.sampled_from(PIECES)))
    return "".join(pieces)


@st.composite
def parser_texts(draw):
    """Text over x0..x4, digits, ``^*/+-`` and spaces, valid or not, with at
    most one stray character."""
    if draw(st.booleans()):
        text = draw(term_texts())
    else:
        text = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=16)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(STRAYS)) + text[at:]
    return text


OUTCOMES = (
    "empty polynomial",
    "expected a term",
    "expected '*'",
    "expected a variable like x0",
    "expected exponent after '^'",
    "expected denominator after '/'",
    "zero denominator",
    "expected '+' or '-', got",
    "variable index",
    "unexpected character",
    "need at least two variables",
    "no variables found",
    "inhomogeneous input",
    "zero polynomial does not define a hypersurface",
)


def test_parser_matches_reference():
    """Drawn texts parse as the reference parses them, or fail with the
    same type, message and position; and the draws reach every outcome."""
    seen = set()

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(parser_texts(), st.integers(0, 4))
    def check(text, n):
        for parse, reference, args in (
            (parse_poly, reference_parse_poly, (text, n)),
            (parse_poly_infer, reference_parse_poly_infer, (text,)),
        ):
            result = outcome(parse, *args)
            assert result == outcome(reference, *args)
            if isinstance(result, HomogeneousPoly):
                seen.add("parsed")
            else:
                seen.add(next(o for o in OUTCOMES if result[1].startswith(o)))

    check()
    assert seen == {"parsed", *OUTCOMES}


def reference_format_terms(terms) -> str:
    """``format_terms`` as it was when it built a Fraction per ``abs``."""
    if not terms:
        return "0"
    pieces = []
    for k, (exp, coeff) in enumerate(terms):
        mag = abs(coeff)
        factors = "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e
        )
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = f"{mag}*{factors}"
        if k == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


COEFFICIENTS = (
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), 1, -1, 0])
    | st.fractions()
    | st.integers(min_value=-(2**70), max_value=2**70)
)


class TestMake:
    @pytest.mark.parametrize("exp", [(2.5, 1.5), (2.0, 1.0), (Fraction(2), 1), 3])
    def test_non_integer_exponents_refused(self, exp):
        # int() would have truncated (2.5, 1.5) into (2, 1), a different
        # monomial; an integral float is refused too.
        with pytest.raises(PolyError, match="integers"):
            HomogeneousPoly.make(1, 3, {exp: 1})

    def test_numpy_exponents_accepted(self):
        f = HomogeneousPoly.make(1, 3, {tuple(np.array([2, 1], dtype=np.int64)): 2, (0, 3): 0})
        assert f == HomogeneousPoly(1, 3, (((2, 1), Fraction(2)),))
        assert all(type(e) is int for e in f.terms[0][0])


class TestFormat:
    def test_canonical_order(self):
        f = parse_poly("x1^3 + x0^2*x2", 2)
        assert format_poly(f) == "x0^2*x2 + x1^3"

    def test_signs_and_rationals(self):
        f = parse_poly("-1/2*x0^3 - x1^3", 1)
        assert format_poly(f) == "-1/2*x0^3 - x1^3"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3), COEFFICIENTS),
            max_size=6,
        )
    )
    def test_matches_reference(self, terms):
        assert format_terms(tuple(terms)) == reference_format_terms(tuple(terms))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        d = data.draw(st.integers(min_value=1, max_value=4))
        monomials = degree_monomials(n, d)
        subset = data.draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=5, unique=True)
        )
        coeffs = data.draw(
            st.lists(
                st.fractions(min_value=-9, max_value=9).filter(lambda c: c != 0),
                min_size=len(subset),
                max_size=len(subset),
            )
        )
        f = HomogeneousPoly.make(n, d, dict(zip(subset, coeffs)))
        assert parse_poly(format_poly(f), n) == f


class TestCalculus:
    def test_partial_derivative_examples(self):
        f = parse_poly("x0^2*x2 + x1^3", 2)
        assert format_poly(f.partial_derivative(0)) == "2*x0*x2"
        assert format_poly(f.partial_derivative(2)) == "x0^2"
        g = parse_poly("x0^2*x2", 2)
        assert g.partial_derivative(1).is_zero

    def test_partial_derivative_index_error(self):
        with pytest.raises(PolyError):
            parse_poly("x0^3", 1).partial_derivative(2)

    def test_evaluate_examples(self):
        f = parse_poly("x0^2*x2 + x1^3", 2)
        assert f.evaluate((1, 1, 1)) == 2
        assert f.evaluate((0, 0, 1)) == 0
        assert parse_poly("x0*x1*x2", 2).evaluate((1, 2, 3)) == 6

    def test_evaluate_dimension_mismatch(self):
        with pytest.raises(PolyError):
            parse_poly("x0^3", 1).evaluate((1, 2, 3))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_evaluate_matches_fraction_reference(self, data):
        """The integer evaluation equals a term-by-term sum in Fraction
        arithmetic, for rational coefficients and rational points."""
        n = data.draw(st.integers(min_value=1, max_value=3))
        d = data.draw(st.integers(min_value=0, max_value=5))
        coeffs = data.draw(
            st.dictionaries(
                st.sampled_from(degree_monomials(n, d)),
                st.fractions(min_value=-20, max_value=20, max_denominator=12),
                max_size=6,
            )
        )
        f = HomogeneousPoly.make(n, d, coeffs)
        point = data.draw(
            st.lists(
                st.one_of(st.integers(-50, 50), st.fractions(-9, 9, max_denominator=15)),
                min_size=n + 1,
                max_size=n + 1,
            )
        )
        expected = Fraction(0)
        for exp, c in f.terms:
            term = c
            for x, e in zip(point, exp):
                term *= Fraction(x) ** e
            expected += term
        value = f.evaluate(point)
        assert isinstance(value, Fraction)
        assert value == expected

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_euler_relation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        d = data.draw(st.integers(min_value=1, max_value=4))
        monomials = degree_monomials(n, d)
        subset = data.draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=5, unique=True)
        )
        f = HomogeneousPoly.make(n, d, {e: 1 for e in subset})
        # sum x_j * df/dx_j = d * f, checked at integer points.
        points = data.draw(
            st.lists(st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1),
                     min_size=1, max_size=5)
        )
        for point in points:
            total = sum(x * f.partial_derivative(j).evaluate(point) for j, x in enumerate(point))
            assert total == d * f.evaluate(point)


@st.composite
def rational_forms(draw):
    """Forms whose coefficients are content * numerator / denominator, so
    that the lcm L of the denominators and the content of L*f both range
    above 1, with either sign first; the zero form is drawn too."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4))
    support = draw(st.lists(st.sampled_from(degree_monomials(n, d)), max_size=6, unique=True))
    content = draw(st.sampled_from([1, 2, 6, 35]))
    coeffs = {
        e: content * Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from([1, 2, 3, 4, 9])))
        for e in support
    }
    return HomogeneousPoly.make(n, d, coeffs)


class TestIntegerView:
    """The cached integer view and the primitive form, against Fraction
    arithmetic done here."""

    @given(rational_forms())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_view_clears_the_denominators_with_their_lcm(self, f):
        scale, ints = f.integer_view
        assert scale >= 1 and len(ints) == len(f.terms)
        assert all(Fraction(v, scale) == c for v, (_, c) in zip(ints, f.terms))
        # Every common denominator is a multiple of the lcm, and a multiple
        # k * L > L would leave k dividing scale and every integer.
        assert gcd(scale, *ints) == 1
        assert f.integer_view is f.integer_view

    @given(rational_forms())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_primitive_form_is_the_coprime_positive_multiple(self, f):
        g = f.primitive
        assert g is f.primitive
        assert (g.n, g.d, g.support()) == (f.n, f.d, f.support())
        if f.is_zero:
            assert g == f
            return
        ratios = {c / a for (_, a), (_, c) in zip(f.terms, g.terms)}
        assert len(ratios) == 1 and ratios.pop() > 0
        assert all(c.denominator == 1 for _, c in g.terms)
        assert gcd(*(c.numerator for _, c in g.terms)) == 1
        assert g.integer_view == (1, tuple(c.numerator for _, c in g.terms))

    @pytest.mark.parametrize(
        "text, view, primitive",
        [
            ("-3/4*x0^2 + 9/2*x0*x1 - 3*x1^2", (4, (-3, 18, -12)), "-x0^2 + 6*x0*x1 - 4*x1^2"),
            ("6*x0^3 + 10*x1^3", (1, (6, 10)), "3*x0^3 + 5*x1^3"),
            ("1/6*x0*x1 - 1/10*x1^2", (30, (5, -3)), "5*x0*x1 - 3*x1^2"),
            ("x0^2 - 2*x1^2", (1, (1, -2)), "x0^2 - 2*x1^2"),
        ],
    )
    def test_examples(self, text, view, primitive):
        f = parse_poly_infer(text)
        assert f.integer_view == view
        assert str(f.primitive) == primitive
        assert (f.primitive == f) == (text == primitive)

    def test_zero_form(self):
        f = HomogeneousPoly.make(2, 3, {})
        assert f.integer_view == (1, ())
        assert f.primitive == f and f.primitive.is_zero

    @pytest.mark.parametrize("text", ["x0^2 - 2*x1^2", "6*x0^3 + 10*x1^3"])
    def test_cached_view_leaves_no_cyclic_garbage(self, text):
        # A primitive form caching itself as its primitive form would be a
        # cycle, freed only by the cyclic collector.
        f = parse_poly_infer(text)
        gc.collect()
        gc.disable()
        try:
            f.integer_view, f.primitive.integer_view, f.primitive.primitive
            del f
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(rational_forms())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_reading_the_view_changes_no_equality_hash_or_text(self, f):
        twin = HomogeneousPoly(f.n, f.d, f.terms)
        before = (hash(f), str(f), repr(f))
        f.integer_view, f.primitive
        assert f == twin and twin == f
        assert (hash(f), str(f), repr(f)) == before == (hash(twin), str(twin), repr(twin))
        assert {f: 1}[twin] == 1


class TestEvaluateInputs:
    """``evaluate`` takes what it took before the integer view: ints,
    Fractions, numpy integers and rational text, alone or mixed."""

    f = parse_poly("1/2*x0^2*x1 - 3*x1^3 + 2/3*x0*x1*x2", 2)

    def reference(self, point):
        total = Fraction(0)
        for exp, c in self.f.terms:
            term = c
            for x, e in zip(point, exp):
                term *= Fraction(x) ** e
            total += term
        return total

    @pytest.mark.parametrize(
        "point",
        [
            (1, -2, 3),
            (Fraction(1, 2), Fraction(-2, 3), Fraction(5)),
            (np.int64(4), np.int64(-1), np.int64(2)),
            ("1/2", "-3", "2/7"),
            (1, Fraction(1, 3), np.int64(-2)),
            ("3/4", 2, np.int64(5)),
            [True, 0, 1],
        ],
        ids=["ints", "fractions", "numpy", "text", "int-fraction-numpy", "text-int-numpy", "bools"],
    )
    def test_accepted_coordinates(self, point):
        value = self.f.evaluate(point)
        assert isinstance(value, Fraction)
        assert value == self.reference(point)

    def test_iterator_point(self):
        assert self.f.evaluate(iter([2, 1, 0])) == self.reference((2, 1, 0)) == -1

    def test_int_coordinates_make_no_fraction(self, monkeypatch):
        # Only the value itself is a Fraction: the ints are summed as ints.
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(polynomials, "Fraction", counting)
        assert self.f.evaluate((3, -1, 2)) == self.reference((3, -1, 2))
        assert len(made) == 1

    @pytest.mark.parametrize("point", [(1, 2), (1, 2, 3, 4), (), ("1/2", 1)])
    def test_wrong_length_raises(self, point):
        with pytest.raises(PolyError, match="coordinates, expected 3"):
            self.f.evaluate(point)


def _unipotent(n, entries, upper):
    size = n + 1
    rows = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    k = 0
    for i in range(size):
        js = range(i + 1, size) if upper else range(0, i)
        for j in js:
            rows[i][j] = Fraction(entries[k % len(entries)])
            k += 1
    return RationalMatrix.from_rows(rows)


class TestLinearChange:
    def test_identity(self):
        f = parse_poly("x0^2*x2 + x1^3", 2)
        assert apply_linear_change(f, RationalMatrix.identity(3)) == f

    def test_swap_example(self):
        f = parse_poly("x0*x2*x3 + x1^3", 3)
        sigma = RationalMatrix.permutation([0, 2, 1, 3])
        assert format_poly(apply_linear_change(f, sigma)) == "x0*x1*x3 + x2^3"

    def test_diagonal_example(self):
        f = parse_poly("x0^2*x1 + x1^2*x2", 2)
        sigma = RationalMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        assert format_poly(apply_linear_change(f, sigma)) == "2*x0^2*x1 + 4*x1^2*x2"

    def test_singular_matrix_rejected(self):
        f = parse_poly("x0^3", 1)
        with pytest.raises(Exception, match="invertible"):
            apply_linear_change(f, RationalMatrix.from_rows([[1, 1], [1, 1]]))

    def test_size_mismatch_rejected(self):
        f = parse_poly("x0^3", 1)
        with pytest.raises(Exception, match="size"):
            apply_linear_change(f, RationalMatrix.identity(3))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_group_action_composition(self, data):
        n = data.draw(st.integers(min_value=2, max_value=3))
        d = data.draw(st.integers(min_value=2, max_value=3))
        monomials = degree_monomials(n, d)
        subset = data.draw(
            st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True)
        )
        f = HomogeneousPoly.make(n, d, {e: 1 for e in subset})
        ints = st.integers(min_value=-2, max_value=2)
        u1 = data.draw(st.lists(ints, min_size=3, max_size=6))
        u2 = data.draw(st.lists(ints, min_size=3, max_size=6))
        sigma = _unipotent(n, u1 or [1], upper=True)
        tau = _unipotent(n, u2 or [1], upper=False)
        lhs = apply_linear_change(apply_linear_change(f, tau), sigma)
        rhs = apply_linear_change(f, sigma @ tau)
        assert lhs == rhs

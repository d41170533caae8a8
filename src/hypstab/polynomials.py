"""Exact sparse polynomial arithmetic over the rationals.

A monomial is an exponent tuple ``(i_0, ..., i_n)`` standing for
``x0**i_0 * ... * xn**i_n``; coefficients are :class:`fractions.Fraction`
and are never zero in stored form.  Terms are kept in graded-lexicographic
order (total degree first, then lexicographic, both descending), which fixes
formatting, hashing and iteration order once and for all.

All values are immutable: every operation returns a new polynomial, so
instances can be shared freely between concurrent tasks.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Mapping

Exponent = tuple[int, ...]
TermSeq = tuple[tuple[Exponent, Fraction], ...]


class PolyError(ValueError):
    """Invalid polynomial construction or operation."""


class PolyParseError(PolyError):
    """Syntax or semantic error in polynomial text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    return (sum(exp), exp)


def _canonical(mapping: Mapping[Exponent, Fraction]) -> TermSeq:
    """Integer exponents, nonzero coefficients, sorted graded-lex descending.
    The keys of a mapping are distinct, so nothing is merged."""
    terms = []
    for exp, coeff in mapping.items():
        # operator.index takes Python and numpy integers and refuses floats
        # and Fractions, which int() would truncate into another monomial.
        try:
            exp = tuple(map(index, exp))
        except TypeError as exc:
            raise PolyError(f"exponents must be integers, got {exp!r}") from exc
        coeff = Fraction(coeff)
        if coeff != 0:
            terms.append((exp, coeff))
    terms.sort(key=lambda t: _grlex_key(t[0]), reverse=True)
    return tuple(terms)


def _validate_exponent(exp: Exponent, nvars: int) -> None:
    if len(exp) != nvars:
        raise PolyError(f"exponent vector {exp} has length {len(exp)}, expected {nvars}")
    if any(e < 0 for e in exp):
        raise PolyError(f"negative exponent in {exp}")


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous polynomial of degree ``d`` in ``n + 1`` variables x0..xn.

    The zero polynomial (empty ``terms``) is representable because formal
    derivatives can vanish, and so is a form in one variable (n = 0), the
    tangent cone of a binary form; both are rejected wherever a hypersurface
    is expected (parsing, destabilization, analysis entry points).
    """

    n: int
    d: int
    terms: TermSeq

    @staticmethod
    def make(n: int, d: int, terms: Mapping[Exponent, Fraction]) -> "HomogeneousPoly":
        if n < 0:
            raise PolyError(f"need at least one variable, got n = {n}")
        if d < 0:
            raise PolyError(f"negative degree {d}")
        canon = _canonical(terms)
        for exp, _ in canon:
            _validate_exponent(exp, n + 1)
            if sum(exp) != d:
                raise PolyError(f"monomial {exp} has degree {sum(exp)}, expected {d}")
        return HomogeneousPoly(n, d, canon)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def nvars(self) -> int:
        return self.n + 1

    def support(self) -> tuple[Exponent, ...]:
        return tuple(exp for exp, _ in self.terms)

    def as_dict(self) -> dict[Exponent, Fraction]:
        return dict(self.terms)

    def coefficient(self, exp: Exponent) -> Fraction:
        for e, c in self.terms:
            if e == tuple(exp):
                return c
        return Fraction(0)

    def _check_compatible(self, other: "HomogeneousPoly") -> None:
        if not isinstance(other, HomogeneousPoly):
            raise PolyError(f"expected a homogeneous polynomial, got {type(other).__name__}")
        if (other.n, other.d) != (self.n, self.d):
            raise PolyError(
                f"incompatible polynomials: (n, d) = ({self.n}, {self.d}) vs "
                f"({other.n}, {other.d})"
            )

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_compatible(other)
        acc = self.as_dict()
        for exp, c in other.terms:
            acc[exp] = acc.get(exp, Fraction(0)) + c
        return HomogeneousPoly.make(self.n, self.d, acc)

    def __neg__(self) -> "HomogeneousPoly":
        return HomogeneousPoly(self.n, self.d, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self + (-other)

    def scale(self, factor) -> "HomogeneousPoly":
        factor = Fraction(factor)
        if factor == 0:
            return HomogeneousPoly(self.n, self.d, ())
        return HomogeneousPoly(self.n, self.d, tuple((e, c * factor) for e, c in self.terms))

    def __mul__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        if other.n != self.n:
            raise PolyError("variable count mismatch in product")
        acc: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc[exp] = acc.get(exp, Fraction(0)) + c1 * c2
        return HomogeneousPoly.make(self.n, self.d + other.d, acc)

    def partial_derivative(self, j: int) -> "HomogeneousPoly":
        if not 0 <= j <= self.n:
            raise PolyError(f"variable index {j} out of range 0..{self.n}")
        acc: dict[Exponent, Fraction] = {}
        for exp, c in self.terms:
            if exp[j] == 0:
                continue
            new = list(exp)
            new[j] -= 1
            acc[tuple(new)] = acc.get(tuple(new), Fraction(0)) + c * exp[j]
        return HomogeneousPoly.make(self.n, max(self.d - 1, 0), acc)

    def evaluate(self, point: Iterable) -> Fraction:
        """f(point), exactly.  With c = C / L over the coefficients' common
        denominator L and x = X / Q over the coordinates' Q, homogeneity
        gives f(x) = (sum of C * X^exp) / (L * Q^d), a sum in integers."""
        coords = [Fraction(x) for x in point]
        if len(coords) != self.n + 1:
            raise PolyError(f"point has {len(coords)} coordinates, expected {self.n + 1}")
        scale = lcm(*(x.denominator for x in coords))
        xs = [x.numerator * (scale // x.denominator) for x in coords]
        den = lcm(*(c.denominator for _, c in self.terms))
        total = 0
        for exp, c in self.terms:
            v = c.numerator * (den // c.denominator)
            for x, e in zip(xs, exp):
                if e:
                    v *= x**e
            total += v
        return Fraction(total, den * scale**self.d)

    def __str__(self) -> str:
        return format_terms(self.terms)


# ---------------------------------------------------------------------------
# parsing and formatting
#
# Grammar (whitespace insignificant):
#   poly   ::= [sign] term { ('+'|'-') term }
#   term   ::= [coef '*'] factor { '*' factor }
#   factor ::= 'x' INDEX [ '^' EXP ]
#   coef   ::= [sign] INT [ '/' INT ]
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<var>x(?P<idx>\d+))|(?P<num>\d+)|(?P<op>[\^*/+\-])")


def _tokenize(text: str) -> tuple[list[tuple[str, str, int]], int | None]:
    """The tokens of ``text``, skipping any character that starts none, and
    the position of the first such character (None if there is none)."""
    tokens = []
    bad = None
    pos = 0
    for m in _TOKEN_RE.finditer(text):
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


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], end: int, n: int):
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

    def expect_op(self, symbol: str):
        tok = self.next()
        if tok is None or tok[0] != "op" or tok[1] != symbol:
            pos = tok[2] if tok else self.end
            raise PolyParseError(f"expected {symbol!r}", pos)

    def parse(self) -> dict[Exponent, int | Fraction]:
        """Coefficients by exponent; they stay ints until a term has a
        denominator, and ``HomogeneousPoly.make`` makes them Fractions."""
        acc: dict[Exponent, int | Fraction] = {}
        sign = 1
        tok = self.peek()
        if tok is None:
            raise PolyParseError("empty polynomial", 0)
        if tok[0] == "op" and tok[1] in "+-":
            sign = -1 if tok[1] == "-" else 1
            self.next()
        while True:
            coeff, exp, pos = self.parse_term()
            exp_t = tuple(exp)
            acc[exp_t] = acc.get(exp_t, 0) + sign * coeff
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] in "+-":
                sign = -1 if tok[1] == "-" else 1
                self.next()
            else:
                raise PolyParseError(f"expected '+' or '-', got {tok[1]!r}", tok[2])
        return acc

    def parse_term(self) -> tuple[int | Fraction, list[int], int]:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("expected a term", self.end)
        start = tok[2]
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
        return coeff, exp, start

    def parse_coef(self) -> int | Fraction:
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

    def parse_factor(self, exp: list[int]) -> None:
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


def parse_poly(text: str, n: int) -> HomogeneousPoly:
    """Parse homogeneous polynomial text in variables x0..xn.

    The degree is inferred from the first term and homogeneity is enforced.
    Raises :class:`PolyParseError` for syntax problems and :class:`PolyError`
    for fewer than two variables or inhomogeneous or identically zero input.
    """
    tokens, bad = _tokenize(text)
    return _parse_tokens(text, tokens, bad, n)


def _parse_tokens(text: str, tokens, bad: int | None, n: int) -> HomogeneousPoly:
    """The polynomial of ``text`` from its tokens.  The variable count is
    checked before a character that starts no token is reported, so a text
    whose variables are all x0 reads as too few variables in
    :func:`parse_poly_infer` too."""
    if n < 1:
        raise PolyError(f"need at least two variables, got n = {n}")
    if bad is not None:
        raise PolyParseError(f"unexpected character {text[bad]!r}", bad)
    raw = _Parser(tokens, len(text), n).parse()
    degrees = {sum(e) for e in raw}
    if len(degrees) > 1:
        found = sorted(degrees)
        raise PolyError(f"inhomogeneous input: term degrees {found}")
    canon = {e: c for e, c in raw.items() if c != 0}
    if not canon:
        raise PolyError("zero polynomial does not define a hypersurface")
    d = next(iter(degrees))
    return HomogeneousPoly.make(n, d, canon)


def parse_poly_infer(text: str) -> HomogeneousPoly:
    """Parse with ``n`` inferred as the largest variable index mentioned."""
    tokens, bad = _tokenize(text)
    indices = [int(tok[1]) for tok in tokens if tok[0] == "var"]
    if not indices:
        raise PolyError("no variables found in polynomial text")
    return _parse_tokens(text, tokens, bad, max(indices))


def _format_factors(exp: Exponent) -> str:
    parts = []
    for j, e in enumerate(exp):
        if e == 0:
            continue
        parts.append(f"x{j}" if e == 1 else f"x{j}^{e}")
    return "*".join(parts)


def format_terms(terms: TermSeq) -> str:
    """The terms as ``parse_poly`` reads them.  Sign, magnitude and "is ±1"
    are read from each coefficient's numerator and denominator: this runs
    for every polynomial a report prints."""
    if not terms:
        return "0"
    pieces = []
    for k, (exp, coeff) in enumerate(terms):
        num, den = coeff.numerator, coeff.denominator
        factors = _format_factors(exp)
        if factors and den == 1 and (num == 1 or num == -1):
            body = factors
        else:
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            body = f"{mag}*{factors}" if factors else mag
        if k == 0:
            pieces.append(body if num > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(pieces)


def format_poly(f: HomogeneousPoly) -> str:
    return format_terms(f.terms)


def last_coefficient(g: HomogeneousPoly, k: int) -> HomogeneousPoly:
    """The degree-k form in x0..x(n-1) that multiplies xn^(d-k) in g.  The
    kept terms share one last exponent, so g's order is already theirs."""
    top = g.d - k
    return HomogeneousPoly(g.n - 1, k, tuple((e[:-1], c) for e, c in g.terms if e[-1] == top))


def primitive_form(f: HomogeneousPoly) -> HomogeneousPoly:
    """f with its denominators cleared and its content removed: integer
    coefficients with gcd one (the zero polynomial stays zero)."""
    scale = lcm(*(c.denominator for _, c in f.terms))
    content = gcd(*(c.numerator * (scale // c.denominator) for _, c in f.terms))
    return f.scale(Fraction(scale, content)) if content else f

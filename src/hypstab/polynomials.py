"""Exact sparse polynomial arithmetic over the rationals.

A monomial is an exponent tuple ``(i_0, ..., i_n)`` standing for
``x0**i_0 * ... * xn**i_n``; coefficients are :class:`fractions.Fraction`
and are never zero in stored form.  Terms are kept in graded-lexicographic
order (total degree first, then lexicographic, both descending), which fixes
formatting, hashing and iteration order once and for all.

Each form also has an integer view, computed on first use and cached on the
instance: the lcm L of its coefficients' denominators and the integers L*c
in term order (:class:`IntegerView`), and from it the primitive form, with
its content removed as well.  The exact kernels that need integer
coefficients read the view instead of clearing denominators on each call:
:meth:`HomogeneousPoly.evaluate`, :attr:`HomogeneousPoly.primitive` (so
the singular scan and both Macaulay proofs of :mod:`~hypstab.modp` share
one primitive form per input), :func:`~hypstab.linalg.apply_linear_change`,
:func:`~hypstab.linalg.transformed_supports`, the quadratic-form matrix of
:mod:`~hypstab.local_analysis` and the line restriction of
:mod:`~hypstab.frames`.  ``terms`` stays the canonical storage: equality,
hashing and formatting read only ``n``, ``d`` and ``terms``.

All values are immutable: every operation returns a new polynomial, and the
cached view is a pure function of the immutable terms (two tasks that both
compute it get equal values), so instances can be shared freely between
concurrent tasks.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index
from typing import Iterable, Mapping, NamedTuple

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


class IntegerView(NamedTuple):
    """A form's coefficients over one denominator: the coefficient of term k
    is ``ints[k] / scale``, with ``scale`` the lcm of the denominators (1,
    and no ints, for the zero form)."""

    scale: int
    ints: tuple[int, ...]


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

    @cached_property
    def integer_view(self) -> IntegerView:
        """The coefficients over their lcm denominator, computed once.  A
        cached property writes the instance's ``__dict__`` and no field, so
        a frozen form stays frozen, equal and hashed as before."""
        scale = lcm(*(c.denominator for _, c in self.terms))
        ints = tuple(c.numerator * (scale // c.denominator) for _, c in self.terms)
        return IntegerView(scale, ints)

    @cached_property
    def primitive(self) -> "HomogeneousPoly":
        """The form with its denominators cleared and its content removed:
        integer coefficients with gcd one and the form's signs (the zero
        form stays zero).  Built once from the integer view, always as a new
        form (a form caching itself would be a reference cycle), which shares
        the terms of a form that is already primitive."""
        scale, ints = self.integer_view
        content = gcd(*ints)
        if scale == 1 and content <= 1:
            return HomogeneousPoly(self.n, self.d, self.terms)
        terms = tuple((e, Fraction(c // content)) for (e, _), c in zip(self.terms, ints))
        return HomogeneousPoly(self.n, self.d, terms)

    def support(self) -> tuple[Exponent, ...]:
        return tuple(exp for exp, _ in self.terms)

    def coefficient(self, exp: Exponent) -> Fraction:
        for e, c in self.terms:
            if e == tuple(exp):
                return c
        return Fraction(0)

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
        denominator L (the integer view) and x = X / Q over the coordinates'
        Q, homogeneity gives f(x) = (sum of C * X^exp) / (L * Q^d), a sum in
        integers.  An int coordinate is used as it is; any other goes through
        ``Fraction`` (which takes numpy integers and text such as "1/2")."""
        coords = [x if type(x) is int else Fraction(x) for x in point]
        if len(coords) != self.n + 1:
            raise PolyError(f"point has {len(coords)} coordinates, expected {self.n + 1}")
        scale = lcm(*(x.denominator for x in coords))
        xs = [x.numerator * (scale // x.denominator) for x in coords]
        den, ints = self.integer_view
        total = 0
        for (exp, _), v in zip(self.terms, ints):
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
# Grammar (whitespace insignificant).  A sign stands only before the first
# term and between terms, and a coefficient only first in its term, so
# ``x0^2 + -3*x1^2`` and ``2*3*x0^2`` are refused:
#   poly   ::= [sign] term { sign term }
#   sign   ::= '+' | '-'
#   term   ::= [coef '*'] factor { '*' factor }
#   coef   ::= INT [ '/' INT ]
#   factor ::= 'x' INDEX [ '^' EXP ]
# ---------------------------------------------------------------------------

# One match per token, with the whitespace before it: (space, variable
# index, integer, operator, stray character).  Every character is in some
# match except whitespace at the end.
_TOKEN_RE = re.compile(r"(\s*)(?:x(\d+)|(\d+)|([-+*/^])|(\S))")


def _token_text(token: tuple[str, ...]) -> str:
    _, idx, num, op, stray = token
    return f"x{idx}" if idx else num or op or stray


def _offset(tokens: list[tuple[str, ...]], k: int) -> int:
    """Where token k starts in the text."""
    return sum(len(t[0]) + len(_token_text(t)) for t in tokens[:k]) + len(tokens[k][0])


def _parse_error(text: str, tokens: list[tuple[str, ...]], k: int, message: str) -> PolyParseError:
    """The error at token k, or at the end of the text past the last one.
    A character that starts no token is reported instead, the first one:
    no parse gets past it, so every text holding one fails."""
    for j, token in enumerate(tokens):
        if token[4]:
            return PolyParseError(f"unexpected character {token[4]!r}", _offset(tokens, j))
    return PolyParseError(message, _offset(tokens, k) if k < len(tokens) else len(text))


def parse_poly(text: str, n: int) -> HomogeneousPoly:
    """Parse homogeneous polynomial text in variables x0..xn.

    The degree is inferred from the first term and homogeneity is enforced.
    Raises :class:`PolyParseError` for syntax problems and :class:`PolyError`
    for fewer than two variables or inhomogeneous or identically zero input.
    """
    return _parse(text, _TOKEN_RE.findall(text), n)


def _parse(text: str, tokens: list[tuple[str, ...]], n: int) -> HomogeneousPoly:
    """The polynomial of ``text`` from its tokens, in one pass over them.
    The variable count is checked before a character that starts no token
    is reported, so a text whose variables are all x0 reads as too few
    variables in :func:`parse_poly_infer` too.  Coefficients stay ints until
    a term has a denominator.  The exponents already have n + 1 entries, none
    negative, and one degree, and equal ones are merged, so the canonical
    terms are built here, as :func:`~hypstab.linalg.apply_linear_change`
    builds them, and :meth:`HomogeneousPoly.make` does not check them again."""
    if n < 1:
        raise PolyError(f"need at least two variables, got n = {n}")
    end = len(tokens)
    if not end:
        raise PolyParseError("empty polynomial", 0)
    acc: dict[Exponent, int | Fraction] = {}
    op = tokens[0][3]
    sign = -1 if op == "-" else 1
    k = 1 if op == "+" or op == "-" else 0
    while True:
        if k == end:
            raise _parse_error(text, tokens, k, "expected a term")
        coeff = 1
        num = tokens[k][2]
        if num:
            coeff = int(num)
            k += 1
            if k < end and tokens[k][3] == "/":
                k += 1
                den = tokens[k][2] if k < end else ""
                if not den:
                    raise _parse_error(text, tokens, k, "expected denominator after '/'")
                den = int(den)
                if not den:
                    raise _parse_error(text, tokens, k, "zero denominator")
                coeff = Fraction(coeff, den)
                k += 1
            if k == end or tokens[k][3] != "*":
                raise _parse_error(text, tokens, k, "expected '*'")
            k += 1
        exp = [0] * (n + 1)
        while True:
            idx = tokens[k][1] if k < end else ""
            if not idx:
                raise _parse_error(text, tokens, k, "expected a variable like x0")
            i = int(idx)
            if i > n:
                raise _parse_error(text, tokens, k, f"variable index {i} exceeds n = {n}")
            k += 1
            if k < end and tokens[k][3] == "^":
                k += 1
                power = tokens[k][2] if k < end else ""
                if not power:
                    raise _parse_error(text, tokens, k, "expected exponent after '^'")
                exp[i] += int(power)
                k += 1
            else:
                exp[i] += 1
            if k == end or tokens[k][3] != "*":
                break
            k += 1
        key = tuple(exp)
        acc[key] = acc.get(key, 0) + sign * coeff
        if k == end:
            break
        op = tokens[k][3]
        if op != "+" and op != "-":
            raise _parse_error(text, tokens, k, f"expected '+' or '-', got {_token_text(tokens[k])!r}")
        sign = -1 if op == "-" else 1
        k += 1
    degrees = {sum(e) for e in acc}
    if len(degrees) > 1:
        found = sorted(degrees)
        raise PolyError(f"inhomogeneous input: term degrees {found}")
    # One degree, so graded-lex order is lex order on the (distinct)
    # exponents, and no Fraction is compared.
    terms = tuple(sorted(((e, Fraction(c)) for e, c in acc.items() if c), reverse=True))
    if not terms:
        raise PolyError("zero polynomial does not define a hypersurface")
    return HomogeneousPoly(n, degrees.pop(), terms)


def parse_poly_infer(text: str) -> HomogeneousPoly:
    """Parse with ``n`` inferred as the largest variable index mentioned."""
    tokens = _TOKEN_RE.findall(text)
    indices = [int(t[1]) for t in tokens if t[1]]
    if not indices:
        raise PolyError("no variables found in polynomial text")
    return _parse(text, tokens, max(indices))


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


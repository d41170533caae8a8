"""Structured search frames: kernel frames at double points and
linear-component frames.

Hilbert-Mumford sees only the flag a coordinate frame induces, and the torus
LP sees every weight vector adapted to one flag in one frame: such vectors
with the same weights are conjugate under the flag's parabolic subgroup,
which leaves the numerical function unchanged.  The paper's Hessian lemma
says where a destabilizing weight vector lives: read in sorted coordinates,
it makes [0:...:0:1] a singular point P and bounds the rank of the
x_n^(d-2) coefficient Q there.  So the frames here are built from flags:

- ``hessian-kernel``: P < P + ker Q, at each double point;
- ``kernel-line``: P < P + L < P + ker Q for lines L of ker Q, when
  dim ker Q >= 2, those where the next coefficient forms vanish first;
- ``linear-component``: a rational linear factor of f made a coordinate,
  for a hyperplane component of the hypersurface.

Everything is exact, and :mod:`.search` re-verifies every certificate a
frame gives.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, isqrt
from typing import Iterable, Iterator, Sequence

from .linalg import (
    RationalMatrix,
    apply_linear_change,
    matrix_product,
    nullspace_basis,
    nullspace_vector,
    primitive_row,
)
from .local_analysis import LocalData, quadratic_form_matrix
from .polynomials import HomogeneousPoly, last_coefficient


def structured_frames(
    f: HomogeneousPoly, local: Iterable[LocalData]
) -> Iterator[tuple[str, RationalMatrix]]:
    """(strategy, frame): the kernel frame of each double point whose ker Q
    is not a coordinate subspace (there the point frame has its torus), then
    the kernel-line frames of all double points by their keys (see
    :meth:`HessianKernel.lines`), then the linear-component frames.  Each is
    built when the caller draws it."""
    kernels = [(data, HessianKernel.of(data)) for data in local if data.multiplicity == 2]
    for _, kernel in kernels:
        if not kernel.is_coordinate:
            yield "hessian-kernel", kernel.frame(kernel.vectors)
    lines = [
        (key, index, kernel, c)
        for index, (data, kernel) in enumerate(kernels)
        for key, c in kernel.lines(data.moved)
    ]
    lines.sort(key=lambda line: line[:2])
    for _, _, kernel, c in lines:
        yield "kernel-line", kernel.line_frame(c)
    for frame in linear_components(f):
        yield "linear-component", frame


# At most this many lines of height <= 2 per double point, lowest first:
# they number about 5^k / 2 for dim ker Q = k.
_LINES_PER_POINT = 128


@dataclass(frozen=True)
class HessianKernel:
    """ker Q at a double point P, Q being the x_n^(d-2) coefficient of the
    moved form g = f∘sigma_P (the tangent cone), in g's first n coordinates.
    ``sigma_p`` and g are the point's ``frame`` and ``moved`` from its local
    analysis.

    ``vectors`` is the reduced echelon basis of ker Q, whose vector for free
    column c is 1 at c, 0 at the other free columns and 0 after c, each
    scaled to coprime integers, and ``complement`` the unit vectors of the
    other (pivot) columns.  A frame sigma = B @ sigma_P, with the complement,
    then vectors spanning ker Q, then e_n as the rows of B, is adapted to the
    flag P < P + ker Q, which the Hessian lemma says a destabilizing weight
    vector must respect."""

    sigma_p: RationalMatrix
    vectors: tuple[tuple[int, ...], ...]
    complement: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(data: LocalData) -> "HessianKernel":
        basis = nullspace_basis(quadratic_form_matrix(data.tangent_cone))
        vectors = tuple(tuple(primitive_row(v)) for v in basis)
        free = {max(i for i, x in enumerate(v) if x) for v in vectors}
        size = data.point.n
        complement = tuple(
            tuple(int(i == j) for i in range(size)) for j in range(size) if j not in free
        )
        return HessianKernel(data.frame, vectors, complement)

    @property
    def is_coordinate(self) -> bool:
        """Whether ker Q is spanned by unit vectors, so that the kernel frame
        has the point frame's torus (B is a permutation)."""
        return all(sum(x != 0 for x in v) == 1 for v in self.vectors)

    def frame(self, kernel_rows: Iterable[Sequence[int]]) -> RationalMatrix:
        """B @ sigma_P for B with the rows: the complement, ``kernel_rows``
        (vectors of ker Q), then e_n, so that P stays last.  B is integer
        and only the product is built."""
        size = self.sigma_p.nrows
        rows = [list(v) + [0] for v in chain(self.complement, kernel_rows)]
        rows.append([0] * (size - 1) + [1])
        return matrix_product(rows, self.sigma_p.ints, self.sigma_p.scale)

    def vector(self, c: Iterable[int]) -> list[int]:
        """sum(c_i * vectors[i])."""
        return [sum(ci * x for ci, x in zip(c, col)) for col in zip(*self.vectors)]

    def line_frame(self, c: tuple[int, ...]) -> RationalMatrix:
        """The frame adapted to P < P + L < P + ker Q for the line L of
        ``vector(c)``: its last kernel vector with c_i != 0 is replaced."""
        last = max(i for i, ci in enumerate(c) if ci)
        rows = [v for i, v in enumerate(self.vectors) if i != last]
        return self.frame(rows + [self.vector(c)])

    def lines(self, g: HomogeneousPoly) -> list[tuple[tuple[bool, ...], tuple[int, ...]]]:
        """(key, c) for the lines L = <vector(c)> of ker Q that a line frame
        tries when dim ker Q >= 2, keyed by which of the next coefficient
        forms G_3, ..., G_d of g fail to vanish on L, so that sorting by key
        tries first the lines where they vanish.  The lines are the rational
        roots of the first G_k that does not vanish on all of ker Q when ker Q
        is a plane, then the lines of height <= 2 in the basis ``vectors``.
        A unit c gives a kernel vector, whose line is already the kernel
        frame's, so it is left out."""
        k = len(self.vectors)
        if k < 2:
            return []
        forms = [last_coefficient(g, j) for j in range(3, g.d + 1)]
        found: list[tuple[int, ...]] = []
        if k == 2:
            for form in forms:
                roots = _rational_roots(_on_line(form, self.vectors[0], self.vectors[1]))
                if roots is not None:
                    found += [_canonical(primitive_row([s, 1])) for s in roots]
                    break
        small = (
            c
            for height in (1, 2)
            for c in product(range(-height, height + 1), repeat=k)
            if max(map(abs, c)) == height and c == _canonical(c) and gcd(*c) == 1
        )
        found += [c for c, _ in zip(small, range(_LINES_PER_POINT)) if c not in found]

        def key(c):
            v = self.vector(c)
            return tuple(form.evaluate(v) != 0 for form in forms)

        return [(key(c), c) for c in found if sum(x != 0 for x in c) > 1]


def _canonical(c) -> tuple[int, ...]:
    """c or -c, whichever has its first nonzero entry positive."""
    sign = -1 if next((x for x in c if x), 0) < 0 else 1
    return tuple(sign * x for x in c)


# Largest coefficient whose divisors the rational-root search enumerates.
_ROOT_LIMIT = 10**8


def _on_line(f: HomogeneousPoly, p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The coefficients of f(s*p + q) in s, lowest degree first, times the
    lcm of f's denominators (the integers of its view): f restricted to the
    line through the integer points p and q, read at t = 1 of s*p + t*q."""
    out = [0] * (f.d + 1)
    for (exp, _), c in zip(f.terms, f.integer_view.ints):
        poly = [c]
        for j, e in enumerate(exp):
            for _ in range(e):
                poly = [a * q[j] + b * p[j] for a, b in zip(poly + [0], [0] + poly)]
        for k, v in enumerate(poly):
            out[k] += v
    return out


def _divisors(n: int) -> list[int] | None:
    if n > _ROOT_LIMIT:
        return None
    low = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return sorted(set(low + [n // k for k in low]))


def _rational_roots(coeffs: list[int]) -> list[Fraction] | None:
    """The distinct rational roots of sum(coeffs[k] * s**k), in increasing
    order, by the rational-root theorem; None for the zero polynomial (every
    s is a root) or when a coefficient to factor exceeds ``_ROOT_LIMIT``."""
    ints = list(coeffs)
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return None
    low = next(k for k, c in enumerate(ints) if c)
    roots = {Fraction(0)} if low else set()
    ints = ints[low:]
    degree = len(ints) - 1
    if degree:
        tops, bottoms = _divisors(abs(ints[0])), _divisors(abs(ints[-1]))
        if tops is None or bottoms is None:
            return None
        for a, b in product(tops, bottoms):
            for top in (a, -a) if gcd(a, b) == 1 else ():
                if sum(c * top**k * b ** (degree - k) for k, c in enumerate(ints)) == 0:
                    roots.add(Fraction(top, b))
    return sorted(roots)


def linear_components(f: HomogeneousPoly) -> Iterator[RationalMatrix]:
    """A frame for each rational linear form a.x dividing f, whose rows are a
    basis of the hyperplane a.x = 0 and then a unit vector off it, so that
    a.x becomes a multiple of the last coordinate.

    The search restricts f to the lines through a point p0 with f(p0) != 0
    and each unit vector e_j, j != pivot of p0.  p0 is a unit vector if one
    will do, else the first point of {0, ..., d}^(n+1) in lex order (a
    nonzero form of degree d does not vanish on all of that grid).  p0 lies
    on no component, so a hyperplane component meets each line in one
    rational point s*p0 + e_j off p0, with s a rational root of the
    restriction.  The components are among the hyperplanes through one such
    root per line; a choice survives while f vanishes at R_i + R_j for each
    pair of its points, and the hyperplane through the n points is kept only
    if f vanishes on all of it, that is if the moved form has no term free of
    the last coordinate.  Nothing is returned for the zero form, a form in
    one variable, or when a root search gives up."""
    size = f.n + 1
    units = [tuple(int(i == j) for i in range(size)) for j in range(size)]
    grid = product(range(f.d + 1), repeat=size)
    base = next((p for p in chain(units, grid) if f.evaluate(p) != 0), None)
    if base is None or size < 2:
        return
    pivot = next(i for i, x in enumerate(base) if x)
    points = []
    for j in range(size):
        if j == pivot:
            continue
        roots = _rational_roots(_on_line(f, base, units[j]))
        if not roots:
            return
        # s*p0 + e_j, scaled by the denominator of s.
        points.append(
            [[s.numerator * b + s.denominator * e for b, e in zip(base, units[j])] for s in roots]
        )

    def choices(chosen):
        if len(chosen) == len(points):
            yield chosen
            return
        for point in points[len(chosen)]:
            if all(f.evaluate([x + y for x, y in zip(point, other)]) == 0 for other in chosen):
                yield from choices(chosen + [point])

    for chosen in choices([]):
        a = nullspace_vector(chosen)
        lead = next(i for i, x in enumerate(a) if x)
        frame = RationalMatrix.from_rows(nullspace_basis([a]) + [units[lead]])
        if last_coefficient(apply_linear_change(f, frame), f.d).is_zero:
            yield frame

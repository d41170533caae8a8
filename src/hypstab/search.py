"""Destabilization search over coordinate frames.

The torus LP is complete at fixed coordinates, and Hilbert-Mumford sees
only the flag a frame induces, so the search problem is choosing flags.
The strategies, in stream order, under the names their frame records carry:

- ``singular-point-to-Q``: the identity, then each verified rational
  singular point P moved to the last coordinate, where the paper's Hessian
  lemma puts the singular point of a destabilized form in sorted
  coordinates.
- ``hessian-kernel``: at each double point, a frame adapted to the flag
  P < P + ker Q, Q being the x_n^(d-2) coefficient, whose rank the lemma
  bounds.
- ``kernel-line``: when dim ker Q >= 2, frames adapted to P < P + L <
  P + ker Q for lines L of ker Q, those where the next coefficient forms
  vanish first.
- ``linear-component``: one frame per rational linear factor of f, which
  becomes a coordinate.
- ``permutations`` and ``random-unipotent``: random coordinate permutations,
  and random integer unipotent changes composed with point frames and
  permutations, to the end of the budget.

The kernel, line and linear-component frames (:mod:`.frames`) are built only
when the stream reaches them, from the local data the caller passes.  Frames
are generated deterministically from the seed; results are merged in
strategy order, then frame order, so identical inputs give identical
outputs.

Each frame goes to the torus LP, which is complete per frame.  Absence of
a certificate within budget is reported as exactly that, never as a
stability claim.  For a form proven semistable, which has no strict
certificate, the caller can skip every strict decision; the search then
ends at the first non-strict certificate.

Refutations are reused across frames, because refutation is upward-closed
in the support.  Let lam be a verified barycentric certificate on monomials
S, c the centroid, and T a support containing S.

- Strict: lam >= 0, sum(lam) = 1 and sum(lam * (i - c)) = 0 put c in
  conv(S), a subset of conv(T), so no r has r.i > 0 on all of T.
- Non-strict: lam > 0 on S, and S - c spans the zero-sum space.  If
  r.i >= 0 on T for a zero-sum r, then sum(lam * r.(i - c)) = 0 forces
  r.i = 0 on S, so r is orthogonal to the whole zero-sum space: r = 0.

A non-strict refutation is therefore also a strict one.  Before calling
the LP the search returns the first refutation found earlier in the same
search (for a strict decision, of either mode) whose monomials all lie in
the frame's support.  Witnesses come only from the LP, on the supports
where it would run without reuse, so the outcome is unchanged.  This is the
search's only memo: the lists only grow at their end, so a support seen
before gets the refutation that first settled it, and a feasible decision
is never asked again (a witness ends the queries of its mode).

The reuse test and the choice to call the LP read only the support of
g = f∘sigma, so that is all most frames need.  Frame 0 is the identity,
whose g is f, and each point frame is the point's sigma_P, whose g is the
point's ``moved`` form: the local analysis built both once, and the search
expands neither again.  The structured and random frames' exact supports
come from :func:`~hypstab.linalg.transformed_supports`, which expands a
chunk of frames at once in numpy; the chunks hold 1, 2, 4, ... frames,
capped by the budget left, so a search that stops early expands fewer than
twice the frames it tries, and one that stops at the identity or a point
frame expands none and builds no structured frame.  Only an expanded frame
whose decision goes to the LP is expanded again by ``apply_linear_change``,
and its support must equal the batched one; a mismatch raises
:class:`InternalConsistencyError`.  Any other error inside
the search, such as a frame that the kernel rejects as singular, is a fault
of the program too and propagates with its own type.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import Iterator

from . import frames
from .certificates import Certificate, verify_certificate
from .linalg import RationalMatrix, apply_linear_change, transformed_supports
from .local_analysis import LocalData
from .polynomials import Exponent, HomogeneousPoly
from .torus import BarycentricCertificate, TorusDecision, torus_destabilize
from .verdicts import InternalConsistencyError, Status
# perfbench wraps ``hypstab.search.membership`` as its membership layer.
from .weights import membership  # noqa: F401


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 50
    seed: int = 0
    bound: int = 2

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.bound < 1:
            raise ValueError("matrix entry bound must be >= 1")


@dataclass
class FrameRecord:
    """One frame's decisions; None where a decision was not asked."""

    strategy: str
    index: int
    strict_feasible: bool | None
    nonstrict_feasible: bool | None

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "index": self.index,
            "strict_feasible": self.strict_feasible,
            "nonstrict_feasible": self.nonstrict_feasible,
        }


@dataclass
class SearchOutcome:
    strict: Certificate | None = None
    nonstrict: Certificate | None = None
    frames: list[FrameRecord] = field(default_factory=list)

    @property
    def frames_tried(self) -> int:
        return len(self.frames)


def _random_unipotent(rng: random.Random, size: int, bound: int, upper: bool) -> RationalMatrix:
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for i in range(size):
        rng_range = range(i + 1, size) if upper else range(0, i)
        for j in rng_range:
            rows[i][j] = rng.randint(-bound, bound)
    return RationalMatrix(1, tuple(map(tuple, rows)))


def _random_permutation(rng: random.Random, size: int) -> RationalMatrix:
    images = list(range(size))
    rng.shuffle(images)
    return RationalMatrix.permutation(images)


def _frames(cfg: SearchConfig, f: HomogeneousPoly, points: tuple[LocalData, ...]):
    """Endless deterministic frame stream: (strategy, matrix), identity first,
    then each point's frame sigma_P, the structured frames and the random
    rounds.  The search pairs the first 1 + len(points) frames with f and
    the points' ``moved`` forms, which are f∘sigma for them."""
    size = f.n + 1
    rng = random.Random(cfg.seed)
    point_frames = [p.frame for p in points]
    yield "singular-point-to-Q", RationalMatrix.identity(size)
    for frame in point_frames:
        yield "singular-point-to-Q", frame
    yield from frames.structured_frames(f, points)
    while True:
        yield "permutations", _random_permutation(rng, size)
        tau = _random_unipotent(rng, size, cfg.bound, upper=True)
        if point_frames:
            base = point_frames[rng.randrange(len(point_frames))]
            yield "random-unipotent", tau @ base
        else:
            yield "random-unipotent", tau @ _random_permutation(rng, size)
        lower = _random_unipotent(rng, size, cfg.bound, upper=False)
        yield "random-unipotent", lower @ _random_permutation(rng, size)


@dataclass
class _Frame:
    """One search frame with the exact support of g = f∘sigma.  ``g`` is f
    for the identity frame and the point's ``moved`` form for a point frame;
    for the others it is built only when an LP needs it."""

    strategy: str
    sigma: RationalMatrix
    support: tuple[Exponent, ...]
    g: HomogeneousPoly | None = None


def _frames_with_supports(f: HomogeneousPoly, stream, budget: int) -> Iterator[_Frame]:
    """The first ``budget`` frames of ``stream`` (none if it is below 1),
    each with the support of f∘sigma from one :func:`transformed_supports`
    call per chunk.  The chunks hold 1, 2, 4, ... frames, capped by the
    budget left; each is drawn and expanded only when the search reaches
    it."""
    left = budget
    for size in (1 << k for k in count()):
        if left <= 0:
            return
        chunk = [next(stream) for _ in range(min(size, left))]
        left -= len(chunk)
        supports = transformed_supports(f, [sigma for _, sigma in chunk])
        for (strategy, sigma), support in zip(chunk, supports):
            yield _Frame(strategy, sigma, support)


def search_destabilization(
    f: HomogeneousPoly,
    cfg: SearchConfig,
    points: tuple[LocalData, ...] = (),
    nonstrict_only: bool = False,
) -> SearchOutcome:
    """Search for destabilization certificates of ``f`` within the frame
    budget.  Any returned certificate has been re-verified from scratch.
    ``points`` are the local data of rational singular points of f, whose
    ``frame`` and ``moved`` the point and kernel frames read.
    ``nonstrict_only`` is for an f proven semistable, which has no strict
    certificate: every strict decision is skipped (its record reads None)
    and the search ends at the first non-strict certificate."""
    outcome = SearchOutcome()
    # Per mode: (monomials, certificate) of every refutation found so far.
    refutations: dict[bool, list[tuple[frozenset[Exponent], BarycentricCertificate]]] = {
        True: [],
        False: [],
    }

    def transformed(frame: _Frame) -> HomogeneousPoly:
        """f∘sigma for an LP, which must have the batched support."""
        if frame.g is None:
            frame.g = apply_linear_change(f, frame.sigma)
            if frame.g.support() != frame.support:
                raise InternalConsistencyError(
                    f"frame support {frame.support} differs from the exact change's {frame.g.support()}"
                )
        return frame.g

    def decide(frame: _Frame, strict: bool) -> TorusDecision:
        present = frozenset(frame.support)
        reused = next((cert for mons, cert in refutations[strict] if mons <= present), None)
        if reused is not None:
            return TorusDecision(False, strict, certificate=reused)
        decision = torus_destabilize(transformed(frame), strict)
        if not decision.feasible:
            entry = (frozenset(exp for exp, _ in decision.certificate), decision.certificate)
            refutations[strict].append(entry)
            if not strict:
                refutations[True].append(entry)
        return decision

    stream = _frames(cfg, f, points)
    # zip asks for a g before it draws a frame, so it draws none past the
    # point frames.
    known = zip(chain([f], (p.moved for p in points)), stream)
    frames = chain(
        (_Frame(strategy, sigma, g.support(), g) for g, (strategy, sigma) in known),
        _frames_with_supports(f, stream, cfg.budget - 1 - len(points)),
    )
    for index, frame in enumerate(islice(frames, cfg.budget)):
        strategy, sigma = frame.strategy, frame.sigma

        strict_feasible: bool | None = None
        if not nonstrict_only:
            decision = decide(frame, strict=True)
            strict_feasible = decision.feasible
            if decision.witness is not None:
                cert = Certificate(sigma, decision.witness.reduced(), strict=True)
                if verify_certificate(f, cert).status != Status.NOT_SEMISTABLE:
                    raise InternalConsistencyError(
                        "strict certificate failed final re-verification"
                    )
                outcome.strict = cert
                outcome.frames.append(FrameRecord(strategy, index, True, None))
                return outcome

        nonstrict_feasible: bool | None = None
        if outcome.nonstrict is None:
            nonstrict = decide(frame, strict=False)
            nonstrict_feasible = nonstrict.feasible
            if nonstrict.witness is not None:
                cert = Certificate(sigma, nonstrict.witness.reduced(), strict=False)
                if verify_certificate(f, cert).status != Status.NOT_STABLE:
                    raise InternalConsistencyError("non-strict certificate failed final re-verification")
                outcome.nonstrict = cert
        outcome.frames.append(FrameRecord(strategy, index, strict_feasible, nonstrict_feasible))
        if nonstrict_only and outcome.nonstrict is not None:
            break
    return outcome

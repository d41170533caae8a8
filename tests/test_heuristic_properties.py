"""Property suites whose hypotheses involve the singular-locus dimension.

The dimension is never computed exactly here, so on violation these suites
log counterexample candidates loudly (warnings plus stdout) instead of
failing: a candidate means either a genuine bug or, far more likely, a
singular locus of positive dimension that the rational scan cannot rule out.
"""
from __future__ import annotations

import warnings
from math import ceil

from hypstab import analyze_point, scan_singular_points
from hypstab.local_analysis import ProjectivePoint

from conftest import random_cone_member, random_sorted_weights


def _looks_isolated(f) -> bool:
    """Heuristic evidence that the singular locus is zero-dimensional: few
    rational singular points of small height and small finite-field counts."""
    scan = scan_singular_points(f, 2, field_sizes=(7,))
    count7 = scan.field_counts.get(7)
    if count7 is None:
        return False
    # A positive-dimensional locus over F_7 carries at least ~p points.
    return count7 <= 4


def test_multiplicity_consistency_logged(rng):
    """Members of a non-negative weight cone with (heuristically) isolated
    singularities should have multiplicity at the last coordinate point at
    least ceil(d(d-2)/(2d-3))."""
    candidates = []
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 3)
        d = rng.choice([3, 4])
        r = random_sorted_weights(rng, n, bound=4)
        f = random_cone_member(rng, n, d, r, strict=False)
        if f is None:
            continue
        if not _looks_isolated(f):
            continue
        checked += 1
        bound = ceil(d * (d - 2) / (2 * d - 3))
        point = ProjectivePoint.make([0] * n + [1])
        if analyze_point(f, point).multiplicity < bound:
            candidates.append((r.r, tuple(f.terms)))
    print(f"\nmultiplicity-consistency: {checked} instances checked, "
          f"{len(candidates)} counterexample candidates")
    for r, terms in candidates:
        warnings.warn(
            f"multiplicity-consistency candidate (heuristic s=0 may be wrong): "
            f"r = {r}, terms = {terms}",
            stacklevel=1,
        )
    assert checked > 0

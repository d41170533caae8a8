#!/usr/bin/env python3
"""Reproduce the built-in destabilization families end to end.

For each family member: verify the built-in certificate exactly, then make
the search pipeline rediscover a strict certificate from scratch (singular
scan + torus LP), and print both.

Usage: python scripts/destabilize_families.py [max_n]
"""
from __future__ import annotations

import sys
import time

from hypstab import (
    SearchConfig,
    Status,
    analyze_point,
    family_certificate,
    format_poly,
    scan_singular_points,
    search_destabilization,
    verify_certificate,
)


def main(max_n: int = 6) -> int:
    print(f"{'family':>6} {'n':>2} {'polynomial':<42} {'weights':<22} verdict   rediscovered")
    for family, start in (("fn", 2), ("gn", 3)):
        for n in range(start, max_n + 1):
            t0 = time.perf_counter()
            f, cert = family_certificate(family, n)
            verdict = verify_certificate(f, cert)
            assert verdict.status == Status.NOT_SEMISTABLE

            scan = scan_singular_points(f, 2)
            points = tuple(analyze_point(f, p) for p in scan.points)
            outcome = search_destabilization(f, SearchConfig(budget=10, seed=1), points)
            found = outcome.strict.r if outcome.strict else None
            elapsed = time.perf_counter() - t0
            print(
                f"{family:>6} {n:>2} {format_poly(f):<42} {str(cert.r):<22} "
                f"{verdict.status.value}  r = {found}  ({elapsed:.3f}s)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 6))

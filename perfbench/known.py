"""Known answers for the analyze workloads, one published source per entry.

A truth class admits the statuses that do not contradict it: ``Inconclusive``
never contradicts, and a weaker true claim (``NotStable`` for an unstable
input, ``SemiStable`` for a stable one) is allowed.
"""
from __future__ import annotations

from dataclasses import dataclass

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly-semistable"
UNSTABLE = "unstable"

CONSISTENT = {
    STABLE: {"Stable", "SemiStable", "Inconclusive"},
    STRICTLY_SEMISTABLE: {"SemiStable", "NotStable", "Inconclusive"},
    UNSTABLE: {"NotSemiStable", "NotStable", "Inconclusive"},
}


@dataclass(frozen=True)
class Known:
    truth: str
    source: str


_FAMILY = "hypstab paper: the fn/gn families carry strict identity-frame certificates (NotSemiStable)"

KNOWN = {
    "fn": Known(UNSTABLE, _FAMILY),
    "gn": Known(UNSTABLE, _FAMILY),
    "fn2": Known(UNSTABLE, _FAMILY),
    "fn3": Known(UNSTABLE, _FAMILY),
    "gn2": Known(UNSTABLE, _FAMILY),
    "gn3": Known(UNSTABLE, _FAMILY),
    "smooth": Known(STABLE, "Mumford, GIT Prop. 4.2: smooth hypersurfaces of degree >= 3 are stable"),
    "cusp": Known(UNSTABLE, "Hoskins, Lemma 7.25: a plane cubic with a cusp is unstable"),
    "nodal-cubic": Known(
        STRICTLY_SEMISTABLE, "Hoskins, Lemma 7.25: a nodal plane cubic is strictly semistable"
    ),
    "irrational-node-cubic": Known(
        STRICTLY_SEMISTABLE,
        "Hoskins, Lemma 7.25: line x0 + x2 = 0 plus a smooth conic, meeting transversally "
        "at [-1 : +-sqrt(6)/2 : 1], is strictly semistable",
    ),
    "singular-line": Known(
        UNSTABLE, "Mukai, Thm 7.14/7.20: a cubic surface singular along a line is unstable"
    ),
}


def contradicts(known_key: str, status: str) -> bool:
    return status not in CONSISTENT[KNOWN[known_key].truth]

"""Shared verdict vocabulary for stability claims.

``Stable`` implies ``SemiStable``; ``NotSemiStable`` implies ``NotStable``.
Positive statuses come from sufficient criteria, negative ones only from
exactly verified certificates, and anything undecided is ``Inconclusive``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction


class Status(enum.Enum):
    STABLE = "Stable"
    SEMISTABLE = "SemiStable"
    NOT_STABLE = "NotStable"
    NOT_SEMISTABLE = "NotSemiStable"
    INCONCLUSIVE = "Inconclusive"

    @property
    def is_positive(self) -> bool:
        return self in (Status.STABLE, Status.SEMISTABLE)


_POSITIVE_STRENGTH = {Status.INCONCLUSIVE: 0, Status.SEMISTABLE: 1, Status.STABLE: 2}


def positive_strength(status: Status) -> int:
    """0 for inconclusive, 1 for semi-stable, 2 for stable."""
    try:
        return _POSITIVE_STRENGTH[status]
    except KeyError:
        raise ValueError(f"{status} is not a positive or inconclusive status")


def strongest_positive(statuses) -> Status:
    best = Status.INCONCLUSIVE
    for st in statuses:
        if positive_strength(st) > positive_strength(best):
            best = st
    return best


@dataclass
class Reason:
    """One criterion consulted, with its exact margin when meaningful."""

    criterion: str
    margin: Fraction | str | None = None
    note: str = ""
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"criterion": self.criterion}
        if self.margin is not None:
            out["margin"] = str(self.margin)
        if self.note:
            out["note"] = self.note
        if self.inputs:
            out["inputs"] = {k: str(v) for k, v in self.inputs.items()}
        return out


@dataclass
class StabilityVerdict:
    status: Status
    reasons: list[Reason] = field(default_factory=list)
    literature: str | None = None

    def to_json(self) -> dict:
        out = {"status": self.status.value, "reasons": [r.to_json() for r in self.reasons]}
        if self.literature is not None:
            out["literature"] = self.literature
        return out

    def __str__(self) -> str:
        lines = [self.status.value]
        for r in self.reasons:
            margin = f" margin {r.margin}" if r.margin is not None else ""
            note = f" ({r.note})" if r.note else ""
            lines.append(f"  - {r.criterion}{margin}{note}")
        if self.literature:
            lines.append(f"  literature: {self.literature}")
        return "\n".join(lines)


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree disagreed; a bug sentinel, never expected."""

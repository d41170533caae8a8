"""Destabilization certificates and their exact verification.

A certificate is a pair (sigma, r): an invertible rational coordinate change
(a :class:`~hypstab.linalg.RationalMatrix`, which refuses a singular or
non-square matrix when it is built) and one weight per variable.  It claims
non-stability (non-strict) or non-semistability (strict); verification
recomputes sigma(f) and checks every support weight, so accepting a
certificate never depends on how it was found.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RationalMatrix, apply_linear_change
from .polynomials import HomogeneousPoly
from .verdicts import Reason, StabilityVerdict, Status
from .weights import WeightVector, first_violation


class CertificateError(ValueError):
    """Malformed certificate (bad matrix, bad weights, bad JSON)."""


@dataclass(frozen=True)
class Certificate:
    sigma: RationalMatrix
    r: WeightVector
    strict: bool

    def __post_init__(self):
        if self.sigma.nrows != len(self.r):
            raise CertificateError("matrix size does not match weight vector length")

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_strings(),
            "r": list(self.r.r),
            "strict": self.strict,
        }

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        """Matrix entries must be JSON integers or strings such as "-1/2" or
        "0.25" (what :meth:`to_json` writes), weights JSON integers and
        ``strict`` a JSON boolean; other values (a boolean or a binary float
        entry, say) are refused, not coerced into a different certificate."""
        try:
            rows = [list(row) for row in data["sigma"]]
            if any(type(v) not in (int, str) for row in rows for v in row):
                raise ValueError("matrix entries must be JSON integers or strings")
            sigma = RationalMatrix.from_rows(rows)
            weights, strict = tuple(data["r"]), data["strict"]
            if any(type(v) is not int for v in weights) or type(strict) is not bool:
                raise ValueError("weights must be JSON integers and strict a JSON boolean")
            r = WeightVector(weights)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CertificateError(f"bad certificate JSON: {exc}") from exc
        return Certificate(sigma, r, strict)


def check_weight_count(f: HomogeneousPoly, cert: Certificate) -> None:
    """Raise :class:`CertificateError` unless ``cert`` has one weight per
    variable of ``f``."""
    if len(cert.r) != f.n + 1:
        raise CertificateError(
            f"certificate has {len(cert.r)} weights but polynomial has {f.n + 1} variables"
        )


def verify_certificate(f: HomogeneousPoly, cert: Certificate) -> StabilityVerdict:
    """Exactly verify a certificate against ``f``.

    Returns NotSemiStable (strict) or NotStable (non-strict) on success; on
    failure returns Inconclusive with the first violating monomial and its
    weight.  Raises :class:`CertificateError` for a weight count that does
    not match f's variables.
    """
    check_weight_count(f, cert)
    g = apply_linear_change(f, cert.sigma)
    violation = first_violation(g, cert.r, cert.strict)
    if violation is None:
        status = Status.NOT_SEMISTABLE if cert.strict else Status.NOT_STABLE
        kind = "positive" if cert.strict else "non-negative"
        return StabilityVerdict(
            status,
            [
                Reason(
                    criterion="hm-certificate",
                    note=f"all support weights of the transformed polynomial are {kind}",
                    inputs={"r": cert.r, "strict": cert.strict},
                )
            ],
        )
    exp, w = violation
    return StabilityVerdict(
        Status.INCONCLUSIVE,
        [
            Reason(
                criterion="certificate-rejected",
                margin=Fraction(w),
                note=f"monomial {exp} has weight {w}",
                inputs={"monomial": exp, "weight": w, "strict": cert.strict},
            )
        ],
    )

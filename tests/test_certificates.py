"""Exact certificate verification and JSON round-trips."""
from __future__ import annotations

from fractions import Fraction

import pytest

from hypstab import (
    Certificate,
    CertificateError,
    RationalMatrix,
    Status,
    WeightVector,
    parse_poly,
    verify_certificate,
)
from hypstab.linalg import permutation_rows


def identity_cert(r, strict):
    return Certificate(RationalMatrix.identity(len(r)), WeightVector(r), strict)


class TestVerify:
    def test_f2_strict_accepted(self, corpus):
        verdict = verify_certificate(corpus["f2"], identity_cert((3, 1, -4), True))
        assert verdict.status == Status.NOT_SEMISTABLE
        assert verdict.reasons[0].criterion == "hm-certificate"

    def test_fermat_rejected_with_violation(self, corpus):
        verdict = verify_certificate(corpus["fermat_cubic"], identity_cert((1, 0, -1), False))
        assert verdict.status == Status.INCONCLUSIVE
        reason = verdict.reasons[0]
        assert reason.criterion == "certificate-rejected"
        assert reason.inputs["monomial"] == (0, 0, 3)
        assert reason.inputs["weight"] == -3

    def test_swap_certificate_nonstrict(self):
        f = parse_poly("x0*x2*x3 + x1^3", 3)
        cert = Certificate(RationalMatrix(1, permutation_rows([0, 2, 1, 3])), WeightVector((1, 1, 0, -2)), False)
        assert verify_certificate(f, cert).status == Status.NOT_STABLE

    def test_strict_fails_on_zero_weight(self, corpus):
        # (1, 1, -2) gives the triangle monomial weight 0: non-strict passes,
        # strict does not.
        triangle = corpus["triangle"]
        assert verify_certificate(triangle, identity_cert((1, 0, -1), False)).status == Status.NOT_STABLE
        assert (
            verify_certificate(triangle, identity_cert((1, 0, -1), True)).status
            == Status.INCONCLUSIVE
        )

    def test_dimension_mismatch(self, corpus):
        with pytest.raises(CertificateError):
            verify_certificate(corpus["f2"], identity_cert((1, 1, 0, -2), False))

    def test_singular_matrix_rejected(self):
        # The matrix refuses itself when it is built, so a certificate with a
        # singular sigma can only come from JSON, which refuses it too.
        data = {"sigma": [[1, 1, 0], [1, 1, 0], [0, 0, 1]], "r": [1, 0, -1], "strict": False}
        with pytest.raises(CertificateError, match="^bad certificate JSON: coordinate change must be invertible$"):
            Certificate.from_json(data)


class TestJson:
    def test_round_trip(self):
        cert = Certificate(
            RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            WeightVector((3, 1, -4)),
            True,
        )
        data = cert.to_json()
        assert data["r"] == [3, 1, -4]
        assert data["strict"] is True
        assert Certificate.from_json(data) == cert

    def test_rational_entries(self):
        cert = Certificate(
            RationalMatrix.from_rows([["1/2", "0"], ["0", "2"]]),
            WeightVector((1, -1)),
            False,
        )
        again = Certificate.from_json(cert.to_json())
        assert again.sigma.rows[0][0] == Fraction(1, 2)

    def test_bad_json_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_json({"sigma": [["1"]], "r": [0], "strict": False})

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from hypstab import (
    Certificate,
    SingularityProfile,
    Status,
    combined_verdict,
    compare_bounds,
    enumerate_weight_oracle,
    evaluate_degree_bound,
    evaluate_hessian_corank_bound,
    evaluate_hessian_rank_bound,
    evaluate_multiplicity_bound,
    family_certificate,
    family_poly,
    membership,
    torus_destabilize,
    verify_certificate,
)
from hypstab.cli import EXIT_OK, main
from hypstab.linalg import rational_rank

from conftest import (
    CORPUS_TEXTS,
    random_support_poly,
)


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_family_certificates_reproduce():
    """Built-in family certificates verify exactly and quickly."""
    runs = 0
    for family, ns in (("fn", range(2, 7)), ("gn", range(3, 7))):
        for n in ns:
            start = time.perf_counter()
            f, cert = family_certificate(family, n)
            expected_r = (
                (3 * (n - 1),) + (1,) * (n - 1) + (-4 * (n - 1),)
                if family == "fn"
                else (3 * n + 2,) + (1,) * (n - 2) + (-n, -3 * n)
            )
            assert cert.r.r == expected_r, (family, n)
            verdict = verify_certificate(f, cert)
            elapsed = time.perf_counter() - start
            assert verdict.status == Status.NOT_SEMISTABLE, (family, n)
            assert elapsed < 1.0, (family, n, elapsed)
            runs += 1
    report(1, runs == 9, f"{runs} family certificates verified NotSemiStable, each < 1 s")


def test_criterion_2_degree_five_grid():
    """Isolated double points: Stable from degree 5 on, open below."""
    checked = 0
    for d in range(5, 10):
        for n in range(2, 7):
            profile = SingularityProfile(n, d, 0, 2)
            verdict = evaluate_multiplicity_bound(profile)
            assert verdict.status == Status.STABLE, (n, d)
            margin = verdict.reasons[0].margin
            assert margin == Fraction(d * (d - 2), 2 * d - 3) - 2, (n, d)
            assert combined_verdict(profile).status == Status.STABLE, (n, d)
            checked += 1
    for d in (3, 4):
        for n in range(2, 7):
            profile = SingularityProfile(n, d, 0, 2)  # no Hessian data
            assert combined_verdict(profile).status == Status.INCONCLUSIVE, (n, d)
            checked += 1
    report(2, checked == 35, f"{checked} grid points match the degree-5 boundary")


@pytest.mark.parametrize("family,degree", [("fn", 3), ("gn", 4)])
def test_criterion_3_sharpness_witnesses(tmp_path, capsys, family, degree):
    """The tool itself proves the low-degree families non-semistable."""
    proven = []
    for n in range(2, 7):
        f = family_poly(family, n)
        path = tmp_path / f"{family}_{n}.poly"
        path.write_text(str(f) + "\n")
        out_json = tmp_path / f"{family}_{n}.json"
        code = main(
            ["analyze", str(path), "--budget", "10", "--seed", "1", "--no-timestamp",
             "--json", str(out_json)]
        )
        capsys.readouterr()
        assert code == EXIT_OK, (family, n)
        data = json.loads(out_json.read_text())
        assert data["status"] == "NotSemiStable", (family, n)
        cert = data["search"]["strict_certificate"]
        assert cert is not None, (family, n)
        frames = data["search"]["frames"]
        assert frames[-1]["strategy"] == "singular-point-to-Q", (family, n)
        # Independent re-verification of the reported certificate.
        verdict = verify_certificate(f, Certificate.from_json(cert))
        assert verdict.status == Status.NOT_SEMISTABLE, (family, n)
        assert data["input"]["d"] == degree
        proven.append(n)
    report(
        3,
        proven == list(range(2, 7)),
        f"analyze proved NotSemiStable for {family} at n in {proven} "
        "(point-to-last-coordinate strategy, budget <= 10)",
    )


def test_criterion_4_bound_form_equivalence():
    """The multiplicity form and the degree form never disagree."""
    disagreements = 0
    points = 0
    for d in range(3, 31):
        for delta in range(1, 11):
            for s in range(0, 9):
                for n in range(max(s + 1, 2), 13):
                    p = SingularityProfile(n, d, s, delta)
                    points += 1
                    if evaluate_multiplicity_bound(p).status != evaluate_degree_bound(p).status:
                        disagreements += 1
    report(4, disagreements == 0, f"{points} grid points, {disagreements} disagreements")


def test_criterion_5_bound_dominance():
    """The degree threshold strictly beats delta*(s+3) for delta >= 2."""
    checked = 0
    for delta in range(2, 11):
        for s in range(0, 9):
            cb = compare_bounds(delta, s)
            assert cb.strictly_better, (delta, s)
            assert cb.new_threshold.compare_to(cb.mordant_threshold) < 0, (delta, s)
            checked += 1
    report(5, checked == 81, f"strictly better on all {checked} (delta, s) pairs")


def test_criterion_6_hessian_rank_table():
    """Rank/corank criterion on the published boundary cases."""
    cases = [
        (2, 3, {"rank": 2}, Status.SEMISTABLE),
        (3, 3, {"rank": 3}, Status.STABLE),
        (3, 4, {"rank": 2}, Status.SEMISTABLE),
        (4, 4, {"rank": 3}, Status.STABLE),
        (8, 3, {"corank": 2}, Status.SEMISTABLE),
        (9, 3, {"corank": 2}, Status.STABLE),
        (5, 4, {"corank": 2}, Status.SEMISTABLE),
        (6, 4, {"corank": 2}, Status.STABLE),
    ]
    for n, d, spec_data, expected in cases:
        rank = spec_data.get("rank", n - spec_data.get("corank", 0))
        p = SingularityProfile(n, d, 0, 2, rank)
        assert evaluate_hessian_rank_bound(p).status == expected, (n, d, spec_data)
        assert evaluate_hessian_corank_bound(p).status == expected, (n, d, spec_data)
    report(6, True, f"all {len(cases)} rank/corank table cases match")


def _verify_decision(f, decision):
    n, d = f.n, f.d
    if decision.feasible:
        assert membership(f, decision.witness, decision.strict)
        return
    cert = decision.certificate
    assert sum(lam for _, lam in cert) == 1
    assert all(lam >= 0 for _, lam in cert)
    centroid = [Fraction(d, n + 1)] * (n + 1)
    for j in range(n + 1):
        assert sum(lam * exp[j] for exp, lam in cert) == centroid[j]
    if not decision.strict:
        assert all(lam > 0 for _, lam in cert)
        shifted = [[Fraction(e) - c for e, c in zip(exp, centroid)] for exp, _ in cert]
        assert rational_rank(shifted) == n


def test_criterion_9_lp_oracle_agreement(corpus):
    """LP vs brute-force enumeration at bound 200, witnesses re-verified."""
    rng = random.Random(9)
    cases = 0
    for _ in range(100):
        d = rng.choice([3, 4])
        polys = [random_support_poly(rng, 2, d)]
        for f in polys:
            for strict in (True, False):
                decision = torus_destabilize(f, strict)
                witness = enumerate_weight_oracle(f, 200, strict)
                assert decision.feasible == (witness is not None), (f.terms, strict)
                _verify_decision(f, decision)
                cases += 1
    for name, f in corpus.items():
        if f.n != 2 or f.d > 4:
            continue
        for strict in (True, False):
            decision = torus_destabilize(f, strict)
            witness = enumerate_weight_oracle(f, 200, strict)
            assert decision.feasible == (witness is not None), (name, strict)
            _verify_decision(f, decision)
            cases += 1
    report(9, True, f"{cases} LP/oracle comparisons agree; all artifacts re-verified")


def test_criterion_11_nodal_cubic_end_to_end(tmp_path, capsys):
    """Full analyze run on the nodal cubic: semi-stable boundary case."""
    path = tmp_path / "nodal.poly"
    path.write_text(CORPUS_TEXTS["nodal_cubic"][0] + "\n")
    out_json = tmp_path / "nodal.json"
    code = main(
        ["analyze", str(path), "--budget", "1000", "--seed", "1", "--no-timestamp",
         "--json", str(out_json)]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    data = json.loads(out_json.read_text())
    assert data["status"] == "SemiStable"
    points = data["points"]
    assert len(points) == 1
    assert points[0]["point"] == ["0", "0", "1"]
    assert points[0]["multiplicity"] == 2
    assert points[0]["hessian_rank"] == 2
    rank_reasons = [r for r in data["reasons"] if r["criterion"] == "hessian-rank"]
    assert rank_reasons and "equality" in rank_reasons[0]["note"]
    assert rank_reasons[0]["margin"] == "0"
    assert data["search"]["strict_certificate"] is None
    assert data["search"]["nonstrict_certificate"] is not None
    report(
        11,
        True,
        "nodal cubic: [0:0:1], multiplicity 2, Hessian rank 2, SemiStable via "
        "rank-threshold equality, no strict certificate in 1000 frames",
    )

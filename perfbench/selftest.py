"""Tests of the benchmark's own checker, table and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gauge  # noqa: E402
import known  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hypstab.cli import main as hypstab_main  # noqa: E402

CUSP = "x1^2*x2 - x0^3"


def analyze(text: str, tmp_path) -> dict:
    path = tmp_path / "in.poly"
    path.write_text(text + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = hypstab_main(["analyze", str(path), "--no-timestamp", "--json", "-", "--budget", "5"])
    return {"rc": rc, "out": out.getvalue()}


def op(text: str, key: str) -> workloads.Input:
    return workloads.Input("t", text, workloads._nvars(text) - 1, key)


def edited(outcome: dict, edit) -> dict:
    report = json.loads(outcome["out"])
    edit(report)
    return {"rc": 0, "out": json.dumps(report)}


def test_real_report_passes(tmp_path):
    outcome = analyze(CUSP, tmp_path)
    assert check.check(op(CUSP, "cusp"), outcome) == ([], None)


def test_flipped_weight_sign_is_hard(tmp_path):
    text = workloads.family_text("fn", 3)
    outcome = analyze(text, tmp_path)

    def flip(report):
        report["search"]["strict_certificate"]["r"][1] *= -1

    hard, _ = check.check(op(text, "fn"), edited(outcome, flip))
    assert any("fails re-expansion" in h for h in hard)

    def swap(report):  # zero sum kept, so only the monomial weights catch it
        r = report["search"]["strict_certificate"]["r"]
        r[0], r[-1] = r[-1], r[0]

    hard, _ = check.check(op(text, "fn"), edited(outcome, swap))
    assert any("has weight" in h for h in hard)


def test_wrong_status_is_failed(tmp_path):
    outcome = analyze(CUSP, tmp_path)
    hard, failed = check.check(op(CUSP, "cusp"), edited(outcome, lambda r: r.update(status="Stable")))
    assert failed and "contradicts" in failed
    assert hard == []


def test_certificate_backed_contradiction_is_hard(tmp_path):
    text = workloads.SMOOTH["klein-quartic"]
    outcome = analyze(text, tmp_path)
    hard, failed = check.check(op(text, "smooth"), edited(outcome, lambda r: r.update(status="NotStable")))
    assert failed
    assert any("without a verified certificate" in h for h in hard)
    assert any("certificate-backed" in h for h in hard)


def test_fabricated_scan_point_is_hard(tmp_path):
    outcome = analyze(CUSP, tmp_path)
    hard, _ = check.check(
        op(CUSP, "cusp"), edited(outcome, lambda r: r["scan"]["points"].append(["1", "1", "1"]))
    )
    assert any("nonzero gradient" in h for h in hard)


def crosscheck_input(text: str, strict: bool) -> workloads.Input:
    return workloads.Input("t", text, 2, None, strict=strict, oracle_bound=5)


def test_oracle_disagreement_is_hard():
    text = "x0^3 + x1^3 + x2^3"  # every corner present: infeasible in both modes
    lam = "1/3"
    lp = {"feasible": False, "strict": True, "witness": None,
          "infeasibility_certificate": [{"monomial": m, "lambda": lam}
                                        for m in ([3, 0, 0], [0, 3, 0], [0, 0, 3])]}
    good = {"rc": 0, "out": json.dumps({"lp": lp, "oracle": None})}
    assert check.check(crosscheck_input(text, True), good) == ([], None)
    fake = {"rc": 0, "out": json.dumps({"lp": lp, "oracle": [1, 0, -1]})}
    hard, _ = check.check(crosscheck_input(text, True), fake)
    assert any("LP says infeasible" in h for h in hard)


def test_lp_witness_in_box_without_oracle_is_hard():
    text = "x0^2*x2 + x1^3"
    lp = {"feasible": True, "strict": True, "witness": [3, 1, -4], "infeasibility_certificate": None}
    inp = crosscheck_input(text, True)
    hard, _ = check.check(inp, {"rc": 0, "out": json.dumps({"lp": lp, "oracle": None})})
    assert any("oracle found none" in h for h in hard)
    outside = workloads.Input("t", text, 2, None, strict=True, oracle_bound=3)
    assert check.check(outside, {"rc": 0, "out": json.dumps({"lp": lp, "oracle": None})}) == ([], None)


@pytest.mark.parametrize("name", sorted(workloads.SMOOTH))
def test_smooth_inputs_have_zero_dimensional_gradient_ideal(name):
    text = workloads.SMOOTH[name]
    nvars = workloads._nvars(text)
    xs = check.symbols(nvars)
    f = check.to_sympy(text, nvars)
    assert sympy.groebner([sympy.diff(f, x) for x in xs], *xs, order="grevlex").is_zero_dimensional
    assert known.KNOWN["smooth"].truth == known.STABLE


def test_irrational_node_cubic_has_no_rational_singular_point():
    text = workloads.DISGUISE_BASES["irrational-node-cubic"]
    x0, x1, x2 = xs = check.symbols(3)
    f = check.to_sympy(text, 3)
    grad = [sympy.diff(f, x) for x in xs]
    points = []
    for chart in ([x2 - 1], [x2, x1 - 1], [x2, x1, x0 - 1]):
        points += sympy.solve(grad + chart, xs, dict=True)
    assert len(points) == 2
    assert all(not all(v.is_rational for v in p.values()) for p in points)
    assert {p[x1] for p in points} == {sympy.sqrt(6) / 2, -sympy.sqrt(6) / 2}


def test_singular_line_gradient_vanishes_on_the_line():
    text = workloads.DISGUISE_BASES["singular-line"]
    xs = check.symbols(4)
    f = check.to_sympy(text, 4)
    line = {xs[0]: 0, xs[1]: 0}
    assert all(sympy.diff(f, x).xreplace(line) == 0 for x in xs)


def test_disguise_matches_sympy_expansion():
    text = workloads.DISGUISE_BASES["gn3"]
    sigma = [[1, -1, 0, 1], [0, 0, 1, 0], [0, 1, 0, -1], [1, 0, 0, 0]]
    hidden = workloads.format_text(workloads.substitute(workloads.parse_text(text, 4), sigma))
    xs = check.symbols(4)
    images = {xs[j]: sum(sigma[k][j] * xs[k] for k in range(4)) for j in range(4)}
    expected = sympy.expand(check.to_sympy(text, 4).xreplace(images))
    assert sympy.expand(check.to_sympy(hidden, 4) - expected) == 0


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [("op", 0.0, 10.0, None, 0), ("search", 1.0, 9.0, 0, 0), ("torus", 2.0, 5.0, 1, 0)]
    assert tracer.self_times() == {"op": 2.0, "search": 5.0, "torus": 3.0}


def test_missing_wrap_point_reports_null(monkeypatch):
    monkeypatch.setattr(spans, "WRAP_POINTS", spans.WRAP_POINTS + (("scan", "hypstab.report", "gone"),))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics(1.0)
    assert metrics["scan.self_s"] is None and metrics["scan.share"] is None
    assert metrics["search.self_s"] == 0.0


def test_gauge_scales_by_readings_taken_near_the_operation():
    host = gauge.Gauge()
    host.readings = [(0.0, 2 * gauge.REF_S), (10.0, gauge.REF_S / 2)]
    assert host.scale(0.2, 0.3) == pytest.approx(0.5)
    assert host.scale(9.8, 9.9) == pytest.approx(2.0)
    assert host.scale(0.0, 10.0) == pytest.approx(gauge.REF_S / (1.25 * gauge.REF_S))

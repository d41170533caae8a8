"""Saved ``analyze --no-timestamp --json`` reports, compared byte for byte.

The inputs are the four smooth hypersurfaces of the benchmark, seven
disguised singular ones (a base form under an integer change U*P, the
cusp's a permutation) and the families fn2, fn6 and gn6 with finite-field
counts.  The reports pin the whole pipeline at the CLI defaults (fn2 at the
benchmark's seed 1): scan, field counts, smoothness and Hessian-rank proofs,
criteria, frame search, torus LP and certificate.  The smooth reports carry
no frames, since the proof skips the search; ``test_modp`` pins the frames
the search still visits on them.  On the two proven SemiStable cubics each
frame's ``strict_feasible`` is null: the strict decisions are skipped.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from hypstab.cli import EXIT_OK, indented_json, main

GOLDEN = Path(__file__).parent / "data" / "golden"

INPUTS = {
    "fermat-quintic-surface": "x0^5 + x1^5 + x2^5 + x3^5",
    "cyclic-cubic-surface": "x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^2*x0",
    "fermat-cubic-threefold": "x0^3 + x1^3 + x2^3 + x3^3 + x4^3",
    "klein-quartic": "x0^3*x1 + x1^3*x2 + x2^3*x0",
    # fn (n = 3) disguised: its strict certificate comes from the Farkas
    # vector of an infeasible strict torus LP, in the second frame.
    "fn3-disguised-strict": (
        "x0^3 + x1^3 - 2*x1^2*x2 + 3*x1^2*x3 + 3*x1*x2^2 - 6*x1*x2*x3 + 3*x1*x3^2"
        " - x2^3 + 3*x2^2*x3 - 3*x2*x3^2 + x3^3"
    ),
    # gn (n = 2) disguised: strict certificate from the Farkas path at the
    # kernel frame of its first singular point, after the point frames.
    "gn2-disguised-strict": (
        "-x0^3*x1 + 2*x0^3*x2 + x0^2*x1^2 - 4*x0^2*x1*x2 + x0^2*x2^2"
        " + 2*x0*x1^2*x2 - 2*x0*x1*x2^2 + x1^2*x2^2"
    ),
    # fn (n = 3) under another change.  The point frame gives no strict
    # certificate, and the random frames alone give only a non-strict one
    # in 50 frames (hence the name); the kernel frame, frame 2, gives the
    # strict one.
    "fn3-disguised-nonstrict": (
        "2*x0^3 + 3*x0^2*x1 + 2*x0*x1^2 + 2*x0*x1*x2 - x0*x2^2 + x1^3 + x1^2*x2"
        " + x1^2*x3 - 2*x1*x2^2 - 2*x1*x2*x3 + x2^3 + x2^2*x3"
    ),
    # fn (n = 2), the cusp and fn2 as the benchmark generates them: each
    # strict certificate comes from the torus LP at the identity frame or
    # the first point frame.
    "fn2-fields": "x0^2*x2 + x1^3",
    "cusp-disguised": "x0^2*x2 - x1^3",
    "fn2-disguised": "x0^2*x1 - x1^3 + 3*x1^2*x2 - 3*x1*x2^2 + x2^3",
    # The benchmark's first disguised nodal cubic and second disguised
    # irrational-node cubic: SemiStable is proven by the Hessian-rank bound,
    # so the search skips its strict decisions and stops at the non-strict
    # certificate (frame 0 and frame 1, a linear-component frame).
    "nodal-cubic-disguised": "-x0^3 + 2*x0*x1*x2 + x1^2*x2",
    "irrational-node-cubic-disguised": (
        "-2*x0^3 + x0^2*x1 + x0^2*x2 + 3*x0*x1^2 + 3*x0*x2^2 + x1^3 + x2^3"
    ),
    # The benchmark's largest family inputs: the scan covers 7^7 box points.
    "fn6-fields": "x0^2*x6 + x1^3 + x2^3 + x3^3 + x4^3 + x5^3",
    "gn6-fields": "x0^2*x6^2 + x0*x5^3 + x1^4 + x2^4 + x3^4 + x4^4",
}

# Extra ``analyze`` arguments per input.
ARGS = {
    "fn2-fields": ["--seed", "1", "--fields", "2,3,5,7"],
    "fn6-fields": ["--fields", "2,3,5,7"],
    "gn6-fields": ["--fields", "2,3,5,7"],
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_report_matches_golden(capsys, tmp_path, name):
    path = tmp_path / f"{name}.poly"
    path.write_text(INPUTS[name] + "\n")
    code = main(["analyze", str(path), "--no-timestamp", "--json", "-", *ARGS.get(name, [])])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_json_file_matches_golden(capsys, tmp_path, name):
    # ``--json FILE`` writes the bytes that ``--json -`` prints.
    path = tmp_path / f"{name}.poly"
    path.write_text(INPUTS[name] + "\n")
    target = tmp_path / f"{name}.json"
    argv = ["analyze", str(path), "--no-timestamp", "--json", str(target), *ARGS.get(name, [])]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert target.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_encoder_reproduces_golden(path):
    text = path.read_text()
    payload = json.loads(text)
    assert indented_json(payload) + "\n" == json.dumps(payload, indent=2, sort_keys=True) + "\n" == text

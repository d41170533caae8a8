"""CLI surface: flows, exit codes, JSON determinism."""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypstab import (
    Certificate,
    RationalMatrix,
    Status,
    analyze_point,
    parse_poly,
    scan_singular_points,
    verify_certificate,
)
from hypstab import cli, frames, search
from hypstab.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, indented_json, main
from hypstab.criteria import ProfileError, SingularityProfile
from hypstab.linalg import MatrixError
from hypstab.local_analysis import PointError
from hypstab.polynomials import HomogeneousPoly, PolyError, format_poly
from hypstab.report import _merge_with_certificates, settle_profile
from hypstab.search import SearchOutcome
from hypstab.torus import TorusDecision
from hypstab.verdicts import Reason, StabilityVerdict
from hypstab.weights import WeightVector

from conftest import degree_monomials


@pytest.fixture
def poly_file(tmp_path):
    def write(text, name="input.poly"):
        path = tmp_path / name
        path.write_text(text + "\n")
        return str(path)

    return write


IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

# fn (n = 3) under an integer change of coordinates: its point frame gives no
# strict certificate, so the search goes on to its kernel frame.
FN3_DISGUISED = (
    "2*x0^3 + 3*x0^2*x1 + 2*x0*x1^2 + 2*x0*x1*x2 - x0*x2^2 + x1^3 + x1^2*x2"
    " + x1^2*x3 - 2*x1*x2^2 - 2*x1*x2*x3 + x2^3 + x2^2*x3"
)


# The cusp x1^2*x2 - x0^3 under an integer change that puts it at [-2:1:4].
HIGH_CUSP = "-8*x0^3 + x0^2*x1 - 12*x0^2*x2 + 4*x0*x1^2 - 6*x0*x2^2 + 4*x1^3 - x2^3"

# Two tacnodes, at [0:0:1] and [0:1:0]: no strict certificate in 50 frames,
# and a search that goes past its point frames.
TACNODES = "x1^2*x2^2 - x0^4"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_f2_not_semistable(self, capsys, poly_file):
        path = poly_file("# degree-3 example\nx0^2*x2 + x1^3")
        code, out, _ = run(capsys, ["analyze", path, "--budget", "10", "--seed", "1"])
        assert code == EXIT_OK
        assert "NotSemiStable" in out

    def test_smooth_quintic_surface(self, capsys, poly_file):
        path = poly_file("x0^5 + x1^5 + x2^5 + x3^5")
        code, out, _ = run(capsys, ["analyze", path, "--budget", "5"])
        assert code == EXIT_OK
        assert "status: Stable" in out

    def test_json_deterministic_without_timestamp(self, capsys, poly_file, tmp_path):
        path = poly_file("x1^2*x2 - x0^2*x2 - x0^3")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for target in (out1, out2):
            code, _, _ = run(
                capsys,
                ["analyze", path, "--budget", "20", "--seed", "5", "--no-timestamp",
                 "--json", str(target)],
            )
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_present_by_default(self, capsys, poly_file):
        path = poly_file("x0^3 + x1^3 + x2^3")
        code, out, _ = run(capsys, ["analyze", path, "--budget", "3", "--json", "-"])
        assert code == EXIT_OK
        assert "timestamp" in out

    def test_parse_error_exit_code(self, capsys, poly_file):
        path = poly_file("x0^2 + x1^3")
        code, _, err = run(capsys, ["analyze", path])
        assert code == EXIT_INPUT
        assert "inhomogeneous" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["analyze", "/nonexistent/file.poly"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("size", ["0", "4"])
    def test_non_prime_field_is_input_error(self, capsys, poly_file, size):
        path = poly_file("x0^2*x2 + x1^3")
        code, _, err = run(capsys, ["analyze", path, "--fields", size, "--budget", "2"])
        assert code == EXIT_INPUT
        assert f"field size {size} is not a prime" in err
        assert "Traceback" not in err

    def test_scan_fault_exits_internal(self, capsys, poly_file, monkeypatch):
        # The walk's evaluator raising ValueError is a fault of the program;
        # a bad height or field size is still caught before the walk.
        def broken(*args):
            raise ValueError("broken evaluator")

        monkeypatch.setattr("hypstab.local_analysis._canonical_zeros", broken)
        path = poly_file("x0^2*x2 + x1^3")
        code, _, err = run(capsys, ["analyze", path, "--budget", "2"])
        assert code == EXIT_INTERNAL
        assert "internal consistency failure" in err and "broken evaluator" in err
        assert "Traceback" not in err
        for bad in (["--height", "0"], ["--fields", "4"]):
            code, _, err = run(capsys, ["analyze", path, "--budget", "2"] + bad)
            assert code == EXIT_INPUT, bad
            assert "broken evaluator" not in err

    @pytest.mark.parametrize("content", ['5', '[null]', '{"a": 1}', '[["1/0", 0, 1]]'])
    def test_malformed_points_file_is_input_error(self, capsys, poly_file, tmp_path, content):
        path = poly_file("x0^2*x2 + x1^3")
        points = tmp_path / "points.json"
        points.write_text(content)
        code, _, err = run(capsys, ["analyze", path, "--points", str(points), "--budget", "2"])
        assert code == EXIT_INPUT
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad point"), err

    def test_points_file(self, capsys, poly_file, tmp_path):
        path = poly_file("x0^2*x2 + x1^3")
        points = tmp_path / "points.json"
        points.write_text('[["0", "0", "1/2"], [1, 0, 0]]')
        code, out, _ = run(
            capsys, ["analyze", path, "--points", str(points), "--budget", "2", "--json", "-"]
        )
        assert code == EXIT_OK
        points = [p["point"] for p in json.loads(out)["points"]]
        assert points == [["0", "0", "1"], ["1", "0", "0"]]

    def test_user_asserted_s(self, capsys, poly_file):
        path = poly_file("x1^2*x2 - x0^2*x2 - x0^3")
        code, out, _ = run(
            capsys, ["analyze", path, "--s", "0", "--budget", "5", "--json", "-"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["profile"]["provenance"]["s"] == "user-asserted"

    def test_asserted_s_caps_the_hessian_rank(self, capsys, poly_file):
        # The nodal quartic surface has one rational node, of Hessian rank 3.
        # Along an asserted curve of double points the rank is at most
        # n - s = 2, so every tangent cone is a cone and the tangent-cone
        # criterion does not apply.
        path = poly_file(
            "x0^2*x3^2 + x1^2*x3^2 + x2^2*x3^2 + x0^4 + x1^4 + x2^4 - x0*x1*x2*x3"
        )
        argv = ["analyze", path, "--s", "1", "--budget", "5", "--no-timestamp", "--json", "-"]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        report = json.loads(out)
        assert [p["hessian_rank"] for p in report["points"]] == [3]
        profile = report["profile"]
        assert (profile["s"], profile["delta"], profile["min_hessian_rank"]) == (1, 2, 2)
        assert profile["provenance"]["min_hessian_rank"].startswith("at most n - s = 2")
        assert report["cone_free"] is False
        assert "mordant-tangent-cone" not in [r["criterion"] for r in report["reasons"]]
        assert report["status"] != "SemiStable"

    @pytest.mark.parametrize(
        "text, s, message",
        [
            ("x0^3 + x1^3 + x2^3", "0", "--s 0 asserted but no singular points"),
            ("x1^2*x2 - x0^2*x2 - x0^3", "-1", "--s -1 (smooth) asserted but singular points"),
        ],
    )
    def test_contradicting_s_is_a_profile_error(self, capsys, poly_file, text, s, message):
        f = parse_poly(text, 2)
        scan = scan_singular_points(f, 3)
        singular = [analyze_point(f, p) for p in scan.points]
        with pytest.raises(ProfileError, match=re.escape(message)):
            settle_profile(singular, 2, 3, int(s))
        code, _, err = run(capsys, ["analyze", poly_file(text), "--s", s, "--budget", "2"])
        assert code == EXIT_INPUT
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), err

    def test_conflict_names_the_profile_provenance(self, capsys, poly_file):
        # The cusp x1^2*x2 - x0^3 moved to [-2:1:4], above the scan's height
        # 3: the scan finds no singular point, the smoothness and Hessian-rank
        # proofs both fail, the heuristic profile reads smooth, and a random
        # frame with entries up to 5 (frame 15) gives a strict certificate.
        path = poly_file(HIGH_CUSP)
        code, out, _ = run(capsys, ["analyze", path, "--budget", "50", "--bound", "5"])
        assert code == EXIT_OK
        assert "rational singular points (height <= 3): none found" in out
        conflicts = [line for line in out.splitlines() if line.startswith("CONFLICT: ")]
        assert len(conflicts) == 1
        assert "(delta: heuristic; s: heuristic)" in conflicts[0]
        assert "supplied" not in conflicts[0]
        assert "search skipped" not in out
        assert "status: NotSemiStable (certificate)" in out

    def test_irrational_node_is_proven_semistable(self, capsys, poly_file):
        # The node of this cubic is at two conjugate irrational points, which
        # the scan cannot see; the Hessian-rank proof bounds every singular
        # point, so SemiStable is proven, and the linear-component frame
        # (frame 1) gives the non-strict certificate that ends the search.
        path = poly_file("x0^3 - 2*x0*x1^2 - 2*x1^2*x2 + x2^3")
        code, out, _ = run(capsys, ["analyze", path, "--budget", "50", "--json", "-"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["status"], report["basis"], report["conflicts"]) == (
            "SemiStable", "exact-bound", []
        )
        profile = report["profile"]
        assert (profile["s"], profile["delta"], profile["min_hessian_rank"]) == (0, 2, 2)
        assert profile["provenance"]["min_hessian_rank"].startswith("exact lower bound 2 (")
        search = report["search"]
        assert search["strict_certificate"] is None
        assert search["nonstrict_certificate"] is not None
        assert search["frames_tried"] == 2
        assert [fr["strict_feasible"] for fr in search["frames"]] == [None, None]
        assert "no strict certificate exists" in search["skipped"]

    def test_lp_witness_failure_exits_internal(self, capsys, poly_file, monkeypatch):
        # The strict witness comes from the torus LP, which re-checks it;
        # a failed re-check is an internal fault.
        monkeypatch.setattr("hypstab.torus.membership", lambda *args, **kwargs: False)
        path = poly_file("x1*x2^2 + x2^3")
        code, _, err = run(capsys, ["analyze", path, "--budget", "1"])
        assert code == EXIT_INTERNAL
        assert "internal consistency failure" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "target, error",
        [
            pytest.param("hypstab.report.analyze_point", PointError, id="point-error"),
            pytest.param("hypstab.torus.solve_lp", MatrixError, id="matrix-error"),
        ],
    )
    def test_input_error_type_inside_analysis_exits_internal(
        self, capsys, poly_file, monkeypatch, target, error
    ):
        # The input passed the boundary's checks, so an input error type
        # raised inside the local analysis or the torus LP is a fault.
        def fail(*args, **kwargs):
            raise error("planted fault")

        monkeypatch.setattr(target, fail)
        path = poly_file("x0^2*x2 + x1^3")
        code, _, err = run(capsys, ["analyze", path, "--budget", "2"])
        assert code == EXIT_INTERNAL
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal consistency failure:"), err
        assert "planted fault" in err

    @pytest.mark.parametrize(
        "text, extra, message",
        [
            ("x0^3 + x1^3", [], "n must be >= 2, got 1"),
            ("x0^2 + x1^2 + x2^2", [], "d must be >= 3, got 2"),
            ("x0^2*x2 + x1^3", ["--s", "2"], "s = 2 out of range -1..1"),
            ("x0^2*x2 + x1^3", ["--s", "-2"], "s = -2 out of range -1..1"),
            ("x0^2*x2 + x1^3", ["--height", "0"], "height bound must be >= 1"),
            ("x0^2*x2 + x1^3", ["--budget", "0"], "budget must be >= 1"),
            ("x0^2*x2 + x1^3", ["--bound", "0"], "matrix entry bound must be >= 1"),
            ("x0^2*x2 + x1^3", ["--fields", "2,9"], "field size 9 is not a prime"),
            ("x0^2*x2 + x1^3", ["--points", "P"], "2 coordinates, expected 3"),
            # A strong pseudoprime to every base the primality test uses.
            ("x0^2*x2 + x1^3", ["--fields", "318665857834031151167461"],
             "field size 318665857834031151167461 is out of range: it must be below 2^64"),
        ],
    )
    def test_input_checked_before_the_analysis(
        self, capsys, poly_file, tmp_path, monkeypatch, text, extra, message
    ):
        def never(*args):
            raise AssertionError("the analysis ran")

        monkeypatch.setattr(cli, "analyze", never)
        points = tmp_path / "points.json"
        points.write_text("[[1, 0]]")
        argv = ["analyze", poly_file(text)] + [str(points) if a == "P" else a for a in extra]
        code, _, err = run(capsys, argv)
        assert code == EXIT_INPUT
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], err

    def test_tacnodes_are_not_stable_by_a_nonstrict_certificate(self, capsys, poly_file):
        # Tacnodes at [0:0:1] and [0:1:0], where every criterion is
        # Inconclusive: 50 frames give no strict certificate and a
        # non-strict one, so the status rests on that certificate.
        path = poly_file(TACNODES)
        code, out, _ = run(capsys, ["analyze", path, "--no-timestamp", "--json", "-"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["status"], report["basis"], report["conflicts"]) == (
            "NotStable", "certificate", []
        )
        assert report["criteria"]["status"] == "Inconclusive"
        search = report["search"]
        assert (search["frames_tried"], search["strict_certificate"]) == (50, None)
        cert = Certificate.from_json(search["nonstrict_certificate"])
        assert (cert.r, cert.strict) == (WeightVector((0, -1, 1)), False)
        f = parse_poly(TACNODES, 2)
        assert verify_certificate(f, cert).status == Status.NOT_STABLE
        assert report["reasons"][-1]["criterion"] == "hm-certificate"
        code, out, _ = run(capsys, ["analyze", path, "--no-timestamp"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[-2:] == [
            "non-strict certificate found: r = (0, -1, 1); "
            "no strict certificate within budget (50 frames)",
            "status: NotStable (certificate)",
        ]

    def test_nonstrict_certificate_against_a_stable_criterion_is_a_conflict(self):
        # No input is known to reach this: a Stable criterion on data that
        # a verified non-strict certificate contradicts.  The certificate
        # wins, and the conflict names the profile's provenance.
        profile = SingularityProfile(2, 4, 0, 2, 1, provenance={"delta": "heuristic", "s": "asserted"})
        stable = StabilityVerdict(Status.STABLE, [Reason(criterion="constructed")])
        cert = Certificate(RationalMatrix.identity(3), WeightVector((0, -1, 1)), strict=False)
        status, reasons, conflicts = _merge_with_certificates(
            stable, SearchOutcome(nonstrict=cert), profile
        )
        assert status == Status.NOT_STABLE
        assert [r.criterion for r in reasons] == ["constructed", "hm-certificate"]
        assert reasons[-1].inputs == {"strict": False}
        assert conflicts == [
            "a verified non-strict certificate contradicts a Stable criterion; "
            "the profile data (delta: heuristic; s: asserted) is wrong (certificate wins)"
        ]

    def test_transform_to_zero_exits_internal(self, capsys, poly_file, monkeypatch):
        # An invertible change cannot map a nonzero form to zero, so no input
        # reaches this; force it by expanding every product to nothing.
        monkeypatch.setattr("hypstab.linalg._packed_product", lambda a, b: {})
        path = poly_file("x0^2*x2 + x1^3")
        code, _, err = run(capsys, ["analyze", path, "--budget", "1"])
        assert code == EXIT_INTERNAL
        assert "produced zero polynomial" in err
        assert "Traceback" not in err


class TestExample:
    def test_fn(self, capsys):
        code, out, _ = run(capsys, ["example", "fn", "--n", "2"])
        assert code == EXIT_OK
        assert "NotSemiStable" in out
        assert "x0^2*x2 + x1^3" in out

    def test_gn_edge_case(self, capsys):
        code, out, _ = run(capsys, ["example", "gn", "--n", "2"])
        assert code == EXIT_OK
        assert "edge case" in out

    def test_gn_json(self, capsys):
        code, out, _ = run(capsys, ["example", "gn", "--n", "3", "--json", "-"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["certificate"]["r"] == [11, 1, -3, -9]
        assert data["verdict"]["status"] == "NotSemiStable"

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, ["example", "fn", "--n", "1"])
        assert code == EXIT_INPUT


class TestSearchCmd:
    def test_strict_certificate(self, capsys, poly_file):
        path = poly_file("x0^2*x2 + x1^3")
        code, out, _ = run(capsys, ["search", path, "--budget", "10", "--seed", "1"])
        assert code == EXIT_OK
        assert "strict certificate found" in out

    def test_no_certificate_is_not_a_claim(self, capsys, poly_file):
        path = poly_file("x0^3 + x1^3 + x2^3")
        code, out, _ = run(capsys, ["search", path, "--budget", "10", "--seed", "1"])
        assert code == EXIT_OK
        assert "not a stability claim" in out

    def test_constant_form_passes_no_point(self, capsys, poly_file, monkeypatch):
        # A nonzero constant vanishes nowhere, although its gradient vanishes
        # on the whole scan box: the scan finds no point, so the search gets
        # none.
        passed = []

        def spy(f, cfg, points=(), nonstrict_only=False):
            passed.append(points)
            return search.search_destabilization(f, cfg, points, nonstrict_only)

        monkeypatch.setattr(cli, "search_destabilization", spy)
        path = poly_file("x0^0 + x1^0 + x2^0")
        code, _, err = run(capsys, ["search", path, "--budget", "2"])
        assert (code, err, passed) == (EXIT_OK, "", [()])

    def test_singular_search_frame_exits_internal(self, capsys, poly_file, monkeypatch):
        # The frame stream builds invertible matrices only; a singular frame
        # is a fault of the search, not of the input.
        def frames(cfg, f, points):
            size = f.n + 1
            yield "singular-point-to-Q", RationalMatrix.identity(size)
            while True:
                yield "permutations", RationalMatrix.from_rows([[1] * size] * size)

        monkeypatch.setattr(search, "_frames", frames)
        path = poly_file("x0^3 + x1^3 + x2^3")
        code, _, err = run(capsys, ["search", path, "--budget", "3"])
        assert code == EXIT_INTERNAL
        assert "internal consistency failure" in err and "invertible" in err
        assert "Traceback" not in err

    def test_singular_structured_frame_exits_internal(self, capsys, poly_file, monkeypatch):
        # The line times a conic has no rational singular point, so frame 1
        # is its linear-component frame; here it comes out singular.
        singular = RationalMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        monkeypatch.setattr(frames, "linear_components", lambda f: iter([singular]))
        path = poly_file("x0^3 - 2*x0*x1^2 - 2*x1^2*x2 + x2^3")
        code, _, err = run(capsys, ["search", path, "--budget", "2"])
        assert code == EXIT_INTERNAL
        assert "internal consistency failure" in err and "invertible" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "target, error",
        [
            pytest.param("nullspace_basis", MatrixError, id="matrix-error"),
            pytest.param("quadratic_form_matrix", PolyError, id="poly-error"),
        ],
    )
    def test_structured_frame_fault_exits_internal(
        self, capsys, poly_file, monkeypatch, target, error
    ):
        # A fault while the kernel frame (frame 2) is built is the program's,
        # although the error types are input errors elsewhere.
        def fail(*args):
            raise error("planted fault")

        monkeypatch.setattr(frames, target, fail)
        path = poly_file(FN3_DISGUISED)
        code, _, err = run(capsys, ["search", path, "--budget", "3"])
        assert code == EXIT_INTERNAL
        assert "internal consistency failure" in err and "planted fault" in err
        assert "Traceback" not in err

    def test_batched_support_mismatch_exits_internal(self, capsys, poly_file, monkeypatch):
        # Frame 1's LP expands the exact change, whose support is not x0^3.
        monkeypatch.setattr(search, "transformed_supports", lambda f, sigmas: [((3, 0, 0),)] * len(sigmas))
        path = poly_file("x0^3 + x1^3 + x2^3")
        code, _, err = run(capsys, ["search", path, "--budget", "3"])
        assert code == EXIT_INTERNAL
        assert "internal consistency failure" in err and "differs" in err
        assert "Traceback" not in err


class TestCriteriaCmd:
    def test_stable_case(self, capsys):
        code, out, _ = run(
            capsys, ["criteria", "--n", "3", "--d", "4", "--s", "0", "--delta", "2", "--rank", "3"]
        )
        assert code == EXIT_OK
        assert out.startswith("Stable")

    def test_corank_flag(self, capsys):
        code, out, _ = run(
            capsys,
            ["criteria", "--n", "9", "--d", "3", "--s", "0", "--delta", "2", "--corank", "2"],
        )
        assert code == EXIT_OK
        assert out.startswith("Stable")

    def test_inconclusive_case(self, capsys):
        code, out, _ = run(
            capsys, ["criteria", "--n", "2", "--d", "3", "--s", "0", "--delta", "2", "--rank", "1"]
        )
        assert code == EXIT_OK
        assert out.startswith("Inconclusive")

    def test_rank_and_corank_conflict(self, capsys):
        code, _, err = run(
            capsys,
            ["criteria", "--n", "3", "--d", "3", "--s", "0", "--delta", "2",
             "--rank", "1", "--corank", "1"],
        )
        assert code == EXIT_INPUT


class TestOracleCmd:
    def test_agreement_feasible(self, capsys, poly_file):
        path = poly_file("x0^2*x2 + x1^3")
        code, out, _ = run(capsys, ["oracle", path, "--bound", "5", "--strict"])
        assert code == EXIT_OK
        assert "agree" in out

    def test_agreement_infeasible(self, capsys, poly_file):
        path = poly_file("x0^3 + x1^3 + x2^3")
        code, out, _ = run(capsys, ["oracle", path, "--bound", "12"])
        assert code == EXIT_OK
        assert "infeasible" in out and "agree" in out

    def test_large_box_is_walked_in_blocks(self, capsys, poly_file):
        # A box of 10001^2 vectors: the oracle solves r_1 on each value of
        # r_0, in blocks of grid.BLOCK_ROWS rows, so this takes milliseconds.
        path = poly_file("x0^3 + x1^3 + x2^3")
        code, out, _ = run(capsys, ["oracle", path, "--bound", "5000"])
        assert code == EXIT_OK
        assert out.strip() == "oracle: infeasible; LP: infeasible; agree"

    def test_disagreement_exits_internal(self, capsys, poly_file, monkeypatch):
        real = cli.torus_destabilize

        def flipped(f, strict):
            decision = real(f, strict)
            return TorusDecision(not decision.feasible, strict)

        monkeypatch.setattr(cli, "torus_destabilize", flipped)
        path = poly_file("x0^2*x2 + x1^3")
        code, out, err = run(capsys, ["oracle", path, "--bound", "5", "--strict"])
        assert code == EXIT_INTERNAL
        assert "DISAGREE" in out
        assert "disagree" in err and "Traceback" not in err

    def test_lp_witness_outside_the_box_agrees(self, capsys, poly_file):
        # The LP's witness (4, 1, -5) is outside the box; the first strict
        # member, (2, 1, -3), needs --bound 3.
        path = poly_file("x0^2*x2 + x1^3")
        code, out, err = run(capsys, ["oracle", path, "--bound", "2", "--strict"])
        assert (code, err) == (EXIT_OK, "")
        assert out.strip() == (
            "oracle: infeasible; LP: feasible, witness (4, 1, -5) outside the box; agree"
        )

    def test_oracle_miss_inside_the_box_exits_internal(self, capsys, poly_file, monkeypatch):
        monkeypatch.setattr(cli, "enumerate_weight_oracle", lambda f, bound, strict: None)
        path = poly_file("x0^2*x2 + x1^3")
        code, out, err = run(capsys, ["oracle", path, "--bound", "5", "--strict"])
        assert code == EXIT_INTERNAL
        assert out.strip() == "oracle: infeasible; LP: feasible; DISAGREE"
        assert "disagree" in err and "Traceback" not in err

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), bound=st.integers(1, 3), strict=st.booleans())
    def test_random_supports_agree(self, capsys, tmp_path, data, bound, strict):
        n, d = data.draw(st.sampled_from([2, 3])), data.draw(st.sampled_from([3, 4]))
        # The file names x_n, so that the CLI infers n from it.
        support = data.draw(st.sets(st.sampled_from(degree_monomials(n, d)), min_size=1, max_size=8)
                            .filter(lambda s: any(e[-1] for e in s)))
        path = tmp_path / "random.poly"
        path.write_text(format_poly(HomogeneousPoly.make(n, d, dict.fromkeys(support, 1))) + "\n")
        argv = ["oracle", str(path), "--bound", str(bound), "--json", "-"] + ["--strict"] * strict
        code, out, err = run(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        if report["oracle_witness"] is not None:
            assert report["lp"]["feasible"]

    def test_non_member_hit_exits_internal(self, capsys, poly_file, monkeypatch):
        monkeypatch.setattr("hypstab.torus.membership", lambda *args, **kwargs: False)
        path = poly_file("x0^2*x2 + x1^3")
        code, _, err = run(capsys, ["oracle", path, "--bound", "5", "--strict"])
        assert code == EXIT_INTERNAL
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal consistency failure:"), err

    def test_zero_bound_is_input_error(self, capsys, poly_file):
        path = poly_file("x0^2*x2 + x1^3")
        code, _, err = run(capsys, ["oracle", path, "--bound", "0"])
        assert code == EXIT_INPUT
        assert "bound must be >= 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["x0^0 + x1^0", "x0^0 + x1^0 + x2^0"])
    def test_constant_forms(self, capsys, poly_file, text):
        # Degree 0: the search finds a non-strict certificate, and the LP
        # agrees with the oracle in both modes.
        path = poly_file(text)
        code, out, err = run(capsys, ["search", path, "--budget", "2"])
        assert (code, err) == (EXIT_OK, "") and "non-strict certificate found" in out
        for strict in (False, True):
            argv = ["oracle", path, "--bound", "3", "--json", "-"] + ["--strict"] * strict
            code, out, err = run(capsys, argv)
            assert (code, err) == (EXIT_OK, "")
            report = json.loads(out)
            assert report["agree"] and report["lp"]["feasible"] == (not strict)


class TestCertifyCmd:
    def test_valid_certificate(self, capsys, poly_file, tmp_path):
        path = poly_file("x0^2*x2 + x1^3")
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps(
                {"sigma": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                 "r": [3, 1, -4], "strict": True}
            )
        )
        code, out, _ = run(capsys, ["certify", path, "--cert", str(cert)])
        assert code == EXIT_OK
        assert "NotSemiStable" in out

    def test_rejected_certificate_reports_monomial(self, capsys, poly_file, tmp_path):
        path = poly_file("x0^3 + x1^3 + x2^3")
        cert = tmp_path / "cert.json"
        cert.write_text(
            json.dumps(
                {"sigma": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                 "r": [1, 0, -1], "strict": False}
            )
        )
        code, out, _ = run(capsys, ["certify", path, "--cert", str(cert)])
        assert code == EXIT_OK
        assert "certificate-rejected" in out

    def test_integer_and_string_entries_accepted(self, capsys, poly_file, tmp_path):
        # JSON integers, and the fraction and decimal strings of to_json.
        path = poly_file("x0^2*x2 + x1^3")
        cert = tmp_path / "cert.json"
        sigma = [[1, "0", 0], ["0", "2/2", "0.0"], [0, 0, "1.0"]]
        cert.write_text(json.dumps({"sigma": sigma, "r": [3, 1, -4], "strict": True}))
        code, out, _ = run(capsys, ["certify", path, "--cert", str(cert)])
        assert code == EXIT_OK
        assert "NotSemiStable" in out

    def test_malformed_certificate(self, capsys, poly_file, tmp_path):
        path = poly_file("x0^3 + x1^3 + x2^3")
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"sigma": [["1"]], "r": [1, 0, -1], "strict": False}))
        code, _, err = run(capsys, ["certify", path, "--cert", str(cert)])
        assert code == EXIT_INPUT

    # Each of these, coerced, is a valid certificate for the cuspidal cubic
    # (r = (3, 1, -4) strict, or r = (1, 0, -1) non-strict), so it must be
    # refused as written rather than certified as another certificate.
    @pytest.mark.parametrize(
        "sigma, r, strict",
        [
            pytest.param(IDENTITY, [3, 1, -4], "false", id="string-strict"),
            pytest.param(IDENTITY, [1.5, -0.5, -1], False, id="float-weights"),
            pytest.param(IDENTITY, [True, False, -1], False, id="boolean-weights"),
            pytest.param(
                [[True, False, 0], [False, True, 0], [0, 0, True]], [3, 1, -4], True,
                id="boolean-sigma",
            ),
            pytest.param(
                [[1.0, 0, 0], [0, 1, 0.0], [0, 0, 1]], [3, 1, -4], True, id="float-sigma"
            ),
        ],
    )
    def test_uncoerced_json_types(self, capsys, poly_file, tmp_path, sigma, r, strict):
        path = poly_file("x0^2*x2 + x1^3")
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"sigma": sigma, "r": r, "strict": strict}))
        code, out, err = run(capsys, ["certify", path, "--cert", str(cert)])
        assert code == EXIT_INPUT, out
        assert "bad certificate JSON" in err and "Traceback" not in err



# Per command: a command line whose input passes the check (P is the cusp's
# file, C a certificate for it), and a function the work calls after it.
WORK = {
    "analyze": (["analyze", "P", "--budget", "2"], "hypstab.report.analyze_point"),
    "example": (["example", "fn", "--n", "2"], "hypstab.certificates.apply_linear_change"),
    "search": (["search", "P", "--budget", "2"], "hypstab.search.torus_destabilize"),
    "criteria": (
        ["criteria", "--n", "3", "--d", "4", "--s", "0", "--delta", "2", "--rank", "3"],
        "hypstab.criteria.evaluate_multiplicity_bound",
    ),
    "oracle": (["oracle", "P", "--bound", "5", "--strict"], "hypstab.torus.solve_lp"),
    "certify": (["certify", "P", "--cert", "C"], "hypstab.certificates.first_violation"),
}


def command_line(name, poly_file, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"sigma": IDENTITY, "r": [3, 1, -4], "strict": True}))
    files = {"P": poly_file("x0^2*x2 + x1^3"), "C": str(cert)}
    return [files.get(a, a) for a in WORK[name][0]]


class TestErrorBoundary:
    """One rule for every command: a ValueError or OSError while the input
    is checked or the output written exits 2; any other exception exits 3
    with one line, never a traceback."""

    @pytest.mark.parametrize("error", [MatrixError, PointError, OSError, TypeError])
    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_fault_in_the_work_exits_internal(
        self, capsys, poly_file, tmp_path, monkeypatch, name, error
    ):
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise error("planted fault")

        monkeypatch.setattr(WORK[name][1], fail)
        code, out, err = run(capsys, command_line(name, poly_file, tmp_path))
        assert calls and (code, out) == (EXIT_INTERNAL, "")
        assert err.splitlines() == [f"internal consistency failure: {error.__name__}: planted fault"]

    @pytest.mark.parametrize(
        "target, error, text, commands",
        [
            pytest.param("hypstab.local_analysis._canonical_zeros", ValueError, TACNODES,
                         ["analyze", "search"], id="scan-walk"),
            pytest.param("hypstab.modp._sparse_has_full_column_rank", ArithmeticError,
                         "x0^3 + x1^3 + x2^3", ["analyze"], id="macaulay-elimination"),
            pytest.param("hypstab.search.transformed_supports", MatrixError, TACNODES,
                         ["analyze", "search"], id="batched-supports"),
            pytest.param("hypstab.frames.structured_frames", ValueError, TACNODES,
                         ["analyze", "search"], id="structured-frames"),
        ],
    )
    def test_fault_keeps_its_own_type(
        self, capsys, poly_file, monkeypatch, target, error, text, commands
    ):
        # The scan, the smoothness proof and the search leave a fault as it
        # is; main reports its type and message.
        def fail(*args, **kwargs):
            raise error("planted fault")

        monkeypatch.setattr(target, fail)
        path = poly_file(text)
        for command in commands:
            code, out, err = run(capsys, [command, path])
            assert (code, out) == (EXIT_INTERNAL, "")
            assert err.splitlines() == [f"internal consistency failure: {error.__name__}: planted fault"]

    @pytest.mark.parametrize("name", ["analyze", "search", "oracle", "certify"])
    def test_fault_in_the_input_check_exits_internal(
        self, capsys, poly_file, tmp_path, monkeypatch, name
    ):
        # Only a ValueError or OSError there is an input error.
        def fail(text):
            raise TypeError("planted fault")

        monkeypatch.setattr(cli, "parse_poly_infer", fail)
        code, _, err = run(capsys, command_line(name, poly_file, tmp_path))
        assert code == EXIT_INTERNAL
        assert err.splitlines() == ["internal consistency failure: TypeError: planted fault"]

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_failed_json_write_is_input_error(self, capsys, poly_file, tmp_path, name):
        target = tmp_path / "missing" / "out.json"
        code, _, err = run(capsys, command_line(name, poly_file, tmp_path) + ["--json", str(target)])
        assert code == EXIT_INPUT
        assert err.splitlines() == [f"error: [Errno 2] No such file or directory: '{target}'"]

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_failed_stdout_write_is_input_error(
        self, capsys, poly_file, tmp_path, monkeypatch, name
    ):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        argv = command_line(name, poly_file, tmp_path)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code, _, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert err.splitlines() == ["error: [Errno 32] Broken pipe"]


HELP = Path(__file__).parent / "data" / "help"
COMMANDS = ("analyze", "example", "search", "criteria", "oracle", "certify")
TOP_USAGE = (
    "usage: hypstab [-h] [--version]\n"
    "               {analyze,example,search,criteria,oracle,certify} ...\n"
)


def run_exit(capsys, argv):
    """(exit code, stdout, stderr) of a run that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestSurface:
    """Help, usage and error text of the parsers, byte for byte, at 80 columns."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_top_level_help(self, capsys):
        code, out, err = run_exit(capsys, ["-h"])
        assert (code, err) == (0, "")
        assert out == (HELP / "hypstab.txt").read_text()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, capsys, command):
        code, out, err = run_exit(capsys, [command, "-h"])
        assert (code, err) == (0, "")
        assert out == (HELP / f"{command}.txt").read_text()

    def test_version(self, capsys):
        assert run_exit(capsys, ["--version"]) == (0, "hypstab 0.1.0\n", "")

    def test_unknown_command(self, capsys):
        code, out, err = run_exit(capsys, ["bogus"])
        assert (code, out) == (2, "")
        assert err == TOP_USAGE + (
            "hypstab: error: argument command: invalid choice: 'bogus' (choose from "
            "'analyze', 'example', 'search', 'criteria', 'oracle', 'certify')\n"
        )

    def test_missing_command(self, capsys):
        code, out, err = run_exit(capsys, [])
        assert (code, out) == (2, "")
        assert err == TOP_USAGE + "hypstab: error: the following arguments are required: command\n"

    def test_missing_required_argument(self, capsys):
        code, out, err = run_exit(capsys, ["oracle"])
        assert (code, out) == (2, "")
        assert err == (
            "usage: hypstab oracle [-h] --bound BOUND [--strict] [--json JSON] file\n"
            "hypstab oracle: error: the following arguments are required: file, --bound\n"
        )

    def test_bad_argument_type(self, capsys):
        code, out, err = run_exit(capsys, ["example", "fn", "--n", "two"])
        assert (code, out) == (2, "")
        assert err == (
            "usage: hypstab example [-h] --n N [--json JSON] {fn,gn}\n"
            "hypstab example: error: argument --n: invalid int value: 'two'\n"
        )

    def test_unrecognized_argument_is_reported_by_the_top_level(self, capsys):
        code, out, err = run_exit(capsys, ["example", "fn", "--n", "2", "extra", "--bogus"])
        assert (code, out) == (2, "")
        assert err == TOP_USAGE + "hypstab: error: unrecognized arguments: extra --bogus\n"

    def test_module_entry_reads_sys_argv(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "hypstab", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "hypstab 0.1.0\n", "")


class TestParserConstruction:
    """A command's parser is built on its first run in the process and kept;
    the command listing is built only when no command is named."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"parsers": 0, "listings": 0}
        init = argparse.ArgumentParser.__init__
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting_init(self, *args, **kwargs):
            counts["parsers"] += 1
            init(self, *args, **kwargs)

        def counting_add_subparsers(self, *args, **kwargs):
            counts["listings"] += 1
            return add_subparsers(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting_add_subparsers)
        return counts

    def test_analyze_run_builds_one_parser(self, capsys, poly_file, built):
        # Two runs in one process build at most one parser between them,
        # and never the command listing.
        cli._command_parser.cache_clear()
        path = poly_file("x0^5 + x1^5 + x2^5 + x3^5")
        for _ in range(2):
            code, out, _ = run(capsys, ["analyze", path, "--budget", "1"])
            assert code == EXIT_OK and "status: Stable" in out
        assert built["parsers"] <= 1 and built["listings"] == 0, built

    def test_cached_parser_keeps_no_state(self, capsys, poly_file):
        # The second run sets none of the first run's flags; its report is
        # that of a fresh process.  It tries all 50 frames: no certificate
        # exists within the default entry bound.
        nodal = poly_file("x1^2*x2 - x0^2*x2 - x0^3", "nodal.poly")
        code, first, _ = run(
            capsys, ["analyze", nodal, "--s", "1", "--no-timestamp", "--budget", "3", "--json", "-"]
        )
        assert code == EXIT_OK and json.loads(first)["profile"]["provenance"]["s"] == "user-asserted"
        path = poly_file(HIGH_CUSP)
        code, second, _ = run(capsys, ["analyze", path])
        assert code == EXIT_OK
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        fresh = subprocess.run(
            [sys.executable, "-m", "hypstab", "analyze", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (fresh.returncode, fresh.stderr) == (EXIT_OK, "")
        assert second == fresh.stdout
        assert "no certificate found within budget (50 frames)" in second
        assert "user-asserted" not in second and not second.startswith("{")

    def test_usage_error_after_a_good_run(self, capsys, poly_file, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        path = poly_file("x0^2*x2 + x1^3")
        assert run(capsys, ["oracle", path, "--bound", "5"])[0] == EXIT_OK
        assert run_exit(capsys, ["oracle"]) == (2, "", (
            "usage: hypstab oracle [-h] --bound BOUND [--strict] [--json JSON] file\n"
            "hypstab oracle: error: the following arguments are required: file, --bound\n"
        ))
        code, out, _ = run(capsys, ["analyze", path, "--budget", "2"])
        assert code == EXIT_OK
        assert run_exit(capsys, ["analyze", path, "--height", "three"]) == (2, "", (
            "usage: hypstab analyze [-h] [--s S] [--points POINTS] [--height HEIGHT]\n"
            "                       [--fields FIELDS] [--budget BUDGET] [--seed SEED]\n"
            "                       [--bound BOUND] [--json JSON] [--no-timestamp]\n"
            "                       file\n"
            "hypstab analyze: error: argument --height: invalid int value: 'three'\n"
        ))

    def test_help_builds_the_command_listing(self, capsys, built):
        code, out, _ = run_exit(capsys, ["-h"])
        assert code == 0 and "analyze" in out
        assert built["listings"] == 1


def reference_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# Strings and keys from all of Unicode but surrogates, control characters
# included; ints past 2^63 either way; floats with NaN and both infinities.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**63) + 2)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


class TestIndentedJson:
    """``indented_json`` writes the bytes of ``json.dumps(indent=2,
    sort_keys=True)``; the goldens are checked in ``test_golden``."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert indented_json(payload) == reference_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {}, [], (), "", 0, None, True, -0.0, 1e300, 5e-324, float("nan"), float("-inf"),
            {"a": {}, "b": [], "c": [[], {}, [[]]]},
            {"\x00\x1f\u2028": "\u00e9\ud83d\ude00\"\\", "": [2**64, -(2**63) - 1]},
        ],
    )
    def test_edge_cases(self, payload):
        assert indented_json(payload) == reference_json(payload)

    @pytest.mark.parametrize(
        "payload", [{"a": object()}, [{1, 2}], {"a": [b"bytes"]}, {(1,): 2}, {"a": 1, None: 2}]
    )
    def test_other_types_raise_type_error(self, payload):
        with pytest.raises(TypeError):
            reference_json(payload)
        with pytest.raises(TypeError):
            indented_json(payload)

    def test_keys_are_strings(self):
        # Reports have string keys only; json would write this one as "1".
        with pytest.raises(TypeError):
            indented_json({1: 2})

import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lfpkit.lp as lp_module
from lfpkit import (
    DualPoint,
    LinearProgram,
    LPOutcome,
    PrimalPoint,
    Sense,
    SolveStatus,
    StrictComplementarySolution,
    build_joint_lp,
    build_primal_interior_lp,
    build_transformed_lp,
    solve_lp,
)
from lfpkit.cli import build_parser, format_text, run

from helpers import GOLDEN

GOLDEN_DOC = json.dumps(GOLDEN)
EMPTY_DOC = '{"A": [[1]], "b": [-1], "c": [1], "d": [0], "alpha": 0, "beta": 1}'
UNBOUNDED_DOC = '{"A": [[-1]], "b": [0], "c": [1], "d": [0], "alpha": 0, "beta": 1}'
# Denominator 1 - x hits zero at the vertex x = 1.
VIOLATES_DOC = '{"A": [[1]], "b": [1], "c": [1], "d": [-1], "alpha": 0, "beta": 1}'
MALFORMED_DOC = '{"A": [[1]], "b": [1, 2], "c": [1], "d": [1], "alpha": 0, "beta": 1}'
# A non-empty region on which the denominator is 0 everywhere.
ZERO_DENOMINATOR_DOC = '{"A": [[1, 2]], "b": [1], "c": [1, 2], "d": [0, 0], "alpha": 0, "beta": 0}'
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(GOLDEN_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def stage1_fails(monkeypatch):
    """Every LP solve stops early, so stage 1, the first, does."""
    stopped = LPOutcome(SolveStatus.ITERATION_LIMIT, detail="forced for the exit-code contract")
    monkeypatch.setattr(lp_module, "solve_lp", lambda lp, opts: stopped)


@pytest.fixture
def approach_two_not_strict(monkeypatch, golden):
    """Approach two returns the golden instance's non-strict vertex solution
    x = (0, 2), y = (0, 1/3), z = 4/3, where x_1 = v_1 = 0."""
    x = [0.0, 2.0]
    solution = StrictComplementarySolution(
        PrimalPoint.from_x(golden, x), 1.0 / float(golden.d @ x + golden.beta),
        DualPoint.from_yz(golden, [0.0, 1.0 / 3.0], 4.0 / 3.0), 4.0 / 3.0,
    )
    monkeypatch.setattr("lfpkit.cli.approach_two", lambda problem: solution)


def masked(text):
    """A text report with the numbers on its `timings:` line masked."""
    return re.sub(r"(?m)^timings: .*$", lambda line: re.sub(r"\d+\.\d+", "#", line.group()), text)


def run_cli(capsys, *argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_both_approaches_succeed(self, golden_file, capsys):
        code, out, _ = run_cli(capsys, "--input", golden_file, "--approach", "both")
        assert code == 0
        assert "theta_star = 1.33333" in out
        assert "sigma_x = {1, 2}" in out
        assert "sigma_v = {}" in out
        assert "sigma_u = {1}" in out
        assert "sigma_y = {2}" in out
        assert "cross_check: pass" in out

    def test_empty_region_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(EMPTY_DOC, encoding="utf-8")
        code, out, err = run_cli(capsys, "--input", str(path))
        assert code == 2
        assert "status: infeasible" in out
        assert err  # diagnostics on stderr

    @pytest.mark.parametrize("flags, label", [((), "stage 1"),
                                              (("--validate-denominator",), "denominator")],
                             ids=["stage 1", "denominator"])
    def test_empty_region_exits_two_through_the_fallback(self, tmp_path, capsys, lp_records,
                                                         flags, label):
        # The first LP solved, stage 1 or the denominator LP, meets the empty
        # region on the dual simplex, which gives no verdict on it: the run
        # breaks down on a dual ray, and the primal path that takes over
        # finds the region empty in phase 1.
        path = tmp_path / "empty.json"
        path.write_text(EMPTY_DOC, encoding="utf-8")
        code, out, _ = run_cli(capsys, "--input", str(path), *flags)
        assert code == 2
        assert "status: infeasible" in out
        [record] = lp_records()
        assert (record.lp, record.outcome.status) == (label, SolveStatus.INFEASIBLE)
        assert [run[:2] for run in record.outcome.runs] == [("dual", "dual_ray"),
                                                             ("primal", "optimal")]

    def test_unbounded_exits_three(self, tmp_path, capsys):
        path = tmp_path / "unbounded.json"
        path.write_text(UNBOUNDED_DOC, encoding="utf-8")
        code, out, _ = run_cli(capsys, "--input", str(path))
        assert code == 3
        assert "status: unbounded_or_denominator" in out

    @pytest.mark.parametrize("approach", ["one", "two", "both"])
    @pytest.mark.parametrize(
        "flags, code, status",
        [([], 2, "infeasible"), (["--validate-denominator"], 3, "denominator_nonpositive")],
        ids=["plain", "validate-denominator"],
    )
    def test_zero_denominator_region_exits_two_or_three(self, tmp_path, capsys, approach, flags,
                                                        code, status):
        # Stage 1 finds no feasible point with a positive denominator, which
        # exit 2 reports; the denominator check, run first, names the fault.
        path = tmp_path / "zero.json"
        path.write_text(ZERO_DENOMINATOR_DOC)
        exit_code, out, _ = run_cli(capsys, "--input", str(path), "--approach", approach,
                                    "--format", "json", *flags)
        assert exit_code == code
        assert json.loads(out)["status"] == status

    def test_input_error_exits_four(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(MALFORMED_DOC)
        code, out, _ = run_cli(capsys, "--input", str(path))
        assert code == 4
        assert "status: input_error" in out

    @pytest.mark.parametrize(
        "alpha", ['"0"', "1" + "0" * 400, '6, "alpha": 7'], ids=["string", "overflow", "repeated-key"]
    )
    def test_string_or_overflowing_number_exits_four(self, tmp_path, capsys, alpha):
        path = tmp_path / "broken.json"
        path.write_text(GOLDEN_DOC.replace('"alpha": 6', f'"alpha": {alpha}'))
        code, out, _ = run_cli(capsys, "--input", str(path))
        assert code == 4
        assert "status: input_error" in out

    def test_deeply_nested_document_exits_four(self, tmp_path, capsys):
        depth = 200_000
        path = tmp_path / "deep.json"
        path.write_text(GOLDEN_DOC.replace(json.dumps(GOLDEN["A"]), "[" * depth + "]" * depth))
        code, out, err = run_cli(capsys, "--input", str(path), "--format", "json")
        assert code == 4
        assert json.loads(out)["status"] == "input_error"
        assert err.count("\n") == 1 and err.startswith("lfp-solve: ")

    def test_missing_file_exits_four(self, capsys):
        code, _, _ = run_cli(capsys, "--input", "does-not-exist.json")
        assert code == 4

    def test_failed_verification_exits_five(self, golden_file, capsys, approach_two_not_strict):
        code, out, _ = run_cli(capsys, "--input", golden_file, "--format", "json")
        assert code == 5
        doc = json.loads(out)
        assert (doc["status"], doc["cross_check"]) == ("verification_failed", False)
        # The one warning names the approach, the uncovered index and both of its
        # values: x_1 = 0 and v_1 = 0 up to rounding.
        [warning] = doc["warnings"]
        assert re.fullmatch(r"approach two: x/v cover misses \[1\] "
                            r"\(x = 0\.000e\+00, v = (-?\d\.\d{3}e-1\d|0\.000e\+00)\)", warning)
        code, out, _ = run_cli(capsys, "--input", golden_file)
        assert code == 5
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("warning: ")] == [f"warning: {warning}"]
        assert "cross_check: FAIL (partitions differ)" in lines

    def test_unknown_flag_exits_four(self, golden_file, capsys):
        # The tolerances are fixed, so --tol and --pos-tol are unknown flags too.
        for flags in (["--frobnicate"], ["--tol", "1e-9"], ["--pos-tol", "1e-7"]):
            code, _, _ = run_cli(capsys, "--input", golden_file, *flags)
            assert code == 4, flags


class TestLogRecords:
    def test_a_run_logs_each_labelled_lp_once(self, golden, golden_file, capsys, lp_records):
        code, _, err = run_cli(capsys, "--input", golden_file, "--approach", "both",
                               "--validate-denominator")
        assert (code, err) == (0, "")
        records = lp_records()
        assert [(record.levelno, record.lp) for record in records] == [
            (logging.DEBUG, "denominator"), (logging.DEBUG, "stage 1"),
            (logging.DEBUG, "primal face"), (logging.DEBUG, "joint face"),
        ]
        assert records[0].getMessage() == "denominator LP: optimal, simplex runs: 1"
        # Each record holds the outcome that a direct solve of its builder's LP gives.
        theta_star = solve_lp(build_transformed_lp(golden)).objective
        lps = [LinearProgram(Sense.MINIMIZE, golden.d, A_ub=golden.A, b_ub=golden.b),
               build_transformed_lp(golden), build_primal_interior_lp(golden, theta_star),
               build_joint_lp(golden)]
        for record, lp in zip(records, lps):
            direct = solve_lp(lp)
            assert record.outcome.runs == direct.runs
            assert record.outcome.point.tobytes() == direct.point.tobytes()


class TestJsonFormat:
    def test_schema_keys(self, golden_file, capsys):
        code, out, _ = run_cli(capsys, "--input", golden_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"theta_star", "approaches", "partition", "cross_check", "status"}
        assert set(doc["approaches"]) == {"one", "two"}
        for name in ("one", "two"):
            block = doc["approaches"][name]
            assert set(block) == {"x", "u", "t", "y", "z", "v", "csc", "scsc"}
            assert block["csc"]["ok"] is True
            assert block["scsc"]["ok"] is True
        assert doc["partition"] == {
            "sigma_x": [1, 2], "sigma_v": [], "sigma_u": [1], "sigma_y": [2],
        }
        assert doc["cross_check"] is True
        assert doc["status"] == "ok"

    def test_json_matches_text_at_printed_precision(self, golden_file, capsys):
        code, json_out, _ = run_cli(capsys, "--input", golden_file, "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        code, text_out, _ = run_cli(capsys, "--input", golden_file, "--format", "text")
        assert code == 0
        assert f"theta_star = {doc['theta_star']:.6g}" in text_out
        for name in ("one", "two"):
            block = doc["approaches"][name]
            assert f"t = {block['t']:.6g}" in text_out
            assert f"z = {block['z']:.6g}" in text_out
            for value in block["x"] + block["y"]:
                assert f"{value:.6g}" in text_out

    @pytest.mark.parametrize(
        "doc, fault, code",
        [(GOLDEN_DOC, None, 0), (EMPTY_DOC, None, 2), (UNBOUNDED_DOC, None, 3),
         (MALFORMED_DOC, None, 4), (GOLDEN_DOC, "stage1_fails", 5),
         (GOLDEN_DOC, "approach_two_not_strict", 5)],
        ids=["golden", "empty-region", "unbounded", "malformed", "stage-1-failure",
             "verification-failure"],
    )
    def test_text_is_format_text_of_the_json_report(self, tmp_path, capsys, request, doc, fault,
                                                    code):
        # tools/compare_reports.py records a text report without a text run on
        # this premise: text mode writes the document that JSON mode writes.
        if fault:
            request.getfixturevalue(fault)
        path = tmp_path / "problem.json"
        path.write_text(doc, encoding="utf-8")
        argv = ("--input", str(path), "--approach", "both", "--validate-denominator")
        json_code, json_out, json_err = run_cli(capsys, *argv, "--format", "json")
        text_code, text_out, text_err = run_cli(capsys, *argv, "--format", "text")
        assert json_code == text_code == code
        assert masked(text_out) == masked(format_text(json.loads(json_out)))
        assert text_err == json_err

    def test_single_approach_runs(self, golden_file, capsys):
        code, out, _ = run_cli(
            capsys, "--input", golden_file, "--approach", "two", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["approaches"]) == {"two"}
        assert "cross_check" not in doc  # present iff both approaches ran
        assert doc["theta_star"] == pytest.approx(4.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize(
        "doc, flags, code, keys",
        [
            (GOLDEN_DOC, ["--validate-denominator"], 0,
             "status theta_star approaches partition cross_check denominator_min timings warnings"),
            (GOLDEN_DOC, ["--approach", "two"], 0,
             "status theta_star approaches partition timings warnings"),
            (EMPTY_DOC, [], 2, "status error approaches partition timings warnings"),
            (EMPTY_DOC, ["--approach", "two"], 2, "status error approaches partition timings warnings"),
            (VIOLATES_DOC, ["--validate-denominator"], 3,
             "status error approaches partition denominator_min timings warnings"),
        ],
        ids=["golden", "approach-two", "empty-region", "empty-region-approach-two", "denominator-check-fails"],
    )
    def test_key_order(self, tmp_path, capsys, doc, flags, code, keys):
        path = tmp_path / "problem.json"
        path.write_text(doc, encoding="utf-8")
        exit_code, out, _ = run_cli(capsys, "--input", str(path), "--format", "json", *flags)
        assert exit_code == code
        assert list(json.loads(out)) == keys.split()
        # One line, as json.dumps writes it with its default separators.
        assert out.count("\n") == 1 and out == json.dumps(json.loads(out)) + "\n"

    def test_error_report_is_json_when_requested(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(EMPTY_DOC, encoding="utf-8")
        code, out, _ = run_cli(capsys, "--input", str(path), "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "infeasible"
        assert "error" in doc


class TestFlags:
    def test_validate_denominator_reports_minimum(self, golden_file, capsys):
        code, out, _ = run_cli(
            capsys, "--input", golden_file, "--validate-denominator", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["denominator_min"] == pytest.approx(5.0)

    def test_validate_denominator_catches_violation(self, tmp_path, capsys):
        path = tmp_path / "violates.json"
        path.write_text(VIOLATES_DOC, encoding="utf-8")
        code, out, _ = run_cli(capsys, "--input", str(path), "--validate-denominator")
        assert code == 3
        assert "status: denominator_nonpositive" in out

    def test_parser_keeps_exactly_these_options(self):
        args = build_parser().parse_args(["--input", "p.json"])
        assert sorted(vars(args)) == ["approach", "format", "input", "validate_denominator"]

    def test_numerical_failure_exits_five(self, golden_file, capsys, stage1_fails):
        code, out, _ = run_cli(capsys, "--input", golden_file)
        assert code == 5
        assert "status: numerical_failure" in out
        assert "stage 1 solve ended with status iteration_limit: forced for the exit-code contract" in out

    def test_stdout_carries_report_only(self, golden_file, capsys):
        code, out, err = run_cli(capsys, "--input", golden_file)
        assert code == 0
        assert err == ""
        assert out.startswith("theta_star")


@pytest.mark.parametrize("doc, code", [(GOLDEN_DOC, 0), (EMPTY_DOC, 2)], ids=["golden", "empty-region"])
def test_python_dash_m_entry_point(tmp_path, doc, code):
    path = tmp_path / "problem.json"
    path.write_text(doc, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "lfpkit", "--input", str(path), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == code, result.stderr
    assert json.loads(result.stdout)["status"] == ("ok" if code == 0 else "infeasible")


def test_format_text_flags_scsc_failure():
    # Rendering detail: a failing strictness check must name the indices.
    from dataclasses import asdict
    from lfpkit import (
        DualPoint, PrimalPoint, StrictComplementarySolution, verify_csc, verify_scsc,
    )

    sol = StrictComplementarySolution(
        PrimalPoint([0.0, 2.0], [4.0, 0.0]), 0.1,
        DualPoint([0.0, 1.0 / 3.0], 4.0 / 3.0, [0.0, 0.0]), 4.0 / 3.0,
    )
    block = {
        "x": sol.primal.x.tolist(), "u": sol.primal.u.tolist(), "t": sol.t_star,
        "y": sol.dual.y.tolist(), "z": sol.dual.z, "v": sol.dual.v.tolist(),
        "csc": asdict(verify_csc(sol)), "scsc": asdict(verify_scsc(sol)),
    }
    doc = {
        "status": "verification_failed", "theta_star": 4.0 / 3.0, "approaches": {"one": block},
        "partition": None, "timings": {}, "warnings": [],
    }
    text = format_text(doc)
    assert "FAIL" in text
    assert "failing primal [1]" in text

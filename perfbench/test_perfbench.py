"""Self-test of the benchmark: determinism, oracle agreement and refusal to run.

    python3 -m pytest -q perfbench

Not part of the package's test suite (pytest collects `tests/` by default);
it needs scipy for the HiGHS oracle.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

pytest.importorskip("scipy")

import generate  # noqa: E402
import oracle  # noqa: E402
import pipeline  # noqa: E402
from lfpkit import cli  # noqa: E402

COUNTS = ("lp.solves", "lp.cells", "lp.not_optimal") + tuple(
    f"lp.not_optimal.{kind}" for kind in pipeline.LP_KINDS
)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    first = generate.write_instances(workload, 11, tmp_path / "a")
    again = generate.write_instances(workload, 11, tmp_path / "b")
    other = generate.write_instances(workload, 12, tmp_path / "c")
    assert [name for name, _ in first] == [name for name, _ in again]
    assert all(p.read_bytes() == q.read_bytes() for (_, p), (_, q) in zip(first, again))
    assert any(p.read_bytes() != q.read_bytes() for (_, p), (_, q) in zip(first, other))


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_repeats_every_count(workload):
    runs = []
    for _ in range(2):
        done = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    first, again = runs
    assert first["correct"] and again["correct"]
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])
    # One traced pass and MIN_PASSES untraced ones count the same instances.
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    untraced = json.loads(done.stdout.splitlines()[-1])
    assert (untraced["attempted"], untraced["failed"]) == (first["attempted"], first["failed"])
    assert first["attempted"] == len(generate.instances(workload, 3))
    for name in COUNTS:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name


def _cli_report(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(["--input", str(path), "--format", "json", "--validate-denominator"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("workload", ("batch-small", "degenerate-mixed"))
def test_partitions_match_highs_support_oracle(tmp_path, workload):
    solved = 0
    for name, path in generate.write_instances(workload, 5, tmp_path):
        code, report = _cli_report(path)
        mirrored = pipeline.run_pipeline(path, pipeline.Tracer(enabled=False))
        assert mirrored.exit_code == code, name
        if code != 0:
            continue
        solved += 1
        assert mirrored.theta_star == report["theta_star"], name
        assert mirrored.partition == report["partition"], name
        data = json.loads(path.read_text())
        theta = oracle.theta_star(data)
        assert report["theta_star"] == pytest.approx(theta, rel=1e-6, abs=1e-6), name
        assert report["partition"] == oracle.partition(data, theta), name
    assert solved >= 50


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "batch-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

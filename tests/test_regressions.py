"""Benchmark instances that expose open faults, pinned as strict xfails.

Each instance comes from the benchmark's own generator, so it is the same
bytes the benchmark runs.  A change that mends a fault turns its xfail into a
plain test.
"""

import importlib.util
from pathlib import Path

import pytest

from lfpkit import cli

GENERATE = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"


def generated(workload, seed, name, directory):
    spec = importlib.util.spec_from_file_location("perfbench_generate", GENERATE)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    data = dict(generate.instances(workload, seed))[name]
    path = directory / f"{name}.json"
    path.write_text(generate.to_json(data))
    return str(path)


@pytest.mark.parametrize(
    "workload, seed, name",
    [
        pytest.param(
            "degenerate-mixed", 1, "zero-d-columns-14",
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="the dual-face LP, bounded by construction, ends UNBOUNDED (exit 5)",
            ),
        ),
        pytest.param(
            "joint-medium", 7, "joint-16-26x26",
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason='approach two reports "u/y overlap at [5]" (exit 5)',
            ),
        ),
    ],
    ids=["zero-d-columns-14", "joint-16-26x26"],
)
def test_both_approaches_solve_benchmark_instance(tmp_path, capsys, workload, seed, name):
    path = generated(workload, seed, name, tmp_path)
    assert cli.run(["--input", path, "--approach", "both"]) == 0, capsys.readouterr().out

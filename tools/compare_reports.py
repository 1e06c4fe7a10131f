"""Same-behaviour check for `lfp-solve`: dump its reports at one checkout, diff two dumps.

    python3 tools/compare_reports.py dump --workloads batch-small joint-medium \\
        degenerate-mixed --seeds 1 2 3 --out before.json [--limit N]
    python3 tools/compare_reports.py diff before.json after.json

`dump` writes the instances that `perfbench/generate.py` makes for each
workload and seed (the first N of each with `--limit`), runs
`lfpkit.cli.run` on each with `--approach both --validate-denominator`, once
with `--format json` and once with `--format text`, and records the exit code,
the JSON report minus its `timings`, the text report with the numbers on its
`timings:` line masked, the standard error of both runs, and the verdict and
pivot count of every `lfpkit.lp._run_simplex` run (one per simplex phase) of
the JSON run in call order.  The package is imported from the `src/` next to
this script, so run the script of the checkout you want to measure.

`diff` matches instances by workload, seed and name and prints, per workload,
the instances compared, the reports that differ (and how many of those differ
only in their `error` text), the exit-code changes, the instances whose
simplex runs differ, the failures (nonzero exits), the pivot totals on each
side and the instances whose text report or standard error differs.  It
exits 1 on any difference, 0 otherwise.
"""

import os

# One BLAS thread, as in the benchmark, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import generate  # noqa: E402
from lfpkit import cli, lp  # noqa: E402

CLI_ARGS = ("--approach", "both", "--validate-denominator")


def run_cli(path: Path, fmt: str) -> tuple:
    """Exit code, standard output and standard error of one `lfp-solve` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["--input", str(path), *CLI_ARGS, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def run_instance(path: Path) -> dict:
    """Exit code, reports, standard error and simplex runs of one instance's JSON and text runs."""
    runs = []
    simplex = lp._run_simplex

    def recorded(*args, **kwargs):
        verdict, x, used = simplex(*args, **kwargs)
        runs.append([verdict, used])
        return verdict, x, used

    lp._run_simplex = recorded
    try:
        code, out, err = run_cli(path, "json")
    finally:
        lp._run_simplex = simplex
    report = json.loads(out)
    report.pop("timings", None)
    _, text, text_err = run_cli(path, "text")
    text = re.sub(r"(?m)^timings: .*$", lambda line: re.sub(r"\d+\.\d+", "#", line.group()), text)
    return {"code": code, "report": report, "runs": runs, "text": text, "stderr": [err, text_err]}


def dump(workloads, seeds, limit=None) -> list:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            for seed in seeds:
                for name, data in generate.instances(workload, seed)[:limit]:
                    path = Path(tmp) / f"{name}.json"
                    path.write_text(generate.to_json(data))
                    records.append({"workload": workload, "seed": seed, "name": name,
                                    **run_instance(path)})
    return records


def diff(before: list, after: list, out=sys.stdout) -> int:
    """Print per-workload differences between two dumps; returns the number found."""
    key = lambda r: (r["workload"], r["seed"], r["name"])  # noqa: E731
    old = {key(r): r for r in before}
    new = {key(r): r for r in after}
    differences = 0
    for k in sorted(old.keys() ^ new.keys()):
        print(f"only in {'before' if k in old else 'after'}: {'/'.join(map(str, k))}", file=out)
        differences += 1
    for workload in sorted({k[0] for k in old.keys() | new.keys()}):
        shared = sorted(k for k in old.keys() & new.keys() if k[0] == workload)
        reports = errors_only = codes = runs = texts = 0
        for k in shared:
            a, b = old[k], new[k]
            if a["code"] != b["code"]:
                codes += 1
                print(f"  exit code {a['code']} -> {b['code']}: {'/'.join(map(str, k))}", file=out)
            if _canonical(a["report"]) != _canonical(b["report"]):
                reports += 1
                a_rest = {f: v for f, v in a["report"].items() if f != "error"}
                b_rest = {f: v for f, v in b["report"].items() if f != "error"}
                if _canonical(a_rest) == _canonical(b_rest):
                    errors_only += 1
                else:
                    print(f"  report differs: {'/'.join(map(str, k))}", file=out)
            if a.get("runs") != b.get("runs"):
                runs += 1
                print(f"  simplex runs differ: {'/'.join(map(str, k))}", file=out)
            if (a.get("text"), a.get("stderr")) != (b.get("text"), b.get("stderr")):
                texts += 1
                print(f"  text or stderr differs: {'/'.join(map(str, k))}", file=out)
        failed_before = sum(old[k]["code"] != 0 for k in shared)
        failed_after = sum(new[k]["code"] != 0 for k in shared)
        print(
            f"{workload}: {len(shared)} compared, {reports} reports differ "
            f"({errors_only} only in error text), {codes} exit-code changes, "
            f"{runs} with different simplex runs, "
            f"failures {failed_before} -> {failed_after}, "
            f"pivots {_pivots(old, shared)} -> {_pivots(new, shared)}, "
            f"{texts} with different text or stderr",
            file=out,
        )
        differences += reports + codes + runs + texts
    return differences


def _pivots(records: dict, keys) -> int:
    return sum(used for k in keys for _, used in records[k].get("runs", ()))


def _canonical(doc) -> str:
    # Text, so that a NaN compares equal to itself.
    return json.dumps(doc, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run lfp-solve on generated instances and save the reports")
    d.add_argument("--workloads", nargs="+", choices=generate.WORKLOADS, required=True)
    d.add_argument("--seeds", nargs="+", type=int, required=True)
    d.add_argument("--limit", type=int, help="first N instances of each workload and seed")
    d.add_argument("--out", type=Path, required=True)
    c = sub.add_parser("diff", help="compare two dumps; exit 1 on any difference")
    c.add_argument("before", type=Path)
    c.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    if args.command == "dump":
        records = dump(args.workloads, args.seeds, args.limit)
        args.out.write_text(json.dumps(records, sort_keys=True) + "\n")
        print(f"{len(records)} instances written to {args.out}")
        return 0
    before = json.loads(args.before.read_text())
    after = json.loads(args.after.read_text())
    return 1 if diff(before, after) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Same-behaviour check for `lfp-solve`: dump its reports at one checkout, diff two dumps.

    python3 tools/compare_reports.py dump --workloads batch-small joint-medium \\
        degenerate-mixed --seeds 1 2 3 --out before.json [--limit N]
    python3 tools/compare_reports.py diff before.json after.json
    python3 tools/compare_reports.py ledger before.json --out BENCH_pivots.json

`dump` writes the instances that `perfbench/generate.py` makes for each
workload and seed (the first N of each with `--limit`), runs
`lfpkit.cli.run` on each with `--approach both --validate-denominator`, once
with `--format json` and once with `--format text`, and records the exit code,
the JSON report minus its `timings`, the text report with the numbers on its
`timings:` line masked, the standard error of both runs, and the verdict and
pivot count of every `lfpkit.lp._run_simplex` run (one per simplex phase) of
the JSON run in call order.  The package is imported from the `src/` next to
this script, so run the script of the checkout you want to measure.

`diff` matches instances by workload, seed and name.  For each workload it
first prints one line per seed: the failures (nonzero exits) and pivot totals
on each side, and how many of the instances that both sides solve have a
different `partition`.  Then it names each instance whose exit code changed,
with the error text (or "cross_check false") on each side, whose partition
differs, whose report differs other than in its `error` text, and whose
simplex runs, text report or standard error differ.  A last line per workload
counts these and gives its failures and pivots.  It exits 1 on any
difference, 0 otherwise; a change that moves pivot paths exits 1, and the
per-seed lines say whether it changed anything that matters.

`ledger` reads a dump and writes, per workload and seed, the instances, the
failures by exit code, the simplex runs and the total pivots.  Pivot counts
are deterministic, so the ledger of a checkout is byte-stable and a change to
it is a change in behaviour.
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
    """Print per-seed and per-workload differences between two dumps; returns the number found."""
    key = lambda r: (r["workload"], r["seed"], r["name"])  # noqa: E731
    old = {key(r): r for r in before}
    new = {key(r): r for r in after}
    differences = 0
    for k in sorted(old.keys() ^ new.keys()):
        print(f"only in {'before' if k in old else 'after'}: {'/'.join(map(str, k))}", file=out)
        differences += 1
    for workload in sorted({k[0] for k in old.keys() | new.keys()}):
        shared = sorted(k for k in old.keys() & new.keys() if k[0] == workload)
        for seed in sorted({k[1] for k in shared}):
            keys = [k for k in shared if k[1] == seed]
            failed, pivots, moved = _summary(old, new, keys)
            print(f"{workload} seed {seed}: {len(keys)} compared, {failed}, {pivots}, {moved}",
                  file=out)
        reports = errors_only = codes = runs = texts = 0
        for k in shared:
            a, b, name = old[k], new[k], "/".join(map(str, k))
            if a["code"] != b["code"]:
                codes += 1
                print(f"  exit code {a['code']} -> {b['code']}: {name}: "
                      f"{_outcome(a)} -> {_outcome(b)}", file=out)
            elif a["code"] == 0 and _partition(a) != _partition(b):
                print(f"  partition differs: {name}", file=out)
            if _canonical(a["report"]) != _canonical(b["report"]):
                reports += 1
                a_rest = {f: v for f, v in a["report"].items() if f != "error"}
                b_rest = {f: v for f, v in b["report"].items() if f != "error"}
                if _canonical(a_rest) == _canonical(b_rest):
                    errors_only += 1
                else:
                    print(f"  report differs: {name}", file=out)
            if a.get("runs") != b.get("runs"):
                runs += 1
                print(f"  simplex runs differ: {name}", file=out)
            if (a.get("text"), a.get("stderr")) != (b.get("text"), b.get("stderr")):
                texts += 1
                print(f"  text or stderr differs: {name}", file=out)
        failed, pivots, _ = _summary(old, new, shared)
        print(
            f"{workload}: {len(shared)} compared, {reports} reports differ "
            f"({errors_only} only in error text), {codes} exit-code changes, "
            f"{runs} with different simplex runs, {failed}, {pivots}, "
            f"{texts} with different text or stderr",
            file=out,
        )
        differences += reports + codes + runs + texts
    return differences


def _summary(old: dict, new: dict, keys) -> tuple:
    """Failures and pivots on each side, and the partitions that differ where both sides solve."""
    solved = [k for k in keys if old[k]["code"] == 0 and new[k]["code"] == 0]
    moved = sum(_partition(old[k]) != _partition(new[k]) for k in solved)
    failed_before = sum(old[k]["code"] != 0 for k in keys)
    failed_after = sum(new[k]["code"] != 0 for k in keys)
    return (f"failures {failed_before} -> {failed_after}",
            f"pivots {_pivots(old, keys)} -> {_pivots(new, keys)}",
            f"partitions differ on {moved} of {len(solved)} solved by both")


def _partition(record: dict) -> str:
    return _canonical(record["report"].get("partition"))


def _outcome(record: dict) -> str:
    """Why an instance exited as it did: "ok", its error text, or its failed check."""
    report = record["report"]
    if record["code"] == 0:
        return "ok"
    if "error" in report:
        return report["error"]
    return "cross_check false" if report.get("cross_check") is False else report["status"]


def ledger(records: list) -> list:
    """Instances, failures by exit code, simplex runs and pivots per workload and seed of a dump."""
    entries = {}
    for r in records:
        entry = entries.setdefault((r["workload"], r["seed"]), {
            "workload": r["workload"], "seed": r["seed"], "instances": 0, "failures": {},
            "simplex_runs": 0, "pivots": 0,
        })
        entry["instances"] += 1
        if r["code"]:
            entry["failures"][str(r["code"])] = entry["failures"].get(str(r["code"]), 0) + 1
        entry["simplex_runs"] += len(r["runs"])
        entry["pivots"] += sum(used for _, used in r["runs"])
    return list(entries.values())


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
    g = sub.add_parser("ledger", help="write a dump's failures and pivots per workload and seed")
    g.add_argument("dump", type=Path)
    g.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.command == "dump":
        records = dump(args.workloads, args.seeds, args.limit)
        args.out.write_text(json.dumps(records, sort_keys=True) + "\n")
        print(f"{len(records)} instances written to {args.out}")
        return 0
    if args.command == "ledger":
        entries = ledger(json.loads(args.dump.read_text()))
        args.out.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"{len(entries)} ledger entries written to {args.out}")
        return 0
    before = json.loads(args.before.read_text())
    after = json.loads(args.after.read_text())
    return 1 if diff(before, after) else 0


if __name__ == "__main__":
    sys.exit(main())

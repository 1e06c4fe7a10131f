"""Same-behaviour check for `lfp-solve`: dump its reports at one checkout, diff two dumps.

    python3 tools/compare_reports.py dump --workloads batch-small joint-medium \\
        degenerate-mixed --seeds 1 2 3 --out before.json [--limit N] \\
        [--ladder 40x40 80x60 100x80]
    python3 tools/compare_reports.py diff before.json after.json
    python3 tools/compare_reports.py ledger before.json --out BENCH_pivots.json

`dump` writes the instances that `perfbench/generate.py` makes for each
workload and seed (the first N of each with `--limit`), runs
`lfpkit.cli.run` once on each with `--approach both --validate-denominator
--format json`, and records the exit code, the JSON report minus its
`timings`, the text report (`cli.format_text` of that report, as text mode
prints it) with the numbers on its `timings:` line masked, the run's standard
error, and, in call order, every simplex run as its LP's `LPOutcome.runs`
records it (an inversion counts even where `np.linalg.inv` raised) and every
optimal face LP's objective, both read off the `lfpkit` logger (see `Recording`).
`--ladder` adds the size-ladder instances, workload "ladder":
`generate._random(np.random.default_rng(1), n, m)` for each n x m.
The package is imported from the `src/` next to this script, so run the
script of the checkout you want to measure.

A run's pivots are its iterations: a primal run's basis changes and bound
flips, each a step of its own, or a dual run's basis changes, whose bound
flips ride along in the same step.

`diff` matches instances by workload, seed and name.  For each workload it
first prints one line per seed: the failures (nonzero exits) and pivot totals
on each side, and how many of the instances that both sides solve have a
different `partition`.  Then it names each instance whose exit code changed,
with the error text (or "cross_check false") on each side, whose partition
differs, whose report differs other than in its `error` or `warnings` text,
whose simplex runs differ, with the index and both sides of the first run
that differs, and whose text report or standard error differs.  A last line
per workload counts these, the reports that differ only in that diagnostic
text among them, and gives its failures and pivots.  It exits 1 on any
difference, 0 otherwise; a change that moves pivot paths exits 1, and the
per-seed lines say whether it changed anything that matters.

`ledger` reads a dump and writes, per workload and seed, the instances, the
failures by exit code, the simplex runs, the total pivots, those of the face
LPs and those of each LP (denominator, stage 1, primal and joint face), the
runs, basis changes, bound flips, verdicts and inversions of each method,
how many optimal face LPs ended at a fractional objective, and how many
exit-0 runs break the Goldman-Tucker count: a face LP whose optimum is not
its support count plus one, n + m + 1 for the joint LP and |sigma_x| +
|sigma_u| + 1 for the primal face LP, off by more than FRACTIONAL.  Each
ladder instance gets a pivot-only row with the same per-method counts for
each of its LPs.  Pivot counts are deterministic, so the ledger of a
checkout is byte-stable and a change to it is a change in behaviour.
"""

import os

# One BLAS thread, as in the benchmark, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import generate  # noqa: E402
import numpy as np  # noqa: E402
from lfpkit import cli  # noqa: E402

CLI_ARGS = ("--approach", "both", "--validate-denominator")

# The LPs of one `lfp-solve` run, in call order, as the package's log records label them.
LPS = ("denominator", "stage 1", "primal face", "joint face")

# The report fields that hold diagnostic text; a report that differs only in
# these differs in wording, not in a result.
DIAGNOSTICS = ("error", "warnings")

# A face LP's optimum is an integer (the support count plus one); an optimal
# objective farther than this from every integer is reported as fractional.
FRACTIONAL = 1e-6


def run_cli(path: Path) -> tuple:
    """Exit code, standard output and standard error of one `lfp-solve --format json` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["--input", str(path), *CLI_ARGS, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


class Recording(logging.Handler):
    """While entered, the simplex runs and optimal face-LP objectives of every
    labelled LP, from the DEBUG record that the package logs on the `lfpkit`
    logger as soon as the LP's solve returns, so also where the solve then raises.

    Each run goes onto `runs` as [lp, method, verdict, basis changes, bound
    flips, inversions]: the record's label (one of `LPS`), then one entry of
    its outcome's `runs` (see `lfpkit.lp`), where an inversion counts even if
    `np.linalg.inv` raised.  Each optimal face LP adds [lp, objective] to
    `face_optima`.
    """

    def __init__(self):
        super().__init__()
        self.runs, self.face_optima, self.logger = [], [], logging.getLogger("lfpkit")

    def emit(self, record):
        self.runs.extend([record.lp, *run] for run in record.outcome.runs)
        if record.lp.endswith(" face") and record.outcome.is_optimal:
            self.face_optima.append([record.lp, record.outcome.objective])

    def __enter__(self):
        self.saved_level = self.logger.level
        self.logger.setLevel(logging.DEBUG)
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc_info):
        self.logger.removeHandler(self)
        self.logger.setLevel(self.saved_level)


def run_instance(path: Path) -> dict:
    """Exit code, reports, standard error, simplex runs and face optima of one instance."""
    with Recording() as recorded:
        code, out, err = run_cli(path)
    report = json.loads(out)
    text = re.sub(r"(?m)^timings: .*$", lambda line: re.sub(r"\d+\.\d+", "#", line.group()),
                  cli.format_text(report))
    report.pop("timings", None)
    return {"code": code, "report": report, "runs": recorded.runs,
            "face_optima": recorded.face_optima, "text": text, "stderr": err}


def ladder_instances(sizes) -> list:
    """(name, data) of the size ladder: `generate._random(np.random.default_rng(1), n, m)`
    for each size "NxM"."""
    return [(size, generate._random(np.random.default_rng(1), *map(int, size.split("x"))))
            for size in sizes]


def dump(workloads, seeds, limit=None, ladder=()) -> list:
    records = []
    batches = [(w, s, generate.instances(w, s)[:limit]) for w in workloads for s in seeds]
    if ladder:
        batches.append(("ladder", 1, ladder_instances(ladder)))
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, instances in batches:
            for name, data in instances:
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
        reports = diagnostics_only = codes = runs = texts = 0
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
                a_rest = {f: v for f, v in a["report"].items() if f not in DIAGNOSTICS}
                b_rest = {f: v for f, v in b["report"].items() if f not in DIAGNOSTICS}
                if _canonical(a_rest) == _canonical(b_rest):
                    diagnostics_only += 1
                else:
                    print(f"  report differs: {name}", file=out)
            if a.get("runs") != b.get("runs"):
                runs += 1
                print(f"  simplex runs differ: {name}: {_first_run_difference(a, b)}", file=out)
            if (a.get("text"), a.get("stderr")) != (b.get("text"), b.get("stderr")):
                texts += 1
                print(f"  text or stderr differs: {name}", file=out)
        failed, pivots, _ = _summary(old, new, shared)
        print(
            f"{workload}: {len(shared)} compared, {reports} reports differ "
            f"({diagnostics_only} only in error or warning text), {codes} exit-code changes, "
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


def _first_run_difference(a: dict, b: dict) -> str:
    """The index and both sides of the first simplex run in which two records
    differ; a side that has no run there shows as null."""
    a_runs, b_runs = a.get("runs") or [], b.get("runs") or []
    k = 0
    while k < min(len(a_runs), len(b_runs)) and a_runs[k] == b_runs[k]:
        k += 1
    side = lambda runs: json.dumps(runs[k] if k < len(runs) else None)  # noqa: E731
    return f"run {k} {side(a_runs)} -> {side(b_runs)}"


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
    """Per workload and seed of a dump: instances, failures by exit code, and
    simplex work; one pivot-only row per ladder instance."""
    groups = {}
    for r in records:
        key = (r["workload"], r["name"] if r["workload"] == "ladder" else r["seed"])
        groups.setdefault(key, []).append(r)
    entries = []
    for (workload, which), group in groups.items():
        runs = [run for r in group for run in r["runs"]]
        if workload == "ladder":
            lps = {}
            for run in runs:
                lps.setdefault(run[0], []).append(run)
            entries.append({"workload": workload, "name": which,
                            "lps": {label: _tally(lp_runs) for label, lp_runs in lps.items()}})
            continue
        optima = [value for r in group for _, value in r["face_optima"]]
        entries.append({
            "workload": workload, "seed": which, "instances": len(group),
            "failures": dict(collections.Counter(str(r["code"]) for r in group if r["code"])),
            "simplex_runs": len(runs),
            "pivots": sum(map(_run_pivots, runs)),
            "face_lp_pivots": sum(_run_pivots(run) for run in runs if run[0].endswith(" face")),
            "lp_pivots": {label: sum(_run_pivots(run) for run in runs if run[0] == label)
                          for label in LPS},
            "methods": _tally(runs),
            "fractional_face_optima": sum(abs(value - round(value)) > FRACTIONAL for value in optima),
            "goldman_tucker_breaks": sum(_breaks_goldman_tucker(r) for r in group if r["code"] == 0),
        })
    return entries


def _breaks_goldman_tucker(record: dict) -> bool:
    """Whether a solved run has a face LP whose optimum is off its support count plus one
    by more than FRACTIONAL: n + m + 1 for the joint LP, |sigma_x| + |sigma_u| + 1 for the
    primal face's, the supports those of the run's partition."""
    for lp, value in record["face_optima"]:
        partition = record["report"]["partition"]
        counted = ("sigma_x", "sigma_u") if lp == "primal face" else partition
        if abs(value - sum(len(partition[name]) for name in counted) - 1) > FRACTIONAL:
            return True
    return False


def _tally(runs: list) -> dict:
    """Runs, basis changes, bound flips, verdicts and inversions of recorded runs, per method."""
    methods = {}
    for _, method, verdict, changes, flips, inversions in runs:
        tally = methods.setdefault(method, {"runs": 0, "basis_changes": 0, "bound_flips": 0,
                                            "verdicts": {}, "inversions": 0})
        tally["runs"] += 1
        tally["basis_changes"] += changes
        tally["bound_flips"] += flips
        tally["verdicts"][verdict] = tally["verdicts"].get(verdict, 0) + 1
        tally["inversions"] += inversions
    return methods


def _run_pivots(run: list) -> int:
    """The iterations of one recorded run: a primal run's basis changes and
    bound flips, each a step of its own, or a dual run's basis changes, whose
    bound flips ride along."""
    _, method, _, changes, flips, _ = run
    return changes + flips if method == "primal" else changes


def _pivots(records: dict, keys) -> int:
    return sum(_run_pivots(run) for k in keys for run in records[k].get("runs", ()))


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
    d.add_argument("--ladder", nargs="+", default=(), metavar="NxM",
                   help="also run the size-ladder instance of each shape, e.g. 40x40")
    d.add_argument("--out", type=Path, required=True)
    c = sub.add_parser("diff", help="compare two dumps; exit 1 on any difference")
    c.add_argument("before", type=Path)
    c.add_argument("after", type=Path)
    g = sub.add_parser("ledger", help="write a dump's failures and pivots per workload and seed")
    g.add_argument("dump", type=Path)
    g.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.command == "dump":
        records = dump(args.workloads, args.seeds, args.limit, args.ladder)
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

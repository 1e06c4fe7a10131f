"""lfpkit benchmark: closed-loop batches of `lfp-solve` runs, end to end and per layer.

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
One client in one process calls `lfpkit.cli.run` in process on generated
problem files, each call waiting for the previous one (a closed loop), with
BLAS and OpenMP pinned to one thread.  Whole passes over the workload's files
repeat until `--seconds` of calls have run, and at least MIN_PASSES times.

After every pass, outside the timed region, a correctness gate checks each
call's exit status, the partition cross-check of its JSON report and its
theta_star against HiGHS (computed in a separate process, so the measuring
process never loads scipy).  A call fails on a nonzero exit, a cross-check
that is not true or a theta_star mismatch.  `attempted` counts the workload's
instances and `failed` those with a failing call on any pass, so both depend
on the seed only, not on how many passes fit in `--seconds`.  Failures are
never dropped, and each failing instance is listed with its exit status,
error class and the number of its failing calls.  The result is `correct`
unless a call exited 0 with a wrong answer.

`--trace 0` reports the end-to-end metrics.  Each instance's time is its
median over the passes; throughput and latency are taken over the solved
instances (the time lost on failed ones is printed beside them).  The tail is
the highest of TAIL_PERCENTILES with at least TAIL_BEYOND solved instances
beyond it.  Wall times are rescaled to the machine speed that the `reference`
module measures next to them, because on a shared machine the same work can
take half as long again for tens of seconds; the unscaled figures are printed
too.  Set-up is a fresh interpreter importing the package, as every
`lfp-solve` start pays it.

`--trace 1` instead runs, for every instance, the pipeline decomposed into its
layer calls twice (with and without spans) and one `cli.run` inside a span,
and reports per-layer metrics derived from the spans, which it also writes to
`.perfbench_work/`.  These times are not rescaled.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the metric names and units are those of
BENCHMARK.json.
"""

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import generate  # noqa: E402
import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CLI_ARGS = ("--approach", "both", "--format", "json", "--validate-denominator")
MIN_PASSES = 3
SETUP_PER_PASS = 2
MIN_SETUP_SAMPLES = 12
STRETCH_S = 0.3  # seconds of calls between two runs of the reference kernel
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
THETA_RTOL = 1e-6

LAYER_SPANS = (
    "lp.stage1",
    "lp.primal_face",
    "lp.dual_face",
    "lp.joint",
    "problem.load",
    "problem.validate",
    "duality.build",
    "duality.inverse",
    "complementarity.build",
    "complementarity.recover",
    "complementarity.verify",
    "complementarity.partition",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _import_package():
    if not (SRC / "lfpkit" / "__init__.py").is_file():
        raise BenchError(f"no lfpkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lfpkit.cli

    if Path(lfpkit.__file__).resolve().parent != SRC / "lfpkit":
        raise BenchError(f"imported lfpkit from {lfpkit.__file__}, not from {SRC}")
    return lfpkit.cli


def time_setups(count: int) -> list:
    """(wall, rescaled) seconds of `count` fresh interpreters importing lfpkit and its CLI.

    Each is rescaled by the numpy-only start-up timed just before and after it.
    """
    env = _env()
    command = [sys.executable, "-c", "import lfpkit, lfpkit.cli"]
    samples = []
    before = reference.spawn_seconds(env)
    for _ in range(count):
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        taken = time.perf_counter() - started
        after = reference.spawn_seconds(env)
        samples.append((taken, taken * 2.0 * reference.SPAWN_NOMINAL_S / (before + after)))
        before = after
    return samples


class MachineSpeed:
    """Reference-kernel times taken between stretches of calls.

    A stretch's factor is NOMINAL_S over the median kernel time of the few
    runs around it, so that one disturbed kernel run does not skew it.
    """

    WINDOW = 3  # kernel runs counted on each side of a stretch

    def __init__(self):
        self.kernel = [reference.kernel_seconds()]

    def mark(self) -> int:
        """End the current stretch; returns its index."""
        self.kernel.append(reference.kernel_seconds())
        return len(self.kernel) - 2

    def factor(self, stretch: int) -> float:
        lo = max(stretch + 1 - self.WINDOW, 0)
        return reference.NOMINAL_S / statistics.median(self.kernel[lo : stretch + 1 + self.WINDOW])


def oracle_thetas(directory: Path) -> dict:
    out = directory / "oracle.json"
    subprocess.run(
        [sys.executable, str(BENCH / "oracle.py"), str(directory / "inputs"), str(out)],
        env=_env(), check=True,
    )
    return json.loads(out.read_text())


def call_cli(cli, path):
    """One in-process lfp-solve call: (exit code, seconds, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = cli.run(["--input", str(path), *CLI_ARGS])
        elapsed = time.perf_counter() - started
    return code, elapsed, out.getvalue()


def judge(name, code, stdout, thetas):
    """Correctness gate for one call: (failure reason or None, wrong answer?)."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code}, unparsable report", code == 0
    expected = thetas[name]
    theta = report.get("theta_star")
    theta_ok = theta is not None and abs(theta - expected) <= THETA_RTOL * max(1.0, abs(expected))
    if code != 0:
        return f"exit {code} ({report.get('status')})", False
    if report.get("cross_check") is not True:
        return "exit 0 without a true cross_check", True
    if not theta_ok:
        return f"exit 0 with theta_star {theta!r}, HiGHS gives {expected!r}", True
    return None, False


def tail(samples):
    """(value, percentile, samples beyond): highest listed percentile with >= 10 beyond."""
    ordered = sorted(samples)
    best = None
    for pct in TAIL_PERCENTILES:
        index = max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)
        beyond = len(ordered) - 1 - index
        if best is None or beyond >= TAIL_BEYOND:
            best = (ordered[index], pct, beyond)
    return best


class Gate:
    """Accumulates the correctness verdicts of every call in a run, by instance."""

    def __init__(self, thetas):
        self.thetas = thetas
        self.calls = 0
        self.instances = set()
        self.failures = {}  # name -> (reason, failing calls)
        self.wrong = set()

    def record(self, name, code, stdout):
        self.calls += 1
        self.instances.add(name)
        reason, wrong = judge(name, code, stdout, self.thetas)
        if reason is not None:
            previous = self.failures.get(name, (reason, 0))
            self.failures[name] = (reason, previous[1] + 1)
        if wrong:
            self.wrong.add(name)

    @property
    def attempted(self) -> int:
        return len(self.instances)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_calls(self) -> int:
        return sum(count for _, count in self.failures.values())


def untraced_run(cli, files, seconds, gate):
    """Whole passes until `seconds` of calls have run.

    Returns the wall times of each instance and of the fresh-interpreter
    set-ups (one list per instance, then one for set-up), the same rescaled
    to the reference speed, the number of passes and the kernel factors.
    A few set-ups run before each pass, so that a slow spell on the machine
    hits few samples of either kind.
    """
    time_setups(1)  # bytecode compiled before timing
    speed = MachineSpeed()
    samples = [[] for _ in files]  # (seconds, stretch) per instance
    setups = []
    elapsed, passes = 0.0, 0
    while passes < MIN_PASSES or elapsed < seconds:
        setups.extend(time_setups(SETUP_PER_PASS))
        outputs, pending, pending_s = [], [], 0.0
        for i, (name, path) in enumerate(files):
            code, taken, stdout = call_cli(cli, path)
            outputs.append((name, code, stdout))
            pending.append((i, taken))
            pending_s += taken
            elapsed += taken
            if pending_s >= STRETCH_S or i == len(files) - 1:
                stretch = speed.mark()
                for j, seconds_taken in pending:
                    samples[j].append((seconds_taken, stretch))
                pending, pending_s = [], 0.0
        for output in outputs:
            gate.record(*output)
        passes += 1
    setups.extend(time_setups(max(MIN_SETUP_SAMPLES - len(setups), 0)))
    raw = [[t for t, _ in series] for series in samples] + [[t for t, _ in setups]]
    scaled = [[t * speed.factor(k) for t, k in series] for series in samples]
    scaled.append([t for _, t in setups])
    factors = [speed.factor(k) for k in range(len(speed.kernel) - 1)]
    return raw, scaled, passes, factors


def end_to_end(files, times, gate):
    """End-to-end metrics from untraced_run's per-instance and set-up times."""
    # Each instance's median over the passes, so one slow pass does not move it.
    medians = {name: statistics.median(t) for (name, _), t in zip(files, times)}
    solved = [t for name, t in medians.items() if name not in gate.failures]
    if not solved:
        raise BenchError("no instance was solved")
    tail_value, tail_pct, beyond = tail(solved)
    values = {
        "throughput_inst_s": len(solved) / sum(solved),
        "instance_p50_s": statistics.median(solved),
        "instance_tail_s": tail_value,
        "setup_s": statistics.median(times[-1]),
    }
    failed_s = sum(medians.values()) - sum(solved)
    return values, (tail_pct, beyond, len(solved), failed_s)


def traced_run(cli, files, seconds, gate):
    """Whole traced passes until `seconds` have passed: the tracer, untimed-pipeline times, results, passes."""
    import pipeline

    tracer, plain = pipeline.Tracer(), pipeline.Tracer(enabled=False)
    untraced = {}  # instance id -> seconds of the pipeline without spans
    results = {}  # instance id -> PipelineResult
    passes, elapsed = [], 0.0
    while not passes or elapsed < seconds:
        started = time.perf_counter()
        ids, outputs = [], []
        for i, (name, path) in enumerate(files):
            iid = len(passes) * len(files) + i
            ids.append(iid)
            tracer.begin(iid)
            # Alternate which pipeline run goes first, so warm caches favour neither.
            for traced in ((True, False) if iid % 2 else (False, True)):
                if traced:
                    with tracer.span("pipeline"):
                        results[iid] = pipeline.run_pipeline(path, tracer)
                else:
                    t0 = time.perf_counter()
                    pipeline.run_pipeline(path, plain)
                    untraced[iid] = time.perf_counter() - t0
            with tracer.span("cli.run"):
                code, _, stdout = call_cli(cli, path)
            outputs.append((name, code, stdout))
        for output in outputs:
            gate.record(*output)
        passes.append(ids)
        elapsed += time.perf_counter() - started
    return tracer, untraced, results, passes


def layer_metrics(tracer, untraced, passes) -> dict:
    """Per-pass totals from the spans and counts, as the median over passes."""
    import pipeline

    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for instance, name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_pass = []
    for ids in passes:
        wanted = set(ids)
        totals = {f"{name}_s": 0.0 for name in LAYER_SPANS}
        totals.update({f"{name}_calls": 0 for name in LAYER_SPANS})
        cli_run = cli_self = pipeline_traced = 0.0
        for k, (instance, name, start, end, parent) in enumerate(spans):
            if instance not in wanted:
                continue
            duration = end - start
            if name in LAYER_SPANS:
                totals[f"{name}_s"] += duration - child_time[k]
                totals[f"{name}_calls"] += 1
            elif name == "cli.run":
                cli_run += duration
                cli_self += duration
            elif name == "pipeline":
                pipeline_traced += duration
                cli_self -= child_time[k]
        counts = {}
        for iid in ids:
            for key, value in tracer.counts[iid].items():
                counts[key] = counts.get(key, 0) + value
        lp_time = sum(totals[f"{name}_s"] for name in LAYER_SPANS if name.startswith("lp."))
        totals["lp.solves"] = counts.get("lp.solves", 0)
        totals["lp.cells"] = counts.get("lp.cells", 0)
        kinds = [f"lp.not_optimal.{kind}" for kind in pipeline.LP_KINDS]
        for key in kinds:
            totals[key] = counts.get(key, 0)
        totals["lp.not_optimal"] = sum(totals[key] for key in kinds)
        totals["lp.share_of_instance"] = lp_time / cli_run
        totals["cli.run_s"] = cli_run
        totals["cli.self_s"] = cli_self
        totals["trace.overhead_frac"] = pipeline_traced / sum(untraced[i] for i in ids) - 1.0
        per_pass.append(totals)
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def write_trace(path, tracer, files, passes):
    names = {iid: files[iid % len(files)][0] for ids in passes for iid in ids}
    doc = {
        "fields": ["instance", "name", "start", "end", "parent"],
        "instances": {str(iid): name for iid, name in names.items()},
        "spans": tracer.spans,
        "counts": {str(iid): dict(c) for iid, c in tracer.counts.items()},
    }
    path.write_text(json.dumps(doc) + "\n")


def diagnose(files, names) -> dict:
    """Exit status and error class of each failing instance, from the decomposed pipeline."""
    import pipeline

    paths = dict(files)
    return {name: pipeline.run_pipeline(paths[name], pipeline.Tracer(enabled=False)) for name in names}


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_package()

    if args.workload not in generate.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {generate.WORKLOADS}")
    units = declared_metrics(bool(args.trace))
    directory = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    files = generate.write_instances(args.workload, args.seed, directory / "inputs")
    gate = Gate(oracle_thetas(directory))

    call_cli(cli, files[0][1])  # warm-up, untimed
    lines = [f"workload {args.workload} seed {args.seed}: {len(files)} instances, "
             f"closed loop, 1 client, 1 process, BLAS threads 1"]
    if args.trace:
        tracer, untraced, results, passes = traced_run(cli, files, args.seconds, gate)
        write_trace(WORK / f"trace-{args.workload}-{args.seed}.json", tracer, files, passes)
        values = layer_metrics(tracer, untraced, passes)
        lines.append(f"traced passes {len(passes)}, {len(tracer.spans)} spans")
        lines.append(
            f"lp.* share of instance time: {values['lp.share_of_instance']:.3f} "
            f"(lp.* {sum(values[f'{n}_s'] for n in LAYER_SPANS if n.startswith('lp.')):.4f} s "
            f"of cli.run {values['cli.run_s']:.4f} s per pass)"
        )
        first_pass = {name: results[iid] for (name, _), iid in zip(files, passes[0])}
        diagnosis = {name: first_pass[name] for name in gate.failures}
    else:
        raw, scaled, passes, factors = untraced_run(cli, files, args.seconds, gate)
        values, (tail_pct, beyond, solved, failed_s) = end_to_end(files, scaled, gate)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        unscaled, _ = end_to_end(files, raw, gate)
        lines.append(f"passes {passes}; pass wall seconds {[round(sum(p), 3) for p in zip(*raw[:-1])]}")
        lines.append(
            f"machine speed factors: median {statistics.median(factors):.4f}, "
            f"min {min(factors):.4f}, max {max(factors):.4f} ({len(factors)} stretches)"
        )
        lines.append(
            "unscaled wall times: "
            + ", ".join(f"{name} {value:.6g}" for name, value in unscaled.items())
        )
        lines.append(
            f"instance_tail_s is p{tail_pct:g} of {solved} solved instances "
            f"(each its median over the passes), {beyond} beyond it"
        )
        lines.append(f"failed instances took {failed_s:.4g} s per pass, not counted in throughput")
        diagnosis = diagnose(files, gate.failures)

    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    for name, unit in units.items():
        lines.append(f"{name} {values[name]:.6g} {unit}")
    fail_frac = gate.failed / gate.attempted
    lines.append(
        f"fail_frac {fail_frac:.6g} ratio ({gate.failed} of {gate.attempted} instances; "
        f"{gate.failed_calls} of {gate.calls} calls)"
    )
    for name, (reason, count) in sorted(gate.failures.items()):
        result = diagnosis[name]
        lines.append(
            f"failed {name} in {count} calls: {reason}; "
            f"pipeline exit {result.exit_code} {result.error_class}"
        )
    for name in sorted(gate.wrong):
        lines.append(f"WRONG ANSWER {name}")
    print("\n".join(lines))
    result = {
        "correct": not gate.wrong,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

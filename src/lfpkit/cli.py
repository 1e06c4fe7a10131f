"""Batch command-line front end.

Loads a problem file, runs stage 1 (the optimal value) and the selected
approach(es), verifies complementarity and strictness, and writes one report
to standard output, as text or as JSON.  Diagnostics go to standard error.

Exit codes: 0 success, 2 empty region, 3 unbounded objective or failed
denominator assumption, 4 input error, 5 numerical failure (iteration cap or
other simplex breakdown, degenerate recovery, failed verification).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field, fields

from .complementarity import (
    CscReport,
    OptimalPartition,
    ScscReport,
    StrictComplementarySolution,
    approach_one,
    approach_two,
    optimal_partitions,
    verify_csc,
    verify_scsc,
)
from .duality import solve_theta_star
from .errors import (
    DegenerateNormalizer,
    DegenerateT,
    DimensionError,
    InfeasibleRegion,
    IterationLimitError,
    NonpositiveDenominator,
    ParseError,
    PartitionViolation,
    UnboundedObjective,
    UnboundedValidation,
)
from .interior import DEFAULT_POS_TOL
from .lp import SolverOptions
from .problem import load_problem, validate_denominator

__all__ = ["RunReport", "ApproachResult", "run", "main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_INPUT = 4
EXIT_NUMERICAL = 5


@dataclass
class ApproachResult:
    solution: StrictComplementarySolution
    csc: CscReport
    scsc: ScscReport
    partition: OptimalPartition | None  # None when the supports fail to partition

    @property
    def ok(self) -> bool:
        return self.csc.ok and self.scsc.ok and self.partition is not None


@dataclass
class RunReport:
    """Everything one invocation computed, in output-ready form."""

    status: str
    theta_star: float | None = None
    approaches: dict = field(default_factory=dict)  # name -> ApproachResult
    partition: OptimalPartition | None = None
    cross_check: bool | None = None  # present iff both approaches ran
    denominator_min: float | None = None
    timings: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        doc = {"status": self.status}
        if self.error is not None:
            doc["error"] = self.error
        if self.theta_star is not None:
            doc["theta_star"] = self.theta_star
        doc["approaches"] = {
            name: _approach_dict(result) for name, result in self.approaches.items()
        }
        doc["partition"] = _partition_dict(self.partition)
        if self.cross_check is not None:  # present iff both approaches ran
            doc["cross_check"] = self.cross_check
        if self.denominator_min is not None:
            doc["denominator_min"] = self.denominator_min
        doc["timings"] = dict(self.timings)
        doc["warnings"] = list(self.warnings)
        return doc


def _fields(record) -> dict:
    """A dataclass's fields by name, in order; unlike `asdict`, nothing is copied."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _partition_dict(partition: OptimalPartition | None) -> dict | None:
    if partition is None:
        return None
    return {name: sorted(members) for name, members in _fields(partition).items()}


def _approach_dict(result: ApproachResult) -> dict:
    sol = result.solution
    return {
        "x": sol.primal.x.tolist(),
        "u": sol.primal.u.tolist(),
        "t": sol.t_star,
        "y": sol.dual.y.tolist(),
        "z": sol.dual.z,
        "v": sol.dual.v.tolist(),
        "csc": _fields(result.csc),
        "scsc": _fields(result.scsc),
    }


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _fmt_vec(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def format_text(report: RunReport) -> str:
    lines = []
    if report.theta_star is not None:
        lines.append(f"theta_star = {_fmt(report.theta_star)}")
    for name, result in report.approaches.items():
        sol = result.solution
        lines.append("")
        lines.append(f"approach {name}")
        lines.append(f"  x = {_fmt_vec(sol.primal.x)}   u = {_fmt_vec(sol.primal.u)}   t = {_fmt(sol.t_star)}")
        lines.append(f"  y = {_fmt_vec(sol.dual.y)}   z = {_fmt(sol.dual.z)}   v = {_fmt_vec(sol.dual.v)}")
        lines.append(
            f"  csc : x.v = {_fmt(result.csc.primal_inner)}, y.u = {_fmt(result.csc.dual_inner)}"
            f" -> {'pass' if result.csc.ok else 'FAIL'}"
        )
        scsc_line = (
            f"  scsc: min(x+v) = {_fmt(result.scsc.min_primal_sum)},"
            f" min(y+u) = {_fmt(result.scsc.min_dual_sum)}"
            f" -> {'pass' if result.scsc.ok else 'FAIL'}"
        )
        if not result.scsc.ok:
            scsc_line += (
                f" (failing primal {list(result.scsc.failing_primal)},"
                f" dual {list(result.scsc.failing_dual)})"
            )
        lines.append(scsc_line)
    if report.partition is not None:
        lines.append("")
        lines.append("partition")
        for name, members in _fields(report.partition).items():
            lines.append(f"  {name} = {_fmt_set(members)}")
    if report.cross_check is not None:
        lines.append("")
        lines.append(f"cross_check: {'pass (partitions agree)' if report.cross_check else 'FAIL (partitions differ)'}")
    if report.denominator_min is not None:
        lines.append(f"denominator_min: {_fmt(report.denominator_min)}")
    for message in report.warnings:
        lines.append(f"warning: {message}")
    if report.timings:
        stamps = ", ".join(f"{k} {v:.3f}s" for k, v in report.timings.items())
        lines.append(f"timings: {stamps}")
    if report.error is not None:
        lines.append(f"error: {report.error}")
    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"


def format_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfp-solve",
        description="Solve a linear fractional program and report a strict "
        "complementary primal-dual solution with its optimal partition.",
    )
    parser.add_argument("--input", required=True, metavar="FILE", help="problem file (JSON)")
    parser.add_argument(
        "--approach", choices=("one", "two", "both"), default="both",
        help="which solution procedure to run (default: both, with a partition cross-check)",
    )
    parser.add_argument(
        "--tol", type=float, default=SolverOptions.feas_tol,
        help="feasibility/optimality tolerance (default %(default)g)",
    )
    parser.add_argument(
        "--pos-tol", type=float, default=DEFAULT_POS_TOL,
        help="support positivity threshold (default %(default)g)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", help="report format (default text)")
    parser.add_argument(
        "--validate-denominator", action="store_true",
        help="also certify min(d.x + beta) > 0 over the whole region (one extra LP solve)",
    )
    return parser


def _emit(report: RunReport, fmt: str, stream) -> None:
    stream.write(format_json(report) if fmt == "json" else format_text(report))


def _run_approach(runner, problem, opts, pos_tol, report, name, **kwargs):
    started = time.perf_counter()
    solution = runner(problem, opts, **kwargs)
    report.timings[f"approach_{name}"] = time.perf_counter() - started
    csc = verify_csc(solution)
    scsc = verify_scsc(solution, pos_tol)
    partition = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            partition = optimal_partitions(solution, pos_tol)
        except PartitionViolation as exc:
            report.warnings.append(f"approach {name}: {exc}")
        report.warnings.extend(str(w.message) for w in caught)
    report.approaches[name] = ApproachResult(solution, csc, scsc, partition)


def run(argv) -> int:
    """Execute one batch run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse already printed its diagnostics; --help exits with code 0.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    fmt = args.format
    report = RunReport(status="ok")

    try:
        try:
            problem = load_problem(args.input)
        except OSError as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from None
        opts = SolverOptions(feas_tol=args.tol, opt_tol=args.tol)
        if not (math.isfinite(args.pos_tol) and args.pos_tol > 0):
            raise ValueError(f"--pos-tol must be finite and positive, got {args.pos_tol!r}")

        if args.validate_denominator:
            report.denominator_min = validate_denominator(problem, opts)
            if report.denominator_min <= opts.feas_tol:
                report.status = "denominator_nonpositive"
                report.error = (
                    f"min denominator over the region is {report.denominator_min:g}"
                )
                _emit(report, fmt, sys.stdout)
                return EXIT_UNBOUNDED

        if args.approach in ("one", "both"):
            started = time.perf_counter()
            report.theta_star = solve_theta_star(problem, opts)
            report.timings["stage1"] = time.perf_counter() - started
            _run_approach(
                approach_one, problem, opts, args.pos_tol, report, "one",
                theta_star=report.theta_star,
            )
        if args.approach in ("two", "both"):
            _run_approach(approach_two, problem, opts, args.pos_tol, report, "two")
            if report.theta_star is None:
                report.theta_star = report.approaches["two"].solution.theta_star

        partitions = [r.partition for r in report.approaches.values()]
        report.partition = partitions[0]
        if len(partitions) == 2:
            report.cross_check = (
                partitions[0] is not None and partitions[0] == partitions[1]
            )

        all_ok = all(r.ok for r in report.approaches.values())
        if not all_ok or report.cross_check is False:
            report.status = "verification_failed"
            _emit(report, fmt, sys.stdout)
            return EXIT_NUMERICAL
        _emit(report, fmt, sys.stdout)
        return EXIT_OK

    except (ParseError, DimensionError, ValueError) as exc:
        return _fail(report, fmt, "input_error", exc, EXIT_INPUT)
    except InfeasibleRegion as exc:
        return _fail(report, fmt, "infeasible", exc, EXIT_INFEASIBLE)
    except (UnboundedObjective, UnboundedValidation, NonpositiveDenominator, DegenerateT) as exc:
        return _fail(report, fmt, "unbounded_or_denominator", exc, EXIT_UNBOUNDED)
    except (IterationLimitError, DegenerateNormalizer) as exc:
        return _fail(report, fmt, "numerical_failure", exc, EXIT_NUMERICAL)


def _fail(report: RunReport, fmt: str, status: str, exc: Exception, code: int) -> int:
    report.status = status
    report.error = str(exc)
    print(f"lfp-solve: {exc}", file=sys.stderr)
    _emit(report, fmt, sys.stdout)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

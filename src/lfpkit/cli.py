"""Batch command-line front end.

Loads a problem file, runs stage 1 (the optimal value) and the selected
approach(es), verifies complementarity and strictness, and writes one report
to standard output, as text or as JSON.  Diagnostics go to standard error.
The report is one JSON document in both modes; text mode renders it.
Each approach's pair is judged once by `complementarity._judge`, the rule by
which approach one's stage-1 route also accepts a pair.  An approach whose
supports fail to partition adds one entry to the report's `warnings`: its
`PartitionViolation` message, which gives both members' values at each index
it names.
Every run uses the same tolerances: `SolverOptions`' defaults for the LP
solves and `DEFAULT_POS_TOL` for strictness and the partition.

Exit codes: 0 success, 2 no feasible point with a positive denominator (the
region is empty, or the denominator assumption fails everywhere on it; with
`--validate-denominator` the latter exits 3), 3 unbounded objective or failed
denominator assumption, 4 input error, 5 numerical failure (iteration cap or
other simplex breakdown, degenerate recovery, failed verification).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import fields

from .complementarity import _judge, approach_one, approach_two
from .duality import _stage1
from .errors import (
    DegenerateNormalizer,
    DegenerateT,
    DimensionError,
    InfeasibleRegion,
    IterationLimitError,
    NonpositiveDenominator,
    ParseError,
    UnboundedObjective,
    UnboundedValidation,
)
from .lp import SolverOptions
from .problem import load_problem, validate_denominator

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_INPUT = 4
EXIT_NUMERICAL = 5

# Each error group's status and exit code; no exception belongs to two groups.
_FAILURES = {
    (ParseError, DimensionError, ValueError): ("input_error", EXIT_INPUT),
    (InfeasibleRegion,): ("infeasible", EXIT_INFEASIBLE),
    (UnboundedObjective, UnboundedValidation, NonpositiveDenominator, DegenerateT): (
        "unbounded_or_denominator", EXIT_UNBOUNDED,
    ),
    (IterationLimitError, DegenerateNormalizer): ("numerical_failure", EXIT_NUMERICAL),
}
_FAILING = tuple(cls for group in _FAILURES for cls in group)


def _fields(record) -> dict:
    """A dataclass's fields by name, in order; unlike `asdict`, nothing is copied."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _fmt_vec(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def format_text(doc: dict) -> str:
    """Render a report document, the numbers with 6 significant digits."""
    lines = []
    if "theta_star" in doc:
        lines.append(f"theta_star = {_fmt(doc['theta_star'])}")
    for name, result in doc["approaches"].items():
        csc, scsc = result["csc"], result["scsc"]
        lines.append("")
        lines.append(f"approach {name}")
        lines.append(f"  x = {_fmt_vec(result['x'])}   u = {_fmt_vec(result['u'])}   t = {_fmt(result['t'])}")
        lines.append(f"  y = {_fmt_vec(result['y'])}   z = {_fmt(result['z'])}   v = {_fmt_vec(result['v'])}")
        lines.append(
            f"  csc : x.v = {_fmt(csc['primal_inner'])}, y.u = {_fmt(csc['dual_inner'])}"
            f" -> {'pass' if csc['ok'] else 'FAIL'}"
        )
        scsc_line = (
            f"  scsc: min(x+v) = {_fmt(scsc['min_primal_sum'])},"
            f" min(y+u) = {_fmt(scsc['min_dual_sum'])}"
            f" -> {'pass' if scsc['ok'] else 'FAIL'}"
        )
        if not scsc["ok"]:
            scsc_line += (
                f" (failing primal {list(scsc['failing_primal'])},"
                f" dual {list(scsc['failing_dual'])})"
            )
        lines.append(scsc_line)
    if doc["partition"] is not None:
        lines.append("")
        lines.append("partition")
        for name, members in doc["partition"].items():
            lines.append(f"  {name} = {_fmt_set(members)}")
    if "cross_check" in doc:
        lines.append("")
        lines.append(f"cross_check: {'pass (partitions agree)' if doc['cross_check'] else 'FAIL (partitions differ)'}")
    if "denominator_min" in doc:
        lines.append(f"denominator_min: {_fmt(doc['denominator_min'])}")
    for message in doc["warnings"]:
        lines.append(f"warning: {message}")
    if doc["timings"]:
        stamps = ", ".join(f"{k} {v:.3f}s" for k, v in doc["timings"].items())
        lines.append(f"timings: {stamps}")
    if "error" in doc:
        lines.append(f"error: {doc['error']}")
    lines.append(f"status: {doc['status']}")
    return "\n".join(lines) + "\n"


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
    parser.add_argument("--format", choices=("text", "json"), default="text", help="report format (default text)")
    parser.add_argument(
        "--validate-denominator", action="store_true",
        help="also certify min(d.x + beta) > 0 over the whole region (one extra LP solve)",
    )
    return parser


def _run_approach(runner, problem, doc, name, **kwargs):
    """Add one approach's block to `doc`, and its theta_star where stage 1 set none;
    returns its partition (None when the supports fail to partition) and whether
    `_judge` accepts its pair."""
    started = time.perf_counter()
    solution = runner(problem, **kwargs)
    doc["timings"][f"approach_{name}"] = time.perf_counter() - started
    csc, scsc, partition, accepted = _judge(solution)
    if doc["theta_star"] is None:
        doc["theta_star"] = solution.theta_star
    doc["approaches"][name] = {
        "x": solution.primal.x.tolist(),
        "u": solution.primal.u.tolist(),
        "t": solution.t_star,
        "y": solution.dual.y.tolist(),
        "z": solution.dual.z,
        "v": solution.dual.v.tolist(),
        "csc": _fields(csc),
        "scsc": _fields(scsc),
    }
    if isinstance(partition, str):
        doc["warnings"].append(f"approach {name}: {partition}")
        return None, accepted
    return {key: sorted(members) for key, members in _fields(partition).items()}, accepted


def _solve(args, doc: dict) -> int:
    """Fill `doc` for one parsed command line; returns the exit code or raises."""
    try:
        problem = load_problem(args.input)
    except OSError as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from None

    if args.validate_denominator:
        doc["denominator_min"] = validate_denominator(problem)
        if doc["denominator_min"] <= SolverOptions.feas_tol:
            doc["status"] = "denominator_nonpositive"
            doc["error"] = f"min denominator over the region is {doc['denominator_min']:g}"
            return EXIT_UNBOUNDED

    verdicts = []
    if args.approach in ("one", "both"):
        started = time.perf_counter()
        stage1 = _stage1(problem)
        doc["theta_star"] = stage1.objective
        doc["timings"]["stage1"] = time.perf_counter() - started
        verdicts.append(_run_approach(approach_one, problem, doc, "one", stage1=stage1))
    if args.approach in ("two", "both"):
        verdicts.append(_run_approach(approach_two, problem, doc, "two"))

    partitions, accepted = zip(*verdicts)
    doc["partition"] = partitions[0]
    if len(partitions) == 2:
        doc["cross_check"] = partitions[0] is not None and partitions[0] == partitions[1]
    if not all(accepted) or doc["cross_check"] is False:
        doc["status"] = "verification_failed"
        return EXIT_NUMERICAL
    return EXIT_OK


def run(argv) -> int:
    """Execute one batch run; returns the process exit code."""
    try:
        args = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        # argparse already printed its diagnostics; --help exits with code 0.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    # README's keys in README's order; a key other than `partition` is left out while None.
    doc = {"status": "ok", "error": None, "theta_star": None, "approaches": {}, "partition": None,
           "cross_check": None, "denominator_min": None, "timings": {}, "warnings": []}
    try:
        code = _solve(args, doc)
    except _FAILING as exc:
        doc["status"], code = next(v for group, v in _FAILURES.items() if isinstance(exc, group))
        doc["error"] = str(exc)
        print(f"lfp-solve: {exc}", file=sys.stderr)
    doc = {key: value for key, value in doc.items() if value is not None or key == "partition"}
    sys.stdout.write(json.dumps(doc) + "\n" if args.format == "json" else format_text(doc))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""The `lfp-solve --approach both --validate-denominator` pipeline, call by call.

`run_pipeline` performs what `lfpkit.cli.run` performs, through the package's
public functions, with a span around each call into a layer.  The layers are
the package modules; `interior` is not on this path and `errors` does no work.
Tracing lives here, not in the package.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass

from lfpkit.complementarity import (
    StrictComplementarySolution,
    build_dual_interior_lp,
    build_joint_lp,
    build_primal_interior_lp,
    optimal_partitions,
    recover_dual_interior,
    recover_primal_interior,
    verify_csc,
    verify_scsc,
)
from lfpkit.duality import TransformedPoint, build_transformed_lp, charnes_cooper_inverse
from lfpkit.errors import (
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
from lfpkit.lp import SolverOptions, SolveStatus, solve_lp
from lfpkit.problem import DualPoint, load_problem, validate_denominator

# The command-line defaults of --tol and --pos-tol.
OPTS = SolverOptions(feas_tol=1e-9, opt_tol=1e-9)
POS_TOL = 1e-7

LP_KINDS = ("stage1", "primal_face", "dual_face", "joint")

# Exit status of lfp-solve for each error it reports.
EXIT_CODES = {
    ParseError: 4,
    DimensionError: 4,
    ValueError: 4,
    InfeasibleRegion: 2,
    UnboundedObjective: 3,
    UnboundedValidation: 3,
    NonpositiveDenominator: 3,
    DegenerateT: 3,
    IterationLimitError: 5,
    DegenerateNormalizer: 5,
}


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([tracer.instance, self.name, time.perf_counter(), None, parent])
        tracer.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][3] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """Spans and counts kept in memory, one instance id per pipeline run.

    A span is [instance, name, start, end, parent], parent being the index of
    the enclosing span or -1.  A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}  # instance -> Counter
        self.instance = None

    def begin(self, instance: int) -> None:
        self.instance = instance
        if self.enabled:
            self.counts[instance] = Counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[self.instance][name] += amount


@dataclass(frozen=True)
class PipelineResult:
    exit_code: int
    error_class: str | None = None
    theta_star: float | None = None
    partition: dict | None = None


def _solve(kind, lp, tracer):
    # validate_denominator builds and solves its LP inside the problem layer,
    # so that solve counts under problem.validate_s and not in these counts.
    tracer.count("lp.solves")
    tracer.count("lp.cells", lp.num_rows * lp.num_vars)
    with tracer.span(f"lp.{kind}"):
        out = solve_lp(lp, OPTS)
    if not out.is_optimal:
        tracer.count(f"lp.not_optimal.{kind}")
    return out


def _require_optimal(out, label):
    if not out.is_optimal:
        raise IterationLimitError(f"{label} solve ended with status {out.status.value}")
    return out


def _stage1(problem, tracer) -> float:
    with tracer.span("duality.build"):
        lp = build_transformed_lp(problem)
    out = _solve("stage1", lp, tracer)
    if out.status is SolveStatus.INFEASIBLE:
        raise InfeasibleRegion("no feasible point with a positive denominator")
    if out.status is SolveStatus.UNBOUNDED:
        raise UnboundedObjective("the ratio objective grows without bound")
    if out.status is SolveStatus.ITERATION_LIMIT:
        raise IterationLimitError("the stage-1 solve hit the iteration cap")
    return float(out.objective)


def _approach_one(problem, theta, tracer) -> StrictComplementarySolution:
    with tracer.span("complementarity.build"):
        lp = build_primal_interior_lp(problem, theta)
    out = _require_optimal(_solve("primal_face", lp, tracer), "primal face")
    with tracer.span("complementarity.recover"):
        tp = recover_primal_interior(problem, out, OPTS.feas_tol)
    with tracer.span("complementarity.build"):
        lp = build_dual_interior_lp(problem, theta)
    out = _require_optimal(_solve("dual_face", lp, tracer), "dual face")
    with tracer.span("complementarity.recover"):
        dual = recover_dual_interior(problem, out, OPTS.feas_tol)
    with tracer.span("duality.inverse"):
        primal = charnes_cooper_inverse(tp, OPTS.feas_tol)
    return StrictComplementarySolution(primal, tp.t, dual, theta)


def _approach_two(problem, tracer) -> StrictComplementarySolution:
    with tracer.span("complementarity.build"):
        lp = build_joint_lp(problem)
    out = _require_optimal(_solve("joint", lp, tracer), "joint face")
    # approach_two recovers the point inline, with no public function to time;
    # this mirrors it on the joint LP's column order and stays untimed.
    m, n = problem.num_rows, problem.num_vars
    first = 2 * n + 2 * m + 3
    z = out.point
    w_total = float(z[first - 1] + z[-1])
    if w_total <= OPTS.feas_tol:
        _stage1(problem, tracer)  # approach_two re-runs stage 1 to classify
        raise DegenerateNormalizer("joint face recovery found a zero scaling weight")
    tp = TransformedPoint(
        (z[0:n] + z[first : first + n]) / w_total,
        float(z[n]) / w_total,
        (z[n + 1 : n + 1 + m] + z[first + n : first + n + m]) / w_total,
    )
    zed = float(z[n + 1 + 2 * m]) / w_total
    dual = DualPoint(
        (z[n + 1 + m : n + 1 + 2 * m] + z[first + n + m : first + n + 2 * m]) / w_total,
        zed,
        (z[n + 2 + 2 * m : 2 * n + 2 + 2 * m] + z[first + n + 2 * m : first + 2 * n + 2 * m]) / w_total,
    )
    with tracer.span("duality.inverse"):
        primal = charnes_cooper_inverse(tp, OPTS.feas_tol)
    return StrictComplementarySolution(primal, tp.t, dual, zed)


def _check(sol, tracer):
    """(verified, partition or None), as the command line judges one approach."""
    with tracer.span("complementarity.verify"):
        csc, scsc = verify_csc(sol), verify_scsc(sol, POS_TOL)
    with tracer.span("complementarity.partition"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                partition = optimal_partitions(sol, POS_TOL)
            except PartitionViolation:
                partition = None
    return csc.ok and scsc.ok and partition is not None, partition


def run_pipeline(path, tracer: Tracer) -> PipelineResult:
    """One instance through every layer, in the order lfp-solve calls them."""
    try:
        with tracer.span("problem.load"):
            problem = load_problem(path)
        with tracer.span("problem.validate"):
            den_min = validate_denominator(problem, OPTS)
        if den_min <= OPTS.feas_tol:
            return PipelineResult(3, "denominator_nonpositive")
        theta = _stage1(problem, tracer)
        ok_one, part_one = _check(_approach_one(problem, theta, tracer), tracer)
        ok_two, part_two = _check(_approach_two(problem, tracer), tracer)
    except tuple(EXIT_CODES) as exc:
        code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        return PipelineResult(code, type(exc).__name__)
    partition = None
    if part_one is not None:
        partition = {
            key: sorted(getattr(part_one, key))
            for key in ("sigma_x", "sigma_v", "sigma_u", "sigma_y")
        }
    if ok_one and ok_two and part_one == part_two:
        return PipelineResult(0, None, theta, partition)
    return PipelineResult(5, "verification_failed", theta, partition)

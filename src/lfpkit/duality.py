"""Charnes-Cooper transformation and the LP dual of the ratio problem.

Scaling by t = 1/(d.x + beta) turns the ratio objective into the linear
objective c.xbar + alpha t over

    Xbar = {(xbar, t) | A xbar <= b t,  d.xbar + beta t = 1,  xbar >= 0, t >= 0},

a correspondence that is one-to-one as long as the denominator stays
positive.  The dual of that LP,

    min z   s.t.  A'y + d z >= c,  -b.y + beta z = alpha,  y >= 0, z free,

shares its optimal value, written theta_star throughout the package.

Column orders are part of the contract: transformed LPs order variables as
(xbar_1..xbar_n, t) and dual LPs as (y_1..y_m, z), so downstream builders can
index columns deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateT, InfeasibleRegion, NonpositiveDenominator, UnboundedObjective
from .lp import LinearProgram, LPOutcome, Sense, SolveStatus, SolverOptions, _frozen, _judged, _solved
from .problem import LFPProblem, PrimalPoint

__all__ = [
    "TransformedPoint",
    "charnes_cooper_forward",
    "charnes_cooper_inverse",
    "build_transformed_lp",
    "build_dual_lp",
    "solve_theta_star",
]


@dataclass(frozen=True)
class TransformedPoint:
    """A point (xbar, t) of the transformed region with its slacks ubar = b t - A xbar."""

    x_bar: np.ndarray
    t: float
    u_bar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_bar", _frozen(self.x_bar))
        object.__setattr__(self, "u_bar", _frozen(self.u_bar))
        object.__setattr__(self, "t", float(self.t))


def charnes_cooper_forward(problem: LFPProblem, x) -> TransformedPoint:
    """Map x to (xbar, t, ubar) with t = 1/(d.x + beta) and xbar = t x."""
    x = np.asarray(x, dtype=float)
    den = float(problem.d @ x + problem.beta)
    if den <= SolverOptions.feas_tol:
        raise NonpositiveDenominator(f"denominator {den:g} is not positive at this point")
    t = 1.0 / den
    x_bar = t * x
    return TransformedPoint(x_bar, t, problem.b * t - problem.A @ x_bar)


def charnes_cooper_inverse(tp: TransformedPoint, feas_tol: float = SolverOptions.feas_tol) -> PrimalPoint:
    """Map (xbar, t, ubar) back to the original variables: x = xbar/t, u = ubar/t."""
    if tp.t <= feas_tol:
        raise DegenerateT(
            f"t = {tp.t:g} is not positive; the point has no finite preimage"
        )
    return PrimalPoint(tp.x_bar / tp.t, tp.u_bar / tp.t)


def build_transformed_lp(problem: LFPProblem) -> LinearProgram:
    """LP over (xbar_1..xbar_n, t): maximize c.xbar + alpha t on the scaled region."""
    return LinearProgram(
        Sense.MAXIMIZE,
        np.concatenate((problem.c, (problem.alpha,))),
        A_ub=np.concatenate((problem.A, -problem.b[:, None]), axis=1),
        b_ub=np.zeros(problem.num_rows),
        A_eq=np.concatenate((problem.d, (problem.beta,)))[None, :],
        b_eq=[1.0],
    )


def build_dual_lp(problem: LFPProblem) -> LinearProgram:
    """LP over (y_1..y_m, z): minimize z subject to dual feasibility.

    The rows A'y + d z >= c are stored negated, as -(A'y + d z) <= -c.  The
    normalization row -b.y + beta z = alpha is kept as an equality: its
    primal counterpart t is positive at optimality, so the inequality form
    would be tight anyway.
    """
    m = problem.num_rows
    objective, lo = np.zeros(m + 1), np.zeros(m + 1)
    objective[m], lo[m] = 1.0, -np.inf
    return LinearProgram(
        Sense.MINIMIZE,
        objective,
        A_ub=-np.concatenate((problem.A.T, problem.d[:, None]), axis=1),
        b_ub=-problem.c,
        A_eq=np.concatenate((-problem.b, (problem.beta,)))[None, :],
        b_eq=[problem.alpha],
        lo=lo,
    )


def solve_theta_star(problem: LFPProblem) -> float:
    """Shared optimal value of the transformed LP and its dual.

    Solved on the transformed (primal) side.  Raises InfeasibleRegion when the
    scaled region is empty, which covers both an empty constraint region and a
    denominator that is nonpositive throughout it.
    """
    return float(_stage1(problem).objective)


def _stage1(problem: LFPProblem, out: LPOutcome | None = None) -> LPOutcome:
    """The stage-1 outcome `out`, solved here if not given, once it is known to be
    OPTIMAL; raises as `solve_theta_star` does on any other verdict."""
    faults = {
        SolveStatus.INFEASIBLE: InfeasibleRegion(
            "no feasible point with a positive denominator; the region is empty "
            "or the denominator assumption fails everywhere on it"
        ),
        SolveStatus.UNBOUNDED: UnboundedObjective("the ratio objective grows without bound"),
    }
    if out is None:
        return _solved("stage 1", build_transformed_lp(problem), faults=faults)
    return _judged("stage 1", out, faults)

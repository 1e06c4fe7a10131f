"""Strict complementary primal-dual solutions and the optimal partition.

An optimal primal-dual pair always satisfies complementary slackness,
x.v = 0 and y.u = 0.  A *strict* complementary solution additionally has
x + v > 0 componentwise and y + u > 0 componentwise, so each complementary
pair has exactly one positive member.  Such a pair always exists (the
Goldman-Tucker theorem, carried through the Charnes-Cooper scaling), and its
supports induce the unique optimal partition of the variable and row index
sets: sigma_x / sigma_v split {1..n}, sigma_u / sigma_y split {1..m}.

Finding one reduces to finding relative interior points of the optimal faces
of the transformed LP and its dual.  Each face is the LP that `duality` builds,
in the standard form `solve_lp` pivots on, plus one row objective . x =
theta_star.  The one support-maximizing LP of `interior` is built over a face
(`build_primal_interior_lp`, `build_dual_interior_lp`, `build_joint_lp`), its
optimum is normalized back onto the face by `interior`, and the face point is
cut into named blocks (`recover_primal_interior`, `recover_dual_interior`).
Both routes solve the LPs these builders return; `approach_one` recovers
through the two public recoveries, `approach_two` cuts its joint point itself:

* `approach_one` pins the optimal value theta_star first (one stage-1 solve),
  then solves one support-maximizing LP per face, two LPs in total.  Prefer
  it when only the primal or only the dual half is needed.
* `approach_two` couples both faces through the optimality row
  c.xbar + alpha t - z = 0 and solves a single, larger LP; no prior
  theta_star is needed and the optimal value falls out as the recovered z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .duality import TransformedPoint, build_dual_lp, build_transformed_lp, charnes_cooper_inverse, solve_theta_star
from .errors import DegenerateNormalizer, EmptyPolyhedron, NumericalWarning, PartitionViolation
from .interior import DEFAULT_POS_TOL, Polyhedron, _normalize, _solve_maximal_element_lp, _support_maximizing_lp
from .lp import LinearProgram, LPOutcome, SolverOptions, _standard_form
from .problem import DualPoint, LFPProblem, PrimalPoint

__all__ = [
    "StrictComplementarySolution",
    "OptimalPartition",
    "CscReport",
    "ScscReport",
    "build_primal_interior_lp",
    "build_dual_interior_lp",
    "build_joint_lp",
    "recover_primal_interior",
    "recover_dual_interior",
    "approach_one",
    "approach_two",
    "verify_csc",
    "verify_scsc",
    "optimal_partitions",
    "primal_optimal_face",
    "dual_optimal_face",
    "joint_optimal_face",
]

DEFAULT_CSC_TOL = 1e-7


@dataclass(frozen=True)
class StrictComplementarySolution:
    """An optimal primal-dual pair produced by one of the two approaches.

    Carries the original-variable primal point (x, u), the scaling value
    t_star it came from, the dual point (y, z, v), and the shared optimal
    value theta_star.  Whether the pair really is strictly complementary is
    checked by `verify_csc` / `verify_scsc`, not enforced here, so that
    near-miss candidates can be represented and reported.
    """

    primal: PrimalPoint
    t_star: float
    dual: DualPoint
    theta_star: float

    def __post_init__(self):
        if self.primal.x.size != self.dual.v.size:
            raise ValueError("x and v must have the same length")
        if self.primal.u.size != self.dual.y.size:
            raise ValueError("u and y must have the same length")
        object.__setattr__(self, "t_star", float(self.t_star))
        object.__setattr__(self, "theta_star", float(self.theta_star))


@dataclass(frozen=True)
class OptimalPartition:
    """Supports of (x, v) over {1..n} and of (u, y) over {1..m}, 1-based."""

    sigma_x: frozenset
    sigma_v: frozenset
    sigma_u: frozenset
    sigma_y: frozenset

    def __post_init__(self):
        for name in ("sigma_x", "sigma_v", "sigma_u", "sigma_y"):
            object.__setattr__(self, name, frozenset(int(j) for j in getattr(self, name)))


@dataclass(frozen=True)
class CscReport:
    """Both complementarity inner products and the pass verdict."""

    primal_inner: float  # x . v
    dual_inner: float  # y . u
    tol: float
    ok: bool


@dataclass(frozen=True)
class ScscReport:
    """Componentwise minimum of each complementary sum, with failing indices."""

    min_primal_sum: float  # min_j (x_j + v_j)
    min_dual_sum: float  # min_i (y_i + u_i)
    failing_primal: tuple  # 1-based j with x_j + v_j <= tol
    failing_dual: tuple  # 1-based i with y_i + u_i <= tol
    tol: float
    ok: bool


# ---------------------------------------------------------------------------
# The optimal faces as polyhedra, and the support-maximizing LPs over them.
# ---------------------------------------------------------------------------


def _optimal_face(lp: LinearProgram, value: float) -> Polyhedron:
    """`lp`'s standard form plus the row `objective . x = value`; columns with lo = -inf are free.

    Coordinates are the LP's columns and then one slack per inequality row.
    """
    A, b, lo, _ = _standard_form(lp)
    value_row = np.zeros(A.shape[1])
    value_row[: lp.num_vars] = lp.objective
    return Polyhedron(np.vstack([A, value_row]), np.append(b, value), lo == -np.inf)


def primal_optimal_face(problem: LFPProblem, theta_star: float) -> Polyhedron:
    """Optimal face of the transformed LP, coordinates (xbar_1..xbar_n, t, ubar_1..ubar_m):

        A xbar - b t + ubar = 0,  d.xbar + beta t = 1,  c.xbar + alpha t = theta_star.
    """
    return _optimal_face(build_transformed_lp(problem), theta_star)


def dual_optimal_face(problem: LFPProblem, theta_star: float) -> Polyhedron:
    """Optimal face of the dual LP, coordinates (y_1..y_m, z, v_1..v_n) with z free:

        -A'y - d z + v = -c,  -b.y + beta z = alpha,  z = theta_star.

    The first n rows are A'y + d z - v = c negated, as `build_dual_lp` stores them.
    """
    return _optimal_face(build_dual_lp(problem), theta_star)


def joint_optimal_face(problem: LFPProblem) -> Polyhedron:
    """Both optimal faces at once, coordinates (xbar, t, ubar, y, z, v) with z free.

    The primal and the dual face side by side, except that their two
    theta_star rows are replaced by their difference, the optimality coupling
    c.xbar + alpha t - z = 0; no theta_star is needed.
    """
    # theta_star enters only the two value rows, which the coupling replaces.
    primal, dual = primal_optimal_face(problem, 0.0), dual_optimal_face(problem, 0.0)
    P, D = primal.A_eq, dual.A_eq
    M = np.vstack([
        np.hstack([P[:-1], np.zeros((P.shape[0] - 1, D.shape[1]))]),
        np.hstack([np.zeros((D.shape[0] - 1, P.shape[1])), D[:-1]]),
        np.hstack([P[-1:], -D[-1:]]),
    ])
    rhs = np.concatenate([primal.b_eq[:-1], dual.b_eq[:-1], [0.0]])
    return Polyhedron(M, rhs, np.concatenate([primal.free, dual.free]))


def _primal_capped(problem: LFPProblem) -> np.ndarray:
    """Capped coordinates of the primal face: all but t, at index n of n + 1 + m.

    t = 1/(d.x + beta) is positive on the whole face, so it needs no capped copy.
    """
    n, m = problem.num_vars, problem.num_rows
    return np.arange(n + 1 + m) != n


def _dual_capped(problem: LFPProblem) -> np.ndarray:
    """Capped coordinates of the dual face: all but the free z, at index m of m + 1 + n."""
    n, m = problem.num_vars, problem.num_rows
    return np.arange(m + 1 + n) != m


def _joint_capped(problem: LFPProblem) -> np.ndarray:
    """Capped coordinates of the joint face: the primal and the dual masks side by side."""
    return np.concatenate([_primal_capped(problem), _dual_capped(problem)])


def _blocks(point: np.ndarray, *sizes: int) -> list:
    """Cut a face point into consecutive blocks of the given sizes."""
    return np.split(point, np.cumsum(sizes)[:-1])


def _face_point(outcome: LPOutcome, capped: np.ndarray, feas_tol: float) -> np.ndarray:
    try:
        return _normalize(outcome, capped, feas_tol)
    except EmptyPolyhedron:
        raise DegenerateNormalizer(
            "zero scaling weight while recovering an interior point of an optimal "
            "face that should be non-empty"
        ) from None


def build_primal_interior_lp(problem: LFPProblem, theta_star: float) -> LinearProgram:
    """Support-maximizing LP of the primal optimal face, t uncapped.

    Columns: (x1_1..x1_n, p, u1_1..u1_m, w1, x2_1..x2_n, u2_1..u2_m, w2).
    """
    return _support_maximizing_lp(primal_optimal_face(problem, theta_star), _primal_capped(problem))


def build_dual_interior_lp(problem: LFPProblem, theta_star: float) -> LinearProgram:
    """Support-maximizing LP of the dual optimal face, q the free z column.

    Columns: (y1_1..y1_m, q, v1_1..v1_n, w1, y2_1..y2_m, v2_1..v2_n, w2).
    """
    return _support_maximizing_lp(dual_optimal_face(problem, theta_star), _dual_capped(problem))


def build_joint_lp(problem: LFPProblem) -> LinearProgram:
    """Support-maximizing LP of the joint optimal face, t uncapped.

    Columns: (x1, p, u1, y1, q, v1, w1, x2, u2, y2, v2, w2).
    """
    return _support_maximizing_lp(joint_optimal_face(problem), _joint_capped(problem))


def recover_primal_interior(
    problem: LFPProblem, outcome: LPOutcome, feas_tol: float = SolverOptions.feas_tol
) -> TransformedPoint:
    """Interior point of the primal optimal face from an optimal builder outcome."""
    point = _face_point(outcome, _primal_capped(problem), feas_tol)
    x_bar, (t,), u_bar = _blocks(point, problem.num_vars, 1, problem.num_rows)
    return TransformedPoint(x_bar, t, u_bar)


def recover_dual_interior(
    problem: LFPProblem, outcome: LPOutcome, feas_tol: float = SolverOptions.feas_tol
) -> DualPoint:
    """Interior point of the dual optimal face from an optimal builder outcome."""
    point = _face_point(outcome, _dual_capped(problem), feas_tol)
    y, (z,), v = _blocks(point, problem.num_rows, 1, problem.num_vars)
    return DualPoint(y, z, v)


def approach_one(
    problem: LFPProblem,
    opts: SolverOptions = SolverOptions(),
    theta_star: float | None = None,
) -> StrictComplementarySolution:
    """Two-LP route: pin theta_star, then one interior LP per optimal face.

    Pass `theta_star` to reuse a stage-1 value already computed; otherwise it
    is solved here first.
    """
    if theta_star is None:
        theta_star = solve_theta_star(problem, opts)
    out = _solve_maximal_element_lp(build_primal_interior_lp(problem, theta_star), opts, "primal face")
    transformed = recover_primal_interior(problem, out, opts.feas_tol)
    out = _solve_maximal_element_lp(build_dual_interior_lp(problem, theta_star), opts, "dual face")
    dual = recover_dual_interior(problem, out, opts.feas_tol)
    primal = charnes_cooper_inverse(transformed, opts.feas_tol)
    return StrictComplementarySolution(primal, transformed.t, dual, theta_star)


def approach_two(
    problem: LFPProblem,
    opts: SolverOptions = SolverOptions(),
) -> StrictComplementarySolution:
    """Single-LP route over the coupled faces; theta_star falls out as z."""
    out = _solve_maximal_element_lp(build_joint_lp(problem), opts, "joint face")
    try:
        point = _face_point(out, _joint_capped(problem), opts.feas_tol)
    except DegenerateNormalizer:
        # No optimal pair scaled into view: either the problem itself is bad
        # (raised by the stage-1 classification below) or numerics collapsed.
        solve_theta_star(problem, opts)
        raise DegenerateNormalizer(
            "joint face recovery found a zero scaling weight although stage 1 "
            "proves an optimal pair exists"
        ) from None
    m, n = problem.num_rows, problem.num_vars
    x_bar, (t,), u_bar, y, (z,), v = _blocks(point, n, 1, m, m, 1, n)
    primal = charnes_cooper_inverse(TransformedPoint(x_bar, t, u_bar), opts.feas_tol)
    return StrictComplementarySolution(primal, t, DualPoint(y, z, v), z)


# ---------------------------------------------------------------------------
# Verification and the partition.
# ---------------------------------------------------------------------------


def verify_csc(sol: StrictComplementarySolution) -> CscReport:
    """Check the complementarity inner products x.v and y.u against DEFAULT_CSC_TOL."""
    primal_inner = float(sol.primal.x @ sol.dual.v)
    dual_inner = float(sol.dual.y @ sol.primal.u)
    ok = abs(primal_inner) <= DEFAULT_CSC_TOL and abs(dual_inner) <= DEFAULT_CSC_TOL
    return CscReport(primal_inner, dual_inner, DEFAULT_CSC_TOL, ok)


def verify_scsc(sol: StrictComplementarySolution, pos_tol: float = DEFAULT_POS_TOL) -> ScscReport:
    """Check strictness: each complementary pair must sum above pos_tol."""
    primal_sums = sol.primal.x + sol.dual.v
    dual_sums = sol.dual.y + sol.primal.u
    failing_primal = tuple(int(j) + 1 for j in np.nonzero(primal_sums <= pos_tol)[0])
    failing_dual = tuple(int(i) + 1 for i in np.nonzero(dual_sums <= pos_tol)[0])
    return ScscReport(
        float(primal_sums.min()),
        float(dual_sums.min()),
        failing_primal,
        failing_dual,
        pos_tol,
        not failing_primal and not failing_dual,
    )


def _classified_support(values, pos_tol, label) -> frozenset:
    # Values caught in the guard band just under the threshold make the
    # classification fragile; say so instead of silently deciding.
    band = np.nonzero((values > pos_tol / 10.0) & (values <= pos_tol))[0]
    for j in band:
        warnings.warn(
            f"{label}[{int(j) + 1}] = {values[j]:.3e} sits in the support guard band "
            f"({pos_tol / 10.0:g}, {pos_tol:g}]; the partition may be noise-sensitive",
            NumericalWarning,
            stacklevel=3,
        )
    return frozenset(int(j) + 1 for j in np.nonzero(values > pos_tol)[0])


def optimal_partitions(
    sol: StrictComplementarySolution, pos_tol: float = DEFAULT_POS_TOL
) -> OptimalPartition:
    """Supports of x, v, u, y as the two index-set partitions.

    Raises PartitionViolation when the four sets fail to partition their index
    sets, which means `sol` is not strictly complementary at pos_tol.
    """
    sigma_x = _classified_support(sol.primal.x, pos_tol, "x")
    sigma_v = _classified_support(sol.dual.v, pos_tol, "v")
    sigma_u = _classified_support(sol.primal.u, pos_tol, "u")
    sigma_y = _classified_support(sol.dual.y, pos_tol, "y")
    n = sol.primal.x.size
    m = sol.primal.u.size
    problems = []
    if sigma_x & sigma_v:
        problems.append(f"x/v overlap at {sorted(sigma_x & sigma_v)}")
    uncovered = set(range(1, n + 1)) - (sigma_x | sigma_v)
    if uncovered:
        problems.append(f"x/v cover misses {sorted(uncovered)}")
    if sigma_u & sigma_y:
        problems.append(f"u/y overlap at {sorted(sigma_u & sigma_y)}")
    uncovered = set(range(1, m + 1)) - (sigma_u | sigma_y)
    if uncovered:
        problems.append(f"u/y cover misses {sorted(uncovered)}")
    if problems:
        raise PartitionViolation("; ".join(problems))
    return OptimalPartition(sigma_x, sigma_v, sigma_u, sigma_y)

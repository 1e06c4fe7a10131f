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
in `lp`'s standard form (`_standard_form`), plus one row objective . x =
theta_star.  The one support-maximizing LP of `interior` is built over a face
(`build_primal_interior_lp`, `build_dual_interior_lp`, `build_joint_lp`), its
optimum is normalized back onto the face by `interior`, and the face point is
cut into named blocks.  Each face's blocks and the mask of its capped
coordinates come from one layout (`_layout`), and one cut (`_face_blocks`)
serves `recover_primal_interior`, `recover_dual_interior` and `approach_two`.
Both routes solve the LPs these builders return at `SolverOptions`' default
tolerances:

* `approach_one` pins the optimal value theta_star first (one stage-1 solve),
  then solves the primal face's support-maximizing LP, two LPs in total.  The
  dual face's relative interior point comes from the row duals of those two
  LPs (the Goldman-Tucker alternative), so its own LP is not solved;
  `build_dual_interior_lp` and `recover_dual_interior` remain as an
  independent way to the same supports.
* `approach_two` couples both faces through the optimality row
  c.xbar + alpha t - z = 0 and solves a single, larger LP; no prior
  theta_star is needed and the optimal value falls out as the recovered z.

`optimal_partitions` reads each support with the one threshold pos_tol; a
pair that fails to partition raises PartitionViolation, whose message carries
the values of every index it names, so a near miss shows how near it was.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .duality import (
    TransformedPoint,
    _stage1,
    build_dual_lp,
    build_transformed_lp,
    charnes_cooper_inverse,
    solve_theta_star,
)
from .errors import DegenerateNormalizer, EmptyPolyhedron, PartitionViolation
from .interior import (
    DEFAULT_POS_TOL,
    Polyhedron,
    _normalize,
    _support_maximizing_lp,
    build_maximal_element_lp,
)
from .lp import LinearProgram, LPOutcome, SolverOptions, _solved, _standard_form
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


def _optimal_face(lp: LinearProgram, value: float) -> tuple:
    """(A_eq, b_eq, free) of `lp`'s standard form plus the row `objective . x = value`;
    columns with lo = -inf are free.

    Coordinates are the LP's columns and then one slack per inequality row.
    """
    A, b, lo, _ = _standard_form(lp)
    m, N = b.size, lp.num_vars + lp.b_ub.size  # the columns of `lp`, then its slacks
    face = np.zeros((m + 1, N))
    face[:m], face[m, : lp.num_vars] = A[:, :N], lp.objective
    return face, np.concatenate((b, (value,))), lo[:N] == -np.inf


def primal_optimal_face(problem: LFPProblem, theta_star: float) -> Polyhedron:
    """Optimal face of the transformed LP, coordinates (xbar_1..xbar_n, t, ubar_1..ubar_m):

        A xbar - b t + ubar = 0,  d.xbar + beta t = 1,  c.xbar + alpha t = theta_star.
    """
    return Polyhedron(*_optimal_face(build_transformed_lp(problem), theta_star))


def dual_optimal_face(problem: LFPProblem, theta_star: float) -> Polyhedron:
    """Optimal face of the dual LP, coordinates (y_1..y_m, z, v_1..v_n) with z free:

        -A'y - d z + v = -c,  -b.y + beta z = alpha,  z = theta_star.

    The first n rows are A'y + d z - v = c negated, as `build_dual_lp` stores them.
    """
    return Polyhedron(*_optimal_face(build_dual_lp(problem), theta_star))


def joint_optimal_face(problem: LFPProblem) -> Polyhedron:
    """Both optimal faces at once, coordinates (xbar, t, ubar, y, z, v) with z free.

    The primal and the dual face side by side, except that their two
    theta_star rows are replaced by their difference, the optimality coupling
    c.xbar + alpha t - z = 0; no theta_star is needed.
    """
    # theta_star enters only the two value rows, which the coupling replaces.  Every
    # entry of either face is in the joint one, which the Polyhedron checks.
    (A_p, b_p, free_p), (A_d, b_d, free_d) = (
        _optimal_face(build(problem), 0.0) for build in (build_transformed_lp, build_dual_lp))
    (p, P), (d, D) = A_p.shape, A_d.shape
    M = np.zeros((p + d - 1, P + D))
    M[: p - 1, :P], M[p - 1 : -1, P:], M[-1, :P], M[-1, P:] = A_p[:-1], A_d[:-1], A_p[-1], -A_d[-1]
    rhs = np.concatenate((b_p[:-1], b_d[:-1], (0.0,)))
    return Polyhedron(M, rhs, np.concatenate((free_p, free_d)))


def _layout(problem: LFPProblem, face: str) -> tuple:
    """Block offsets and capped mask of the "primal", "dual" or "joint" face's coordinates.

    The primal face is (xbar, t, ubar), the dual face (y, z, v) and the joint
    face the two side by side; block k spans offsets[k]:offsets[k + 1].  Every
    coordinate but each face's middle scalar is capped: t = 1/(d.x + beta) is
    positive on the whole face and z is free.
    """
    n, m = problem.num_vars, problem.num_rows
    sizes = {"primal": (n, 1, m), "dual": (m, 1, n), "joint": (n, 1, m, m, 1, n)}[face]
    offsets = list(itertools.accumulate(sizes, initial=0))
    capped = np.ones(offsets[-1], dtype=bool)
    capped[offsets[1::3]] = False
    return offsets, capped


def _face_blocks(problem: LFPProblem, face: str, outcome: LPOutcome, feas_tol: float) -> list:
    """The face point of an optimal builder outcome, cut into the blocks of `_layout`."""
    offsets, capped = _layout(problem, face)
    try:
        point = _normalize(outcome, capped, feas_tol)
    except EmptyPolyhedron:
        raise DegenerateNormalizer(
            "zero scaling weight while recovering an interior point of an optimal "
            "face that should be non-empty"
        ) from None
    return [point[start:end] for start, end in itertools.pairwise(offsets)]


def build_primal_interior_lp(problem: LFPProblem, theta_star: float) -> LinearProgram:
    """Support-maximizing LP of the primal optimal face, t uncapped.

    Columns: (x1_1..x1_n, p, u1_1..u1_m, w1, x2_1..x2_n, u2_1..u2_m, w2).
    """
    _, capped = _layout(problem, "primal")
    return _support_maximizing_lp(primal_optimal_face(problem, theta_star), capped)


def build_dual_interior_lp(problem: LFPProblem, theta_star: float) -> LinearProgram:
    """Support-maximizing LP of the dual optimal face, q the free z column.

    Columns: (y1_1..y1_m, q, v1_1..v1_n, w1, y2_1..y2_m, v2_1..v2_n, w2).
    """
    return build_maximal_element_lp(dual_optimal_face(problem, theta_star))


def build_joint_lp(problem: LFPProblem) -> LinearProgram:
    """Support-maximizing LP of the joint optimal face, t uncapped.

    Columns: (x1, p, u1, y1, q, v1, w1, x2, u2, y2, v2, w2).
    """
    _, capped = _layout(problem, "joint")
    return _support_maximizing_lp(joint_optimal_face(problem), capped)


def recover_primal_interior(
    problem: LFPProblem, outcome: LPOutcome, feas_tol: float = SolverOptions.feas_tol
) -> TransformedPoint:
    """Interior point of the primal optimal face from an optimal builder outcome."""
    x_bar, (t,), u_bar = _face_blocks(problem, "primal", outcome, feas_tol)
    return TransformedPoint(x_bar, t, u_bar)


def recover_dual_interior(
    problem: LFPProblem, outcome: LPOutcome, feas_tol: float = SolverOptions.feas_tol
) -> DualPoint:
    """Interior point of the dual optimal face from an optimal builder outcome."""
    y, (z,), v = _face_blocks(problem, "dual", outcome, feas_tol)
    return DualPoint(y, z, v)


def approach_one(problem: LFPProblem, stage1: LPOutcome | None = None) -> StrictComplementarySolution:
    """Stage 1, then one support-maximizing LP over the primal optimal face.

    Pass `stage1`, the outcome of solving `build_transformed_lp(problem)`, to
    reuse a stage-1 solve already made; otherwise it is solved here first.

    The dual point comes from the row duals (yA, yd, yc) of the face LP on
    its A, d and value rows, and the stage-1 duals y0 on its A rows.  At the
    face LP's optimum s = F'(yA, yd, yc) is 0 on the primal support and >= 1
    off it (Freund, Roundy & Todd 1985), and s_w = yd + theta_star yc, the
    reduced cost of the positive scaling weight, is 0.  Then, for any
    kappa > max(0, yc),

        y = (kappa y0 + yA) / (kappa - yc),  z = theta_star,  v = A'y + theta_star d - c

    is dual optimal and strictly complementary to the primal point: v is
    (kappa v0 + s_x) / (kappa - yc) and y is positive wherever u is zero.
    Raises DegenerateNormalizer when s_w is not 0.
    """
    stage1 = _stage1(problem, stage1)
    theta_star = stage1.objective
    out = _solved("primal face", build_primal_interior_lp(problem, theta_star))
    transformed = recover_primal_interior(problem, out)
    m, tol = problem.num_rows, SolverOptions.feas_tol
    yA, (yd, yc) = out.duals[:m], out.duals[m:]
    s_w = yd + theta_star * yc
    if abs(s_w) > tol * (1.0 + abs(yd) + abs(theta_star * yc)):
        raise DegenerateNormalizer(
            f"s_w = yd + theta_star * yc = {s_w:.3e} on the primal face LP's row duals "
            "is not 0, so they give no dual optimal point"
        )
    kappa = max(0.0, yc) + 1.0
    dual = DualPoint.from_yz(problem, (kappa * stage1.duals[:m] + yA) / (kappa - yc), theta_star)
    primal = charnes_cooper_inverse(transformed)
    return StrictComplementarySolution(primal, transformed.t, dual, theta_star)


def approach_two(problem: LFPProblem) -> StrictComplementarySolution:
    """Single-LP route over the coupled faces; theta_star falls out as z."""
    out = _solved("joint face", build_joint_lp(problem))
    try:
        x_bar, (t,), u_bar, y, (z,), v = _face_blocks(problem, "joint", out, SolverOptions.feas_tol)
    except DegenerateNormalizer:
        # No optimal pair scaled into view: either the problem itself is bad
        # (raised by the stage-1 classification below) or numerics collapsed.
        solve_theta_star(problem)
        raise DegenerateNormalizer(
            "joint face recovery found a zero scaling weight although stage 1 "
            "proves an optimal pair exists"
        ) from None
    primal = charnes_cooper_inverse(TransformedPoint(x_bar, t, u_bar))
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


def optimal_partitions(
    sol: StrictComplementarySolution, pos_tol: float = DEFAULT_POS_TOL
) -> OptimalPartition:
    """Supports of x, v, u, y, each {j : value_j > pos_tol}, as the two index-set partitions.

    Raises PartitionViolation when the four sets fail to partition their index
    sets, which means `sol` is not strictly complementary at pos_tol.  Its
    message names each overlapping or uncovered index with both members' values,
    e.g. "x/v cover misses [4] (x = 8.230e-08, v = 2.715e-11)"; the values of
    several indices are separated by "; " inside the parentheses.
    """
    supports, problems = [], []
    for (a_name, a), (b_name, b) in ((("x", sol.primal.x), ("v", sol.dual.v)),
                                     (("u", sol.primal.u), ("y", sol.dual.y))):
        in_a, in_b = a > pos_tol, b > pos_tol
        supports += [in_a, in_b]
        for fault, mask in (("overlap at", in_a & in_b), ("cover misses", ~(in_a | in_b))):
            (where,) = np.nonzero(mask)
            if where.size:
                values = "; ".join(f"{a_name} = {a[j]:.3e}, {b_name} = {b[j]:.3e}" for j in where)
                problems.append(f"{a_name}/{b_name} {fault} {(where + 1).tolist()} ({values})")
    if problems:
        raise PartitionViolation("; ".join(problems))
    return OptimalPartition(*(np.nonzero(support)[0] + 1 for support in supports))

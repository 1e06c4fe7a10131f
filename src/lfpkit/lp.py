"""Dense two-phase simplex solver for small linear programs.

A `LinearProgram` holds its data as arrays in scipy `linprog`'s layout: an
inequality block `A_ub x <= b_ub`, an equality block `A_eq x = b_eq` and
per-variable bounds `lo <= x <= hi` (nonnegative by default; boxed, one-sided
or free as given).  One private function, `_standard_form`, stacks them
into `[[A_ub, I], [A_eq, 0]]`, one slack column per inequality row, with
inequality rows first; `solve_lp` pivots on that form, and `complementarity`
builds its optimal faces from it.  Free variables are kept as single columns
that may move in either direction; box bounds are handled with the usual
bounded-variable ratio test (including bound flips) instead of extra rows.
Phase 1 minimizes the total artificial infeasibility; phase 2 then optimizes
the real objective from the feasible basis phase 1 produced.

Pivoting uses Dantzig's rule with a largest-pivot tie-break, switching to
Bland's rule once 2 * (rows + cols) degenerate steps have accumulated, which
guarantees termination on the highly degenerate homogeneous systems this
package builds.  A solve stops after 50 * (rows + cols) pivots across both
phases; the cap is fixed, not an option.  All choices are
index-deterministic: the same program and options always produce the same
outcome.

Pricing, the ratio test and the drive-out of artificials are numpy mask
operations over whole columns and basic rows, with the tie-breaks a scan in
index order would give.  The main cost per pivot is three dense solves with
the basis matrix, which is factorized from scratch for each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Sense",
    "LinearProgram",
    "SolverOptions",
    "SolveStatus",
    "LPOutcome",
    "solve_lp",
]


class Sense(Enum):
    MAXIMIZE = "max"
    MINIMIZE = "min"


def _frozen(values, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of `values` in C order, with at least `ndmin` axes.

    Every value type stores its arrays this way; the caller's array stays writable.
    """
    array = np.array(values, dtype=float, order="C", ndmin=ndmin)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class LinearProgram:
    """A dense LP in scipy `linprog`'s layout: optimize `objective . x` subject to

        A_ub x <= b_ub,   A_eq x = b_eq,   lo <= x <= hi.

    A block that is not given is stored as a (0, n) array with an empty
    right-hand side; `lo` defaults to 0 and `hi` to +inf for every variable.
    A `>=` row is written as its negation.  Every array is stored as a
    read-only float copy.
    """

    sense: Sense
    objective: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        objective = _frozen(self.objective)
        if objective.ndim != 1 or objective.size == 0:
            raise ValueError("objective must be a non-empty vector")
        if not np.isfinite(objective).all():
            raise ValueError("objective has a non-finite entry")
        object.__setattr__(self, "objective", objective)
        n = objective.size

        for block, rhs in (("A_ub", "b_ub"), ("A_eq", "b_eq")):
            A, b = getattr(self, block), getattr(self, rhs)
            if b is None and A is not None:
                raise ValueError(f"{block} is given without {rhs}")
            A = _frozen(np.empty((0, n)) if A is None else A)
            b = _frozen(() if b is None else b)
            if A.ndim != 2 or A.shape[1] != n:
                raise ValueError(f"{block} has shape {A.shape}, expected (rows, {n})")
            if b.shape != (A.shape[0],):
                raise ValueError(f"{rhs} has shape {b.shape}, expected ({A.shape[0]},)")
            if not (np.isfinite(A).all() and np.isfinite(b).all()):
                raise ValueError(f"{block} or {rhs} has a non-finite entry")
            object.__setattr__(self, block, A)
            object.__setattr__(self, rhs, b)

        lo = _frozen(np.zeros(n) if self.lo is None else self.lo)
        hi = _frozen(np.full(n, math.inf) if self.hi is None else self.hi)
        for name, bound in (("lo", lo), ("hi", hi)):
            if bound.shape != (n,):
                raise ValueError(f"{name} has shape {bound.shape}, expected ({n},)")
            if np.isnan(bound).any():
                raise ValueError(f"{name} has a NaN entry")
        # No real number lies in [inf, inf] or [-inf, -inf] either.
        empty = np.flatnonzero((lo > hi) | (lo == math.inf) | (hi == -math.inf))
        if empty.size:
            j = int(empty[0])
            raise ValueError(f"empty bound interval [{lo[j]}, {hi[j]}] for variable {j}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_rows(self) -> int:
        return self.b_ub.size + self.b_eq.size


@dataclass(frozen=True)
class SolverOptions:
    """Feasibility and optimality tolerances."""

    feas_tol: float = 1e-9
    opt_tol: float = 1e-9

    def __post_init__(self):
        for tol in (self.feas_tol, self.opt_tol):
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"tolerances must be finite and positive, got {tol!r}")


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class LPOutcome:
    """Solver verdict; `point` and `objective` are present iff OPTIMAL.

    `detail` says why an ITERATION_LIMIT solve stopped: "iteration cap of N
    reached", "singular basis after k pivots", or (a numerical breakdown, as
    phase-1 objectives are bounded) "unbounded phase-1 ray after k pivots";
    k counts the pivots of both phases.
    """

    status: SolveStatus
    point: np.ndarray | None = None
    objective: float | None = None
    detail: str | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


# Nonbasic variable positions.  A free nonbasic variable parks at zero.
_AT_LOWER, _AT_UPPER, _AT_ZERO, _BASIC = 0, 1, 2, 3

# |pivot| below this is treated as zero in ratio tests and drive-out steps.
_PIVOT_TOL = 1e-10


def _initial_status(lo, hi):
    return np.where(
        np.isfinite(lo), _AT_LOWER, np.where(np.isfinite(hi), _AT_UPPER, _AT_ZERO)
    ).astype(np.int8)


def _nonbasic_point(lo, hi, stat):
    """Point with every nonbasic variable at its parking value and basics at 0."""
    x = np.zeros(lo.size)
    at_lower = stat == _AT_LOWER
    at_upper = stat == _AT_UPPER
    x[at_lower] = lo[at_lower]
    x[at_upper] = hi[at_upper]
    return x


def _choose_entering(reduced, stat, fixed, opt_tol, bland):
    """Return (column, direction) of the entering variable, or (None, 0).

    Direction is the sign in which the entering variable moves.  Dantzig mode
    picks the largest optimality violation (lowest index on ties); Bland mode
    picks the lowest eligible index.  Columns marked in `fixed` never enter.
    """
    # Violation by status: -r at a lower bound, r at an upper bound, |r| for a
    # free variable at zero.
    viol = np.where(stat == _AT_UPPER, reduced, -reduced)
    np.abs(viol, out=viol, where=stat == _AT_ZERO)
    viol[(stat == _BASIC) | fixed] = -math.inf
    j = int((viol > opt_tol).argmax() if bland else viol.argmax())
    if not viol[j] > opt_tol:
        return None, 0
    return j, (1 if reduced[j] < 0 else -1)


def _ratio_test(xb, w, basis, lo, hi, enter, direction, bland):
    """Largest admissible step for the entering variable.

    `xb` holds the values of the basic variables, in `basis` order.  Returns
    (step, leave_pos, leave_to): `leave_pos` indexes into `basis`, or is -1
    for a bound flip of the entering variable itself; `step` is inf when
    nothing blocks the move.  Ties within 1e-11 relative of the minimum ratio
    go to the largest |pivot| and then the lowest column index (Dantzig mode),
    or to the lowest column index alone (Bland mode).
    """
    own = hi[enter] - lo[enter]  # inf unless the entering variable is boxed
    g = w if direction > 0 else -w  # rate at which each basic variable decreases
    mag = np.abs(g)
    blocking = mag > _PIVOT_TOL
    room = np.where(g > 0, xb - lo[basis], hi[basis] - xb)  # inf for an infinite bound
    limits = np.where(blocking, room, math.inf) / np.where(blocking, mag, 1.0)
    limits[limits < 0.0] = 0.0
    row_min = limits.min() if basis.size else math.inf

    if own <= row_min:
        return own, -1, 0  # entering variable flips to its other bound, or inf

    tie = row_min + 1e-11 * (1.0 + row_min)
    candidates = (limits <= tie).nonzero()[0]
    if candidates.size > 1:
        if not bland:
            top = mag[candidates]
            candidates = candidates[top == top.max()]
        pos = int(candidates[basis[candidates].argmin()])
    else:
        pos = int(candidates[0])
    return row_min, pos, (_AT_LOWER if g[pos] > 0 else _AT_UPPER)


def _run_simplex(A, b, cost, lo, hi, basis, stat, opts, iter_budget, phase1_floor=None):
    """Iterate to optimality on one phase.  Mutates basis and stat.

    Returns (verdict, point, iterations_used) with verdict in "optimal",
    "unbounded", "iteration_limit", "singular" (a basis matrix that
    np.linalg.solve rejects).  `phase1_floor` enables the early exit for
    phase-1 objectives, which are bounded below by zero.

    Pricing and the ratio test are numpy mask operations over all columns and
    basic rows, with index-deterministic tie-breaks; the three dense solves
    with B per pivot are the main cost.
    """
    m = A.shape[0]
    fixed = hi - lo <= 0.0
    bland = False
    degenerate = 0
    bland_trigger = 2 * (m + A.shape[1])
    used = 0
    while True:
        x = _nonbasic_point(lo, hi, stat)
        B = A[:, basis]
        try:
            x[basis] = xb = np.linalg.solve(B, b - A @ x)
            y = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError:
            return "singular", x, used
        reduced = cost - A.T @ y

        if phase1_floor is not None and float(cost @ x) <= phase1_floor:
            return "optimal", x, used
        enter, direction = _choose_entering(reduced, stat, fixed, opts.opt_tol, bland)
        if enter is None:
            return "optimal", x, used
        if used >= iter_budget:
            return "iteration_limit", x, used

        w = np.linalg.solve(B, A[:, enter])
        step, leave_pos, leave_to = _ratio_test(xb, w, basis, lo, hi, enter, direction, bland)
        if math.isinf(step):
            return "unbounded", x, used

        if leave_pos < 0:
            stat[enter] = _AT_UPPER if stat[enter] == _AT_LOWER else _AT_LOWER
        else:
            stat[basis[leave_pos]] = leave_to
            stat[enter] = _BASIC
            basis[leave_pos] = enter

        used += 1
        if step <= opts.feas_tol:
            degenerate += 1
            if degenerate > bland_trigger:
                bland = True


def _drive_out_artificials(A, lo, hi, basis, stat, n_real):
    """Swap basic artificial variables for real columns where a pivot exists.

    Every swap is a zero-step pivot (the artificial sits at value zero), so
    feasibility is untouched.  Artificials left behind mark redundant rows and
    stay basic, pinned at zero by their bounds.  Each swap takes the movable
    nonbasic real column with the largest |pivot|, the lowest index on ties.
    """
    fixed = hi[:n_real] - lo[:n_real] <= 0.0
    for pos in range(basis.size):
        if basis[pos] < n_real:
            continue
        B = A[:, basis]
        e = np.zeros(basis.size)
        e[pos] = 1.0
        try:
            g = np.linalg.solve(B.T, e)
        except np.linalg.LinAlgError:
            continue
        mag = np.abs(g @ A[:, :n_real])
        mag[fixed | (stat[:n_real] == _BASIC)] = 0.0
        best = int(mag.argmax())
        if mag[best] > _PIVOT_TOL:
            stat[best] = _BASIC
            stat[basis[pos]] = _AT_LOWER
            basis[pos] = best


def _stopped(verdict, pivots, iter_budget) -> LPOutcome:
    """The ITERATION_LIMIT outcome of a simplex run that ended without a verdict."""
    if verdict == "singular":
        detail = f"singular basis after {pivots} pivots"
    elif verdict == "iteration_limit":
        detail = f"iteration cap of {iter_budget} reached"
    else:  # a ray in phase 1, whose objective is bounded below by zero
        detail = f"unbounded phase-1 ray after {pivots} pivots"
    return LPOutcome(SolveStatus.ITERATION_LIMIT, detail=detail)


def _standard_form(lp: LinearProgram):
    """(A, b, lo, hi) of `lp` as equalities over (x, one [0, inf) slack per A_ub row)."""
    n, n_slack = lp.num_vars, lp.b_ub.size
    A = np.zeros((lp.num_rows, n + n_slack))
    A[:n_slack, :n] = lp.A_ub
    A[n_slack:, :n] = lp.A_eq
    A[:n_slack, n:] = np.eye(n_slack)
    b = np.concatenate([lp.b_ub, lp.b_eq])
    lo = np.concatenate([lp.lo, np.zeros(n_slack)])
    hi = np.concatenate([lp.hi, np.full(n_slack, math.inf)])
    return A, b, lo, hi


def solve_lp(lp: LinearProgram, opts: SolverOptions = SolverOptions()) -> LPOutcome:
    """Solve `lp` with the two-phase simplex method.

    The returned point covers exactly the variables of `lp`, in their original
    order.  OPTIMAL outcomes are feasible within `opts.feas_tol` and leave no
    optimality violation above `opts.opt_tol`; ITERATION_LIMIT outcomes carry
    no point at all, so numerical trouble is never silently papered over.
    """
    A, b, lo, hi = _standard_form(lp)
    m, N = A.shape
    n = lp.num_vars
    cost = np.zeros(N)
    cost[:n] = lp.objective if lp.sense is Sense.MINIMIZE else -lp.objective
    iter_budget = 50 * (m + n)

    # Phase 1: artificial column per row, signed so artificials start >= 0.
    stat = _initial_status(lo, hi)
    resid = b - A @ _nonbasic_point(lo, hi, stat)
    A1 = np.hstack([A, np.diag(np.where(resid >= 0, 1.0, -1.0))])
    lo1 = np.concatenate([lo, np.zeros(m)])
    hi1 = np.concatenate([hi, np.full(m, math.inf)])
    cost1 = np.concatenate([np.zeros(N), np.ones(m)])
    basis = np.arange(N, N + m)
    stat1 = np.concatenate([stat, np.full(m, _BASIC, dtype=np.int8)])

    verdict, x, used = _run_simplex(
        A1, b, cost1, lo1, hi1, basis, stat1, opts, iter_budget,
        phase1_floor=opts.feas_tol * 1e-3,
    )
    if verdict != "optimal":
        return _stopped(verdict, used, iter_budget)
    if float(cost1 @ x) > opts.feas_tol:
        return LPOutcome(SolveStatus.INFEASIBLE)

    _drive_out_artificials(A1, lo1, hi1, basis, stat1, N)
    lo1[N:] = 0.0
    hi1[N:] = 0.0  # artificials are frozen out of phase 2
    cost2 = np.concatenate([cost, np.zeros(m)])

    verdict, x, more = _run_simplex(
        A1, b, cost2, lo1, hi1, basis, stat1, opts, iter_budget - used,
    )
    if verdict == "unbounded":
        return LPOutcome(SolveStatus.UNBOUNDED)
    if verdict != "optimal":
        return _stopped(verdict, used + more, iter_budget)

    point = _frozen(x[:n])
    return LPOutcome(SolveStatus.OPTIMAL, point, float(lp.objective @ point))

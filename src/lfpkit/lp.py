"""Dense simplex solver for small linear programs: a bounded dual simplex
for homogeneous programs with a dual-feasible start, two phases of the
primal simplex for the rest.

A `LinearProgram` holds its data as arrays in scipy `linprog`'s layout: an
inequality block `A_ub x <= b_ub`, an equality block `A_eq x = b_eq` and
per-variable bounds `lo <= x <= hi` (nonnegative by default; boxed, one-sided
or free as given).  One private function, `_standard_form`, stacks them
into `[[A_ub, I], [A_eq, 0]]`, one slack column per inequality row, with
inequality rows first; `solve_lp` pivots on that form, and `complementarity`
builds its optimal faces from it.  Free variables are kept as single columns
that may move in either direction; box bounds are handled with bound flips
in the ratio tests instead of extra rows.

`solve_lp` picks the method from the program's structure.  Where b = 0,
every lo <= 0 <= hi, and every column can park at a bound its cost favours
(a finite hi for a cost that improves upwards, a finite lo for one that
improves downwards, cost 0 on a free column), the all-artificial basis is
dual feasible and the program is feasible (x = 0) and bounded: every
support-maximizing LP of `interior` is such a program.  It goes to the
bounded dual simplex: dual steepest edge picks the leaving row, and a
bound-flipping ratio test with Harris tolerances picks the entering
column.  Its OPTIMAL verdict comes from a freshly inverted basis on which
every basic value lies within its bounds +- feas_tol and no reduced cost
has the wrong sign by more than opt_tol.  Any other ending is a numerical
breakdown, and the program is solved again by the primal path.

The primal path runs phase 1, which minimizes the total artificial
infeasibility, then phase 2, which optimizes the real objective from the
feasible basis phase 1 produced.  Where every row is an inequality and the
residual b - A x at the parking point x (each column at its finite lower
bound, else its finite upper bound, else 0) is >= 0, the slack basis is
feasible: phase 2 starts from it and phase 1 does not run.  Programs with
an equality row or a negative residual, stage 1 and every face LP among
them, run phase 1 from the all-artificial basis.  Pivoting uses Dantzig's
rule with a largest-pivot tie-break, switching to Bland's rule once
2 * (rows + cols) degenerate steps have accumulated, which guarantees
termination on highly degenerate systems.  Its OPTIMAL verdict comes from pricing on a freshly
inverted (or freshly solved) basis; the basic values are not checked
against their bounds afterwards.  Pricing, the ratio test and the
drive-out of artificials are numpy mask operations over whole columns and
basic rows, with the tie-breaks a scan in index order would give.

Each method stops after 50 * (rows + cols) iterations (across both phases
of the primal path, where a bound flip is an iteration of its own); the
cap is fixed, not an option.  All choices are index-deterministic: the
same program and options always produce the same outcome.

Both methods keep an explicit inverse of the basis matrix B: they invert B
at the start, every 10 basis changes and before any verdict reached after
a change, and apply a rank-one (product-form) update after every other
basis change.  Where the dual simplex's update would divide by a pivot
element that comes out zero or not finite, it inverts the new basis
instead.  An inversion that fails, or whose condition number exceeds
1e12, ends the attempt.  On the primal path the program is then solved
again from the start with three fresh solves with B per pivot, and that
outcome counts; programs whose coefficients span more than five orders of
magnitude take the primal path with fresh solves from the start.
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
        if not isinstance(self.sense, Sense):
            raise ValueError(f"sense must be a Sense member, got {self.sense!r}")
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

# Basis changes between two inversions of the basis matrix in `_run_simplex`
# and `_dual_simplex`.
_REFACTOR_INTERVAL = 10

# An inverse of the basis matrix whose 1-norm condition number exceeds this
# counts as singular: `solve_lp` then solves again on the primal path, with
# fresh solves if the inverse failed there.
_ILL_CONDITIONED = 1e12

# A program whose nonzero constraint coefficients span a wider ratio than this
# is solved with fresh solves from the start: the inverses of its bases are
# too poorly conditioned to update.
_WIDE_SCALE = 1e5


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


def _run_simplex(A, b, cost, lo, hi, basis, stat, opts, iter_budget, phase1_floor=None,
                 fresh=False):
    """Iterate to optimality on one phase.  Mutates basis and stat.

    Returns (verdict, point, pivots, bound_flips): the pivots count bound
    flips and basis changes alike, and the verdict is "optimal",
    "unbounded", "iteration_limit" or "singular" (a basis matrix that
    np.linalg.solve or np.linalg.inv rejects, or whose inverse has a 1-norm
    condition number above _ILL_CONDITIONED).  `phase1_floor` enables the
    early exit for phase-1 objectives, which are bounded below by zero.

    Without `fresh`, the run keeps the inverse of B that the module docstring
    describes, updated by `_update_inverse`; a bound flip leaves it as it is.
    With `fresh`, it solves with B three times per pivot and checks no
    condition number.
    """
    m = A.shape[0]
    fixed = hi - lo <= 0.0
    bland = False
    degenerate = 0
    bland_trigger = 2 * (m + A.shape[1])
    used = flips = 0
    Binv, updates = None, 0
    while True:
        x = _nonbasic_point(lo, hi, stat)
        rhs = b - A @ x
        try:
            if fresh:
                B = A[:, basis]
                xb = np.linalg.solve(B, rhs)
                y = np.linalg.solve(B.T, cost[basis])
            else:
                if Binv is None or updates >= _REFACTOR_INTERVAL:
                    B = A[:, basis]
                    Binv, updates = np.linalg.inv(B), 0
                    if _norm1(B) * _norm1(Binv) > _ILL_CONDITIONED:
                        return "singular", x, used, flips
                xb = Binv @ rhs
                y = cost[basis] @ Binv
        except np.linalg.LinAlgError:
            return "singular", x, used, flips
        x[basis] = xb
        reduced = cost - A.T @ y

        if phase1_floor is not None and float(cost @ x) <= phase1_floor:
            enter = None
        else:
            enter, direction = _choose_entering(reduced, stat, fixed, opts.opt_tol, bland)
        if enter is None:
            if updates:
                Binv = None  # confirm the verdict on a fresh inverse
                continue
            return "optimal", x, used, flips
        if used >= iter_budget:
            return "iteration_limit", x, used, flips

        w = np.linalg.solve(B, A[:, enter]) if fresh else Binv @ A[:, enter]
        step, leave_pos, leave_to = _ratio_test(xb, w, basis, lo, hi, enter, direction, bland)
        if math.isinf(step):
            if updates:
                Binv = None
                continue
            return "unbounded", x, used, flips

        if leave_pos < 0:
            stat[enter] = _AT_UPPER if stat[enter] == _AT_LOWER else _AT_LOWER
            flips += 1
        else:
            if not fresh:
                _update_inverse(Binv, leave_pos, w)
                updates += 1
            stat[basis[leave_pos]] = leave_to
            stat[enter] = _BASIC
            basis[leave_pos] = enter

        used += 1
        if step <= opts.feas_tol:
            degenerate += 1
            if degenerate > bland_trigger:
                bland = True


def _dual_start(b, lo, hi, cost):
    """Whether `_dual_simplex` applies: b = 0, lo <= 0 <= hi, and every column
    can park at a bound its cost favours (cost < 0 at a finite hi, cost > 0 at
    a finite lo; a free column therefore has cost 0)."""
    return not (
        b.any()
        or (lo > 0.0).any()
        or (hi < 0.0).any()
        or ((cost < 0.0) & (hi == math.inf)).any()
        or ((cost > 0.0) & (lo == -math.inf)).any()
    )


def _dual_simplex(A, b, cost, lo, hi, opts, iter_budget):
    """Bounded dual simplex from the all-artificial basis of a `_dual_start` program.

    One artificial per row is basic and fixed at [0, 0]; each column is
    nonbasic at the bound its cost favours (`_initial_status` where the cost
    is zero), which makes the start dual feasible, so no phase 1 is needed.
    Each iteration picks the leaving row by dual steepest edge (infeasibility
    squared over the squared norm of its row of B^-1) and the entering column
    by a bound-flipping ratio test with Harris tolerances: boxed columns whose
    breakpoints come first flip to their other bound while the dual slope
    stays positive, and the entering column is the one of the last group
    with the largest |alpha|, the lowest index on ties.  The inverse of B is
    kept as in `_run_simplex`, except that a pivot element (B^-1 a_q)[r]
    that comes out zero or not finite makes the next iteration invert the
    new basis instead of updating the inverse.

    Returns (verdict, point, basis_changes, bound_flips); the point covers
    the columns of A.  Only "optimal" is a solution: it is returned once a
    fresh inverse puts every basic value within its bounds +- feas_tol and
    no reduced cost has the wrong sign by more than opt_tol.  x = 0 is
    feasible and the start proves the program bounded, so every other
    verdict is a breakdown: "singular" (as in `_run_simplex`), "dual_ray"
    (no column can enter), "iteration_limit" (`iter_budget` basis changes)
    or "dual_infeasible" (the final check failed).
    """
    m, N = A.shape
    A = np.hstack([A, np.eye(m)])
    lo = np.concatenate([lo, np.zeros(m)])
    hi = np.concatenate([hi, np.zeros(m)])
    cost = np.concatenate([cost, np.zeros(m)])
    stat = np.where(cost < 0.0, _AT_UPPER,
                    np.where(cost > 0.0, _AT_LOWER, _initial_status(lo, hi))).astype(np.int8)
    stat[N:] = _BASIC
    basis = np.arange(N, N + m)
    width = hi - lo
    fixed = width <= 0.0
    # Kept up to date at every basis change and bound flip: the nonbasic
    # point (basics at 0), the bounds of the basic variables in `basis`
    # order, +1 / -1 for a movable column at its lower / upper bound (0 for
    # the rest) and the free columns parked at zero.
    xn = _nonbasic_point(lo, hi, stat)
    basic_lo, basic_hi = lo[basis], hi[basis]
    side = np.where(stat == _AT_LOWER, 1.0, np.where(stat == _AT_UPPER, -1.0, 0.0))
    side[fixed] = 0.0
    free = np.flatnonzero(stat == _AT_ZERO)
    changes = flips = 0
    Binv, updates = None, 0
    while True:
        if Binv is None or updates >= _REFACTOR_INTERVAL:
            B = A[:, basis]
            try:
                Binv, updates = np.linalg.inv(B), 0
            except np.linalg.LinAlgError:
                return "singular", None, changes, flips
            if _norm1(B) * _norm1(Binv) > _ILL_CONDITIONED:
                return "singular", None, changes, flips
        xb = Binv @ (b - A @ xn)
        reduced = cost - A.T @ (cost[basis] @ Binv)
        infeasible = np.maximum(basic_lo - xb, xb - basic_hi)
        rows = np.flatnonzero(infeasible > opts.feas_tol)
        if rows.size == 0:
            if updates:
                Binv = None  # confirm the verdict on a fresh inverse
                continue
            wrong = -side * reduced  # how far each reduced cost has the wrong sign
            wrong[free] = np.abs(reduced[free])
            if (wrong > opts.opt_tol).any():
                return "dual_infeasible", _point(xn, basis, xb), changes, flips
            return "optimal", _point(xn, basis, xb), changes, flips
        if changes >= iter_budget:
            return "iteration_limit", _point(xn, basis, xb), changes, flips

        # Dual steepest edge: the exact row norms of B^-1 come with the inverse.
        norms = Binv[rows]
        scores = infeasible[rows] ** 2 / np.einsum("ij,ij->i", norms, norms)
        r = int(rows[scores.argmax()])
        to_upper = xb[r] > basic_hi[r]
        alpha = Binv[r] @ A
        if not to_upper:
            alpha = -alpha  # the reduced costs move by -theta * alpha, theta >= 0
        q, flipped = _bound_flipping_ratio_test(
            reduced, alpha, side, free, width, infeasible[r], opts
        )
        if q is None:
            return "dual_ray", _point(xn, basis, xb), changes, flips
        if flipped.size:
            side[flipped] = -side[flipped]
            xn[flipped] = np.where(side[flipped] > 0.0, lo[flipped], hi[flipped])
            flips += flipped.size

        w = Binv @ A[:, q]
        if w[r] != 0.0 and math.isfinite(w[r]):
            _update_inverse(Binv, r, w)
            updates += 1
        else:
            Binv = None  # a zero pivot: invert the new basis instead
        leave = basis[r]
        xn[leave] = basic_hi[r] if to_upper else basic_lo[r]
        side[leave] = 0.0 if fixed[leave] else (-1.0 if to_upper else 1.0)
        if side[q] == 0.0:
            free = free[free != q]  # only a free column enters from side 0
        xn[q] = side[q] = 0.0
        basis[r] = q
        basic_lo[r], basic_hi[r] = lo[q], hi[q]
        changes += 1


def _point(xn, basis, xb):
    """The whole point: the nonbasic values `xn` with the basic ones filled in."""
    x = xn.copy()
    x[basis] = xb
    return x


def _bound_flipping_ratio_test(reduced, alpha, side, free, width, slope, opts):
    """(entering column, columns to flip) of a dual ratio test, or (None, _) for a dual ray.

    The reduced costs move by -theta * alpha as theta grows from zero, and
    the dual objective rises at rate `slope`, the leaving row's
    infeasibility.  A nonbasic column blocks at its breakpoint
    reduced / alpha (clamped at zero) when alpha has the sign that drives its
    reduced cost towards the wrong sign: side * alpha > 0 for a column at a
    bound (`side` is +1 at a lower, -1 at an upper bound, 0 for basic and
    fixed columns), either sign for one of the `free` columns at zero.
    Passing a breakpoint flips its column to its other bound and lowers the
    slope by |alpha| * width.  Breakpoints are taken in groups: each group
    holds every remaining one up to the smallest Harris bound
    (reduced + opt_tol * sign(alpha)) / alpha.  A group passes whole while
    the slope stays above feas_tol; otherwise its column with the largest
    |alpha| (lowest index on ties) enters.
    """
    blocks = side * alpha > _PIVOT_TOL
    blocks[free] = np.abs(alpha[free]) > _PIVOT_TOL
    cand = np.flatnonzero(blocks)
    if cand.size == 0:
        return None, cand
    a = alpha[cand]
    mag = np.abs(a)
    ratio = reduced[cand] / a
    harris = ratio + opts.opt_tol / mag
    np.maximum(ratio, 0.0, out=ratio)
    drops = mag * width[cand]
    group = ratio <= max(harris.min(), 0.0)
    left, passed = None, []
    while True:
        drop = drops[group].sum()
        if slope - drop <= opts.feas_tol:
            q = int(cand[np.where(group, mag, -1.0).argmax()])
            return q, (np.concatenate(passed) if passed else cand[:0])
        passed.append(cand[group])
        slope -= drop
        left = ~group if left is None else left & ~group
        if not left.any():
            return None, cand[:0]  # every breakpoint passed: the dual objective rises without end
        group = left & (ratio <= max(harris[left].min(), 0.0))


def _norm1(M):
    """The 1-norm (largest column sum of magnitudes) of a matrix; 0 if it is empty."""
    return np.abs(M).sum(axis=0).max(initial=0.0)


def _update_inverse(Binv, pos, w):
    """Turn `Binv` into the inverse of B with column `pos` replaced by a, where
    `w = Binv @ a`: the rank-one (product-form) update."""
    row = Binv[pos] / w[pos]
    Binv -= np.outer(w, row)
    Binv[pos] = row


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
    """Solve `lp` by the bounded dual simplex where its structure allows, else two-phase.

    The returned point covers exactly the variables of `lp`, in their original
    order.  A program that qualifies for the dual simplex (see the module
    docstring) is OPTIMAL from it only if a fresh inverse puts every basic
    value within its bounds +- `opts.feas_tol` and every reduced cost on
    the right side of +- `opts.opt_tol`.  Any other ending of the dual
    simplex hands the program to the primal two-phase path.  An OPTIMAL
    verdict there means pricing on a freshly inverted (or freshly solved)
    basis found no optimality violation above `opts.opt_tol`; the basic
    values are not checked against their bounds afterwards, so such a point
    may lie outside them by more than `opts.feas_tol`.  ITERATION_LIMIT
    outcomes carry no point at all.  This is where a program is routed to
    the dual simplex and to fresh solves, from the start or after the
    inverse fails.
    """
    A, b, lo, hi = _standard_form(lp)
    n = lp.num_vars
    cost = np.zeros(A.shape[1])
    cost[:n] = lp.objective if lp.sense is Sense.MINIMIZE else -lp.objective
    coefficients = np.abs(A[A != 0.0])
    fresh = coefficients.size > 0 and coefficients.max() > _WIDE_SCALE * coefficients.min()
    outcome = None
    if _dual_start(b, lo, hi, cost):
        verdict, x, _, _ = _dual_simplex(A, b, cost, lo, hi, opts, 50 * (A.shape[0] + n))
        if verdict == "optimal":
            outcome = LPOutcome(SolveStatus.OPTIMAL, x)
    if outcome is None:
        outcome = _two_phase(A, b, lo, hi, cost, n, opts, fresh)
    if outcome is None:
        outcome = _two_phase(A, b, lo, hi, cost, n, opts, fresh=True)
    if not outcome.is_optimal:
        return outcome
    point = _frozen(outcome.point[:n])
    return LPOutcome(SolveStatus.OPTIMAL, point, float(lp.objective @ point))


def _two_phase(A, b, lo, hi, cost, n, opts, fresh):
    """The outcome of both phases on the standard form, with the whole point
    if OPTIMAL; None where the updated inverse met a singular basis.

    Where every row is an inequality and the residual b - A x at the parking
    point x (`_initial_status`) is >= 0, each slack absorbs its row's
    residual within its bounds, so the slack basis is feasible: phase 2
    starts from it and phase 1 does not run.  A program with an equality
    row or a negative residual runs phase 1 from the all-artificial basis.
    """
    m, N = A.shape
    iter_budget = 50 * (m + n)
    stat = _initial_status(lo, hi)
    resid = b - A @ _nonbasic_point(lo, hi, stat)
    if N - n == m and (resid >= 0.0).all():
        basis = np.arange(n, N)
        stat[n:] = _BASIC
        used = 0
    else:
        # Phase 1: artificial column per row, signed so artificials start >= 0.
        A = np.hstack([A, np.diag(np.where(resid >= 0, 1.0, -1.0))])
        lo = np.concatenate([lo, np.zeros(m)])
        hi = np.concatenate([hi, np.full(m, math.inf)])
        cost1 = np.concatenate([np.zeros(N), np.ones(m)])
        basis = np.arange(N, N + m)
        stat = np.concatenate([stat, np.full(m, _BASIC, dtype=np.int8)])

        verdict, x, used, _ = _run_simplex(
            A, b, cost1, lo, hi, basis, stat, opts, iter_budget,
            phase1_floor=opts.feas_tol * 1e-3, fresh=fresh,
        )
        if verdict == "singular" and not fresh:
            return None
        if verdict != "optimal":
            return _stopped(verdict, used, iter_budget)
        if float(cost1 @ x) > opts.feas_tol:
            return LPOutcome(SolveStatus.INFEASIBLE)

        _drive_out_artificials(A, lo, hi, basis, stat, N)
        lo[N:] = 0.0
        hi[N:] = 0.0  # artificials are frozen out of phase 2
        cost = np.concatenate([cost, np.zeros(m)])

    verdict, x, more, _ = _run_simplex(
        A, b, cost, lo, hi, basis, stat, opts, iter_budget - used, fresh=fresh,
    )
    if verdict == "singular" and not fresh:
        return None
    if verdict == "unbounded":
        return LPOutcome(SolveStatus.UNBOUNDED)
    if verdict != "optimal":
        return _stopped(verdict, used + more, iter_budget)
    return LPOutcome(SolveStatus.OPTIMAL, x)

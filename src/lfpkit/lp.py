"""Dense simplex solver for small linear programs: a bounded dual simplex
from a start that is dual feasible by construction, which every program
enters, and two phases of the primal simplex for every program it leaves
unsolved, both on one basis kernel.

A `LinearProgram` holds its data as arrays in scipy `linprog`'s layout: an
inequality block `A_ub x <= b_ub`, an equality block `A_eq x = b_eq` and
per-variable bounds `lo <= x <= hi` (nonnegative by default; boxed, one-sided
or free as given).  Like `LFPProblem` and `Polyhedron`, it checks its shapes
in field order, a vector field with exactly one axis, and then its values:
all entries but the bounds in one pass, `_check_finite`, which names the
first field with a non-finite entry, then the bounds for a NaN or an empty
interval.  One private function, `_standard_form`, lays them out as
`[[A_ub, I, 0], [A_eq, 0, I]]`, one slack per inequality row and one
artificial per equality row, inequality rows first: the dual simplex's
start.  The primal path and `complementarity`'s optimal faces read its
columns before the artificials.  Free variables are kept as single columns
that may move in either direction; box bounds are handled with bound flips
in the ratio tests instead of extra rows.

`solve_lp` starts every program on the bounded dual simplex.  Its start is
dual feasible by construction: the slack is basic in each inequality row and
an artificial fixed at [0, 0] in each equality row, both of cost 0, so the
row duals are 0 and the reduced costs are the costs, and each column is
parked at the bound its cost favours.  A column whose cost favours an
infinite bound parks at an artificial bound instead, 1e6 beyond zero or its
other bound, whichever lies farther out (artificial bounding, the textbook
dual phase 1).  Dual steepest edge picks the leaving row, and a
bound-flipping ratio test with Harris tolerances picks the entering column.
The run may make 50 * (rows + cols) basis changes, except on a wide-scale
program, one whose nonzero constraint coefficients span more than five
orders of magnitude, so that the inverses of its bases are too poorly
conditioned to update.  Such a program keeps that budget only if it is
homogeneous: b = 0, every lo <= 0 <= hi, and every column can park at a
finite bound its cost favours (cost 0 on a free column), so no artificial
bound is needed and x = 0 shows the program feasible and bounded.  Every
support-maximizing LP of `interior` is such a program, with equality rows
only, so its start is the all-artificial basis.  Any other wide-scale
program may make no basis change at all: its start, read off the identity
without an inversion, counts only if it is already optimal.  The dual
OPTIMAL verdict reads either the untouched start, the identity, or a freshly
inverted basis, on which every basic value lies within its bounds
+- feas_tol and no reduced cost has the wrong sign by more than opt_tol, and
it counts only if no column sits nonbasic at an artificial bound.  Any other
ending (a dual ray, an active artificial bound, a singular basis, the
iteration cap or a failed final check) hands the program to the primal path,
so the INFEASIBLE and UNBOUNDED verdicts come from the primal path alone.

The primal path runs phase 1 from the all-artificial basis: one artificial
column per row, signed so that it starts >= 0 with every other column at
its parking point (its finite lower bound, else its finite upper bound,
else 0).  Phase 1 minimizes the total artificial infeasibility, then phase
2 optimizes the real objective from the feasible basis phase 1 produced.
Pivoting uses Dantzig's rule with a largest-pivot tie-break, switching to
Bland's rule once 2 * (rows + cols) degenerate steps have accumulated,
which guarantees termination on highly degenerate systems.  Its OPTIMAL
verdict comes from pricing on a freshly inverted (or freshly solved) basis;
the basic values are not checked against their bounds afterwards, so its
point may lie outside them by more than feas_tol.  Pricing, the ratio test
and the drive-out of artificials are numpy mask operations over whole
columns and basic rows, with the tie-breaks a scan in index order would
give.

Each method stops after 50 * (rows + cols) iterations (across both phases
of the primal path, where a bound flip is an iteration of its own); the
cap is fixed, not an option.  All choices are index-deterministic: the
same program and options always produce the same outcome, down to its
`runs`, the record of each simplex run's verdict, basis changes, bound
flips and inversions (`_Basis` counts them) that every outcome carries.

Both loops run on one private basis kernel, `_Basis`, and keep only their
pricing, ratio tests and verdicts.  The kernel holds the basic columns and
parks every other column at a `side`: +1 at its lower bound, -1 at its
upper one, 0 if fixed or if `free` and parked at zero.  It keeps the
parked values in `xn` (the basic columns at 0) and b - A xn, which it
recomputes only after a move that changes the bits of `xn`.  It also keeps
an explicit inverse of the basis matrix B.  The dual simplex's start basis
is the identity, which is its own inverse, bit for bit; the primal path's
is inverted at the start.  B is inverted every 10 basis changes, before
any verdict reached after a change, and after a zero or non-finite pivot
element or a drive-out of artificials; every other basis change updates
the inverse by a rank-one (product-form) step.  An inversion that fails,
or whose condition number exceeds 1e12, ends the attempt.  On the primal
path the program is then solved again from the start on a kernel that
makes three fresh solves with B per pivot instead, and that outcome
counts; a wide-scale program takes the primal path with fresh solves from
the start.

The private `_solved` solves each labelled LP of the package (denominator,
stage 1, the primal and joint faces, maximal-element): it logs the outcome
on the `lfpkit` logger, returns it if OPTIMAL, raises the caller's error for
an INFEASIBLE or UNBOUNDED verdict the caller names, else IterationLimitError.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import IterationLimitError

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


def _vector(name: str, values, error=ValueError) -> np.ndarray:
    """`values` as `_frozen` stores them; raises `error` naming `name` unless they have one axis."""
    array = _frozen(values)
    if array.ndim != 1:
        raise error(f"{name} must be a vector, got an array with {array.ndim} axes")
    return array


def _check_finite(arrays: dict) -> None:
    """Raise ValueError naming the first of `arrays` (name -> array) with a non-finite entry.

    One pass over all entries; the arrays are looked at one by one only to name the fault.
    """
    if not np.isfinite(np.concatenate([array.ravel() for array in arrays.values()])).all():
        bad = next(name for name, array in arrays.items() if not np.isfinite(array).all())
        raise ValueError(f"{bad} has a non-finite entry")


# Silent by default: the package adds no handler and sets no level.
_logger = logging.getLogger("lfpkit")


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
        # The shapes in field order, then the values: all but the bounds in one pass.
        if not isinstance(self.sense, Sense):
            raise ValueError(f"sense must be a Sense member, got {self.sense!r}")
        objective = _frozen(self.objective)
        if objective.ndim != 1 or objective.size == 0:
            raise ValueError("objective must be a non-empty vector")
        n, arrays = objective.size, {"objective": objective}
        for block, rhs in (("A_ub", "b_ub"), ("A_eq", "b_eq")):
            A, b = getattr(self, block), getattr(self, rhs)
            if b is None and A is not None:
                raise ValueError(f"{block} is given without {rhs}")
            arrays[block] = A = _frozen(np.empty((0, n)) if A is None else A)
            arrays[rhs] = b = _frozen(() if b is None else b)
            if A.ndim != 2 or A.shape[1] != n:
                raise ValueError(f"{block} has shape {A.shape}, expected (rows, {n})")
            if b.shape != (A.shape[0],):
                raise ValueError(f"{rhs} has shape {b.shape}, expected ({A.shape[0]},)")
        lo = _frozen(np.zeros(n) if self.lo is None else self.lo)
        hi = _frozen(np.full(n, math.inf) if self.hi is None else self.hi)
        for name, bound in (("lo", lo), ("hi", hi)):
            if bound.shape != (n,):
                raise ValueError(f"{name} has shape {bound.shape}, expected ({n},)")
        _check_finite(arrays)
        # A bound may be infinite but not NaN; no real lies in [inf, inf] or [-inf, -inf].
        if (self.lo is not None or self.hi is not None) and not (
                (lo <= hi).all() and lo.max() < math.inf and hi.min() > -math.inf):
            for name, bound in (("lo", lo), ("hi", hi)):
                if np.isnan(bound).any():
                    raise ValueError(f"{name} has a NaN entry")
            j = int(np.flatnonzero((lo > hi) | (lo == math.inf) | (hi == -math.inf))[0])
            raise ValueError(f"empty bound interval [{lo[j]}, {hi[j]}] for variable {j}")
        for name, array in {**arrays, "lo": lo, "hi": hi}.items():
            object.__setattr__(self, name, array)

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
    """Solver verdict; `point`, `objective` and `duals` are present iff OPTIMAL.

    `duals` holds one entry per row, the `A_ub` rows first and then the
    `A_eq` rows, in the program's own sense: the rate at which the optimal
    objective changes per unit of that row's right-hand side.  They come
    from the final basis, with the reduced costs that made the verdict.

    `detail` says why an ITERATION_LIMIT solve stopped: "iteration cap of N
    reached", "singular basis after k pivots", or (a numerical breakdown, as
    phase-1 objectives are bounded) "unbounded phase-1 ray after k pivots".
    k counts the basis changes and bound flips of both phases of the primal
    attempt that stopped.  It leaves out the basis changes of a dual attempt
    made first, and the pivots of an attempt on the kept inverse that met a
    singular basis before the fresh solves took over.

    `runs` holds one (method, verdict, basis_changes, bound_flips, inversions)
    tuple per simplex run, in call order: "dual" or "primal" (one run per
    phase), the run's own verdict, its basis changes (a primal run's leave
    out its bound flips) and flips, and its attempts to invert a basis
    matrix, one that raises included.  It is output only.
    """

    status: SolveStatus
    point: np.ndarray | None = None
    objective: float | None = None
    detail: str | None = None
    duals: np.ndarray | None = None
    runs: tuple = ()

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


# |pivot| below this is treated as zero in ratio tests and drive-out steps.
_PIVOT_TOL = 1e-10

# Basis changes between two inversions of the basis matrix in `_Basis`.
_REFACTOR_INTERVAL = 10

# An inverse of the basis matrix whose 1-norm condition number exceeds this
# counts as singular: `solve_lp` then solves again on the primal path, with
# fresh solves if the inverse failed there.
_ILL_CONDITIONED = 1e12

# A program whose nonzero constraint coefficients span a wider ratio than this
# makes its primal attempt with fresh solves from the start, and unless it is
# homogeneous its dual run makes no basis change: the inverses of its bases
# are too poorly conditioned to update.
_WIDE_SCALE = 1e5

# The dual simplex's start parks a column whose cost favours an infinite
# bound at an artificial bound this far out instead.
_BOX = 1e6


def _park(lo, hi, cost=None):
    """(side, point) of every column parked at its finite lower bound (side +1),
    else its finite upper bound (-1), else zero (0); with `cost`, a column of
    cost < 0 parks at its upper bound and one of cost > 0 at its lower bound."""
    side = np.where(np.isfinite(lo), 1.0, np.where(np.isfinite(hi), -1.0, 0.0))
    if cost is not None:
        side = np.where(cost < 0.0, -1.0, np.where(cost > 0.0, 1.0, side))
    return side, np.where(side > 0.0, lo, np.where(side < 0.0, hi, 0.0))


class _Basis:
    """A basis of A x = b, lo <= x <= hi, and the parking of the other columns.

    `cols` lists the basic columns in row order; `side`, `free` and `xn` are
    the module docstring's, taken over from `parked` (a `_park` result), and
    `fixed` marks lo = hi.  Without `fresh` it keeps B^-1 in `Binv`, with
    `updates` rank-one updates since its inversion; a caller whose start
    basis is the identity sets `Binv` to it, and the first `solve` inverts
    nothing.  `y` holds the row duals of the last `solve`, and `inversions`
    counts the attempts to invert B, one that raises included.
    """

    def __init__(self, A, b, lo, hi, cols, parked, fresh=False):
        self.A, self.b, self.lo, self.hi, self.cols, self.fresh = A, b, lo, hi, cols, fresh
        self.side, self.xn = parked
        self.fixed = hi - lo <= 0.0
        self.free = self.side == 0.0
        self.free[cols] = False
        self.side[self.fixed] = 0.0
        self.side[cols] = self.xn[cols] = 0.0
        self.Binv, self.updates, self.rhs, self.y, self.inversions = None, 0, None, None, 0

    def point(self, xb):
        """The whole point: `xn` with the basic values `xb` filled in."""
        x = self.xn.copy()
        x[self.cols] = xb
        return x

    def solve(self, cost):
        """(basic values, reduced costs) of the basis, inverting B first when
        due; None where B is singular or its new inverse ill-conditioned."""
        if self.rhs is None:
            self.rhs = self.b - self.A @ self.xn
        try:
            if self.fresh:
                self.B = B = self.A[:, self.cols]
                xb, y = np.linalg.solve(B, self.rhs), np.linalg.solve(B.T, cost[self.cols])
            else:
                if self.Binv is None or self.updates >= _REFACTOR_INTERVAL:
                    B = self.A[:, self.cols]
                    self.inversions += 1
                    self.Binv, self.updates = np.linalg.inv(B), 0
                    if _norm1(B) * _norm1(self.Binv) > _ILL_CONDITIONED:
                        return None
                xb, y = self.Binv @ self.rhs, cost[self.cols] @ self.Binv
        except np.linalg.LinAlgError:
            return None
        self.y = y
        return xb, cost - self.A.T @ y

    def column(self, q):
        """B^-1 a_q, for the column q about to enter."""
        a = self.A[:, q]
        return np.linalg.solve(self.B, a) if self.fresh else self.Binv @ a

    def settled(self):
        """Whether the last `solve` read a B^-1 not updated since it was
        inverted or set (or a fresh solve), as a verdict needs; if not, the
        next `solve` inverts B to confirm it."""
        if self.updates:
            self.Binv = None
        return not self.updates

    def flip(self, cols):
        """Move the nonbasic boxed columns `cols` to their other bounds."""
        self.side[cols] = -self.side[cols]
        self.xn[cols] = np.where(self.side[cols] > 0.0, self.lo[cols], self.hi[cols])
        self.rhs = None

    def exchange(self, r, q, w, to_upper):
        """Column q enters in row r, and the column basic there leaves at its
        upper bound if `to_upper`, else at its lower one.  B^-1 takes the
        rank-one update by `w` = B^-1 a_q, or is inverted at the next `solve`
        where `w` is None or its pivot element w[r] is zero or not finite."""
        if not self.fresh and w is not None and w[r] != 0.0 and math.isfinite(w[r]):
            _update_inverse(self.Binv, r, w)
            self.updates += 1
        else:
            self.Binv = None
        leave, parked = self.cols[r], self.xn[q]
        left = self.xn[leave] = self.hi[leave] if to_upper else self.lo[leave]
        self.side[leave] = 0.0 if self.fixed[leave] else (-1.0 if to_upper else 1.0)
        self.xn[q] = self.side[q] = 0.0
        self.free[q] = False
        self.cols[r] = q
        # Basic columns sit at +0.0, so xn keeps its bits iff both moved values are +0.0.
        if parked or left or math.copysign(1.0, parked) < 0.0 or math.copysign(1.0, left) < 0.0:
            self.rhs = None


def _norm1(M):
    """The 1-norm (largest column sum of magnitudes) of a matrix; 0 if it is empty."""
    return np.abs(M).sum(axis=0).max(initial=0.0)


def _update_inverse(Binv, pos, w):
    """Turn `Binv` into the inverse of B with column `pos` replaced by a, where
    `w = Binv @ a`: the rank-one (product-form) update."""
    row = Binv[pos] / w[pos]
    Binv -= w[:, None] * row
    Binv[pos] = row


def _choose_entering(reduced, side, free, opt_tol, bland):
    """Return (column, direction) of the entering variable, or (None, 0).

    Direction is the sign in which the entering variable moves.  Dantzig mode
    picks the largest optimality violation (lowest index on ties); Bland mode
    picks the lowest eligible index.  Basic and fixed columns (side 0 and not
    `free`) never enter.
    """
    # Violation by side: -r at a lower bound, r at an upper bound, |r| for a
    # free variable at zero.
    viol = -side * reduced
    viol[free] = np.abs(reduced[free])
    viol[(side == 0.0) & ~free] = -math.inf
    j = int((viol > opt_tol).argmax() if bland else viol.argmax())
    if not viol[j] > opt_tol:
        return None, 0
    return j, (1 if reduced[j] < 0 else -1)


def _ratio_test(xb, w, cols, lo, hi, enter, direction, bland):
    """Largest admissible step for the entering variable.

    `xb` holds the values of the basic variables, in `cols` order.  Returns
    (step, leave_pos, to_upper): `leave_pos` indexes into `cols`, or is -1
    for a bound flip of the entering variable itself, and `to_upper` says
    whether the leaving variable stops at its upper bound; `step` is inf
    when nothing blocks the move.  Ties within 1e-11 relative of the minimum
    ratio go to the largest |pivot| and then the lowest column index
    (Dantzig mode), or to the lowest column index alone (Bland mode).
    """
    own = hi[enter] - lo[enter]  # inf unless the entering variable is boxed
    g = w if direction > 0 else -w  # rate at which each basic variable decreases
    mag = np.abs(g)
    blocking = mag > _PIVOT_TOL
    room = np.where(g > 0, xb - lo[cols], hi[cols] - xb)  # inf for an infinite bound
    limits = np.where(blocking, room, math.inf) / np.where(blocking, mag, 1.0)
    limits[limits < 0.0] = 0.0
    row_min = limits.min() if cols.size else math.inf

    if own <= row_min:
        return own, -1, False  # entering variable flips to its other bound, or inf

    tie = row_min + 1e-11 * (1.0 + row_min)
    candidates = (limits <= tie).nonzero()[0]
    if candidates.size > 1:
        if not bland:
            top = mag[candidates]
            candidates = candidates[top == top.max()]
        pos = int(candidates[cols[candidates].argmin()])
    else:
        pos = int(candidates[0])
    return row_min, pos, bool(g[pos] < 0.0)


def _run_simplex(basis, cost, opts, iter_budget, phase1_floor=None):
    """Iterate to optimality on one phase, moving `basis` along.

    Returns (verdict, point, pivots, bound_flips): the pivots count bound
    flips and basis changes alike, the verdict is "optimal", "unbounded",
    "iteration_limit" or "singular" (a basis that `basis.solve` rejects),
    and the point, over the columns of `basis.A`, comes with "optimal"
    only.  `phase1_floor` enables the early exit for phase-1 objectives,
    which are bounded below by zero.
    """
    bland, degenerate = False, 0
    bland_trigger = 2 * sum(basis.A.shape)
    used = flips = 0
    while True:
        solved = basis.solve(cost)
        if solved is None:
            return "singular", None, used, flips
        xb, reduced = solved
        if phase1_floor is not None and float(cost @ basis.point(xb)) <= phase1_floor:
            q = None
        else:
            q, direction = _choose_entering(reduced, basis.side, basis.free, opts.opt_tol, bland)
        if q is None:
            if basis.settled():
                return "optimal", basis.point(xb), used, flips
            continue
        if used >= iter_budget:
            return "iteration_limit", None, used, flips

        w = basis.column(q)
        step, r, to_upper = _ratio_test(xb, w, basis.cols, basis.lo, basis.hi, q, direction, bland)
        if math.isinf(step):
            if basis.settled():
                return "unbounded", None, used, flips
            continue
        if r < 0:
            basis.flip(q)
            flips += 1
        else:
            basis.exchange(r, q, w, to_upper)
        used += 1
        if step <= opts.feas_tol:
            degenerate += 1
            if degenerate > bland_trigger:
                bland = True


def _dual_simplex(basis, cost, opts, iter_budget):
    """Bounded dual simplex from a dual-feasible `basis` that keeps B^-1.

    The start `_dual_attempt` builds is dual feasible by construction, so no
    phase 1 is needed.  Each iteration picks the leaving row by dual
    steepest edge (infeasibility squared over the squared norm of its row of
    B^-1) and the entering column by a bound-flipping ratio test with Harris
    tolerances: boxed columns whose breakpoints come first flip to their
    other bound while the dual slope stays positive, and the entering column
    is the one of the last group with the largest |alpha|, the lowest index
    on ties.

    Returns (verdict, point, basis_changes, bound_flips).  "optimal", the one
    verdict with a point (over the columns of `basis.A`), needs B^-1 as set
    for the identity start or freshly inverted, every basic value within its
    bounds +- feas_tol and no reduced cost on the wrong side by more than
    opt_tol.  The rest are breakdowns: "singular" (as in `_run_simplex`),
    "dual_ray" (no column can enter), "iteration_limit" (`iter_budget` basis
    changes) or "dual_infeasible" (the final check failed).
    """
    A, lo, hi = basis.A, basis.lo, basis.hi
    width = hi - lo
    # The bounds of the basic columns in row order, and the nonbasic free columns.
    basic_lo, basic_hi = lo[basis.cols], hi[basis.cols]
    free = basis.free.nonzero()[0]
    changes = flips = 0
    while True:
        solved = basis.solve(cost)
        if solved is None:
            return "singular", None, changes, flips
        xb, reduced = solved
        infeasible = np.maximum(basic_lo - xb, xb - basic_hi)
        rows = (infeasible > opts.feas_tol).nonzero()[0]
        if rows.size == 0:
            if not basis.settled():
                continue
            q, _ = _choose_entering(reduced, basis.side, basis.free, opts.opt_tol, True)
            if q is not None:
                return "dual_infeasible", None, changes, flips
            return "optimal", basis.point(xb), changes, flips
        if changes >= iter_budget:
            return "iteration_limit", None, changes, flips

        r = int(rows[0])
        if rows.size > 1:
            # Dual steepest edge: the exact row norms of B^-1 come with the inverse.
            norms = basis.Binv[rows]
            scores = infeasible[rows] ** 2 / np.einsum("ij,ij->i", norms, norms)
            r = int(rows[scores.argmax()])
        to_upper = xb[r] > basic_hi[r]
        alpha = basis.Binv[r] @ A
        if not to_upper:
            alpha = -alpha  # the reduced costs move by -theta * alpha, theta >= 0
        q, flipped = _bound_flipping_ratio_test(
            reduced, alpha, basis.side, free, width, infeasible[r], opts
        )
        if q is None:
            return "dual_ray", None, changes, flips
        if flipped.size:
            basis.flip(flipped)
            flips += flipped.size
        entered_free = basis.free[q]
        basis.exchange(r, q, basis.column(q), to_upper)
        basic_lo[r], basic_hi[r] = lo[q], hi[q]
        if entered_free:
            free = basis.free.nonzero()[0]
        changes += 1


def _bound_flipping_ratio_test(reduced, alpha, side, free, width, slope, opts):
    """(entering column, columns to flip) of a dual ratio test, or (None, _) for a dual ray.

    The reduced costs move by -theta * alpha as theta grows from zero, and
    the dual objective rises at rate `slope`, the leaving row's
    infeasibility.  A nonbasic column blocks at its breakpoint
    reduced / alpha (clamped at zero) when alpha has the sign that drives its
    reduced cost towards the wrong sign: side * alpha > 0 for a column at a
    bound (`side` is +1 at a lower, -1 at an upper bound, 0 for basic and
    fixed columns), either sign for a free column at zero (`free` lists them).
    Passing a breakpoint flips its column to its other bound and lowers the
    slope by |alpha| * width.  Breakpoints are taken in groups: each group
    holds every remaining one up to the smallest Harris bound
    (reduced + opt_tol * sign(alpha)) / alpha.  A group passes whole while
    the slope stays above feas_tol; otherwise its column with the largest
    |alpha| (lowest index on ties) enters.
    """
    blocks = side * alpha > _PIVOT_TOL
    if free.size:
        blocks[free] = np.abs(alpha[free]) > _PIVOT_TOL
    cand = blocks.nonzero()[0]
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


def _drive_out_artificials(basis, n_real):
    """Swap basic artificial variables for real columns where a pivot exists.

    Every swap is a zero-step pivot (the artificial sits at value zero), so
    feasibility is untouched.  Artificials left behind mark redundant rows and
    stay basic, pinned at zero by their bounds.  Each swap takes the movable
    nonbasic real column with the largest |pivot|, the lowest index on ties;
    the artificial leaves at its lower bound, and B^-1 is inverted afresh.
    """
    A, cols = basis.A, basis.cols
    for pos in range(cols.size):
        if cols[pos] < n_real:
            continue
        e = np.zeros(cols.size)
        e[pos] = 1.0
        try:
            g = np.linalg.solve(A[:, cols].T, e)
        except np.linalg.LinAlgError:
            continue
        mag = np.abs(g @ A[:, :n_real])
        mag[(basis.side[:n_real] == 0.0) & ~basis.free[:n_real]] = 0.0
        best = int(mag.argmax())
        if mag[best] > _PIVOT_TOL:
            basis.exchange(pos, best, None, False)


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
    """(A, b, lo, hi) of `lp` as equalities over (x, one [0, inf) slack per A_ub row,
    one [0, 0] artificial per A_eq row): A = [[A_ub, I, 0], [A_eq, 0, I]], whose
    columns before the artificials are `lp` in standard form."""
    n, m, n_slack = lp.num_vars, lp.num_rows, lp.b_ub.size
    A, lo, hi = np.zeros((m, n + m)), np.zeros(n + m), np.zeros(n + m)
    A[:n_slack, :n], A[n_slack:, :n] = lp.A_ub, lp.A_eq
    np.fill_diagonal(A[:, n:], 1.0)
    lo[:n], hi[:n], hi[n : n + n_slack] = lp.lo, lp.hi, math.inf
    return A, np.concatenate((lp.b_ub, lp.b_eq)), lo, hi


def solve_lp(lp: LinearProgram, opts: SolverOptions = SolverOptions()) -> LPOutcome:
    """Solve `lp` by the bounded dual simplex, else by the primal two-phase path,
    routed as the module docstring says.

    The returned point covers exactly the variables of `lp`, in their original
    order, and only an OPTIMAL outcome has one.  `runs` holds the runs of
    both paths, in call order.
    """
    A, b, lo, hi = _standard_form(lp)
    n, N = lp.num_vars, lp.num_vars + lp.b_ub.size
    standard = A[:, :N]  # `lp` in standard form: the columns before the artificials
    cost = np.zeros(A.shape[1])
    cost[:n] = lp.objective if lp.sense is Sense.MINIMIZE else -lp.objective
    coefficients = np.abs(standard[standard != 0.0])
    wide = coefficients.size > 0 and coefficients.max() > _WIDE_SCALE * coefficients.min()
    runs = []
    outcome = _dual_attempt(A, b, lo, hi, cost, n, opts, wide, runs)
    if outcome is None:
        A, lo, hi, cost = standard, lo[:N], hi[:N], cost[:N]
        outcome = _two_phase(A, b, lo, hi, cost, n, opts, runs, wide)
    if outcome is None:
        outcome = _two_phase(A, b, lo, hi, cost, n, opts, runs, fresh=True)
    if not outcome.is_optimal:
        return replace(outcome, runs=tuple(runs))
    point = _frozen(outcome.point[:n])
    # The solver minimizes `cost`, so a maximized objective's duals change sign.
    duals = _frozen(outcome.duals if lp.sense is Sense.MINIMIZE else -outcome.duals)
    return LPOutcome(SolveStatus.OPTIMAL, point, float(lp.objective @ point), duals=duals,
                     runs=tuple(runs))


def _solved(label: str, lp: LinearProgram, opts: SolverOptions = SolverOptions(),
            faults: dict | None = None) -> LPOutcome:
    """The OPTIMAL outcome of `lp`, the LP named `label`, judged by `_judged` once
    a DEBUG record of it is on `_logger`, so a solve that then raises is logged too."""
    out = solve_lp(lp, opts)
    _logger.debug("%s LP: %s, simplex runs: %d", label, out.status.value, len(out.runs),
                  extra={"lp": label, "outcome": out})
    return _judged(label, out, faults)


def _judged(label: str, out: LPOutcome, faults: dict | None) -> LPOutcome:
    """`out`, the outcome of the LP named `label`, if OPTIMAL.  Otherwise raises
    `faults[out.status]` where the caller says what that verdict means for its
    LP, and IterationLimitError for any other verdict: a breakdown."""
    if out.is_optimal:
        return out
    if out.status in (faults or {}):
        raise faults[out.status]
    reason = out.detail or "a numerical breakdown, as the LP is feasible and bounded"
    raise IterationLimitError(f"{label} solve ended with status {out.status.value}: {reason}")


def _dual_attempt(A, b, lo, hi, cost, n, opts, wide, runs):
    """The dual simplex's OPTIMAL outcome on the standard form, with the
    whole point and the minimization's row duals; None for any other ending.
    The run goes onto `runs`.  The module docstring gives its start, its
    budget (none for a `wide` program that is not homogeneous) and the
    checks its verdict must pass.
    """
    m, W = A.shape
    parked = _park(lo, hi, cost)
    boxed = np.isinf(parked[1])  # the columns whose cost favours an infinite bound
    any_boxed = boxed.any()
    homogeneous = not (any_boxed or b.any() or lo.max() > 0.0 or hi.min() < 0.0)
    iter_budget = 50 * (m + n) if homogeneous or not wide else 0
    if any_boxed:
        boxed_hi, boxed_lo = boxed & (cost < 0.0), boxed & (cost > 0.0)
        lo, hi = (np.where(boxed_lo, np.minimum(hi, 0.0) - _BOX, lo),
                  np.where(boxed_hi, np.maximum(lo, 0.0) + _BOX, hi))
        parked = _park(lo, hi, cost)
    basis = _Basis(A, b, lo, hi, np.arange(n, W), parked)
    basis.Binv = np.eye(m)  # the start basis is the identity, so this is its inverse, bit for bit
    verdict, x, changes, flips = _dual_simplex(basis, cost, opts, iter_budget)
    runs.append(("dual", verdict, changes, flips, basis.inversions))
    side = basis.side
    if verdict != "optimal" or any_boxed and (boxed_hi & (side < 0) | boxed_lo & (side > 0)).any():
        return None
    return LPOutcome(SolveStatus.OPTIMAL, x, duals=basis.y)


def _two_phase(A, b, lo, hi, cost, n, opts, runs, fresh):
    """The outcome of both phases on the standard form, with the whole point
    and the minimization's row duals if OPTIMAL; None where the kept inverse
    met a singular basis.  Each phase's run goes onto `runs`.

    Phase 1 runs from the all-artificial basis, each artificial signed to
    absorb its row's residual b - A x at the parking point x (`_park`), and
    phase 2 goes on from the basis phase 1 left.
    """
    m, N = A.shape
    iter_budget = 50 * (m + n)
    lo, hi = np.concatenate([lo, np.zeros(m)]), np.concatenate([hi, np.full(m, math.inf)])
    parked = _park(lo, hi)
    # Phase 1: artificial column per row, signed so artificials start >= 0.
    signs = np.where(b - A @ parked[1][:N] >= 0, 1.0, -1.0)
    basis = _Basis(np.hstack([A, np.diag(signs)]), b, lo, hi, np.arange(N, N + m), parked, fresh)
    cost1 = np.concatenate([np.zeros(N), np.ones(m)])
    verdict, x, used, flips = _run_simplex(
        basis, cost1, opts, iter_budget, phase1_floor=opts.feas_tol * 1e-3,
    )
    runs.append(("primal", verdict, used - flips, flips, basis.inversions))
    if verdict == "singular" and not fresh:
        return None
    if verdict != "optimal":
        return _stopped(verdict, used, iter_budget)
    if float(cost1 @ x) > opts.feas_tol:
        return LPOutcome(SolveStatus.INFEASIBLE)

    _drive_out_artificials(basis, N)
    basis.hi[N:], basis.fixed[N:], basis.side[N:] = 0.0, True, 0.0  # frozen out of phase 2
    cost = np.concatenate([cost, np.zeros(m)])
    inverted = basis.inversions
    verdict, x, more, flips = _run_simplex(basis, cost, opts, iter_budget - used)
    runs.append(("primal", verdict, more - flips, flips, basis.inversions - inverted))
    if verdict == "singular" and not fresh:
        return None
    if verdict == "unbounded":
        return LPOutcome(SolveStatus.UNBOUNDED)
    if verdict != "optimal":
        return _stopped(verdict, used + more, iter_budget)
    return LPOutcome(SolveStatus.OPTIMAL, x, duals=basis.y)

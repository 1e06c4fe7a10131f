"""Relative interior points of polyhedra P = {x | Ax = b, x_j >= 0 unless j is free}.

A relative interior point of P is exactly a maximal element: a point whose
set of positive sign-constrained coordinates is as large as possible.  One LP
finds it.  Write each coordinate as x1_j + x2_j and the scaling as w1 + w2,
cap the second copies at one, and maximize their total:

    max  1.x2 + w2
    s.t. [A, -b] (x1 + x2, w1 + w2) = 0
         x1 >= 0, w1 >= 0,  0 <= x2 <= 1,  0 <= w2 <= 1.

Free coordinates (a Polyhedron's `free` mask) have a free x1 column, no
capped copy and are never in a support.

The homogenized system always admits zero, so the LP is feasible and (being
capped) bounded.  When P is non-empty the optimal w1 + w2 is positive and

    x_max = (x1 + x2) / (w1 + w2)

is a maximal element; w1 + w2 = 0 at the optimum certifies P is empty.  The
homogenization also absorbs unbounded polyhedra: coordinates that only become
positive along recession directions still show up in the support.

`coordinate_support_oracle` computes the same support the slow way, one LP
per coordinate, and exists so tests can cross-check the single-LP route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPolyhedron, IterationLimitError
from .lp import LinearProgram, LPOutcome, Sense, SolveStatus, SolverOptions, _frozen, solve_lp

__all__ = [
    "Polyhedron",
    "MaximalElement",
    "build_maximal_element_lp",
    "recover_maximal_element",
    "find_relative_interior_point",
    "coordinate_support_oracle",
]

DEFAULT_POS_TOL = 1e-7


@dataclass(frozen=True)
class Polyhedron:
    """{x | A_eq x = b_eq, x_j >= 0 unless free[j]}; no coordinate is free by default."""

    A_eq: np.ndarray
    b_eq: np.ndarray
    free: np.ndarray | None = None

    def __post_init__(self):
        A = _frozen(self.A_eq, ndmin=2)
        b = _frozen(self.b_eq).ravel()
        if A.shape[0] != b.size:
            raise ValueError(f"A_eq has {A.shape[0]} rows but b_eq has {b.size} entries")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("polyhedron data has a non-finite entry")
        free = np.array(np.zeros(A.shape[1]) if self.free is None else self.free, dtype=bool)
        if free.shape != (A.shape[1],):
            raise ValueError(f"free mask has shape {free.shape}, expected ({A.shape[1]},)")
        free.setflags(write=False)
        object.__setattr__(self, "A_eq", A)
        object.__setattr__(self, "b_eq", b)
        object.__setattr__(self, "free", free)

    @property
    def num_coords(self) -> int:
        return self.A_eq.shape[1]


@dataclass(frozen=True)
class MaximalElement:
    """A relative interior point and its support (1-based, sign-constrained coordinates)."""

    point: np.ndarray
    support: frozenset

    def __post_init__(self):
        object.__setattr__(self, "point", _frozen(self.point))
        object.__setattr__(self, "support", frozenset(int(j) for j in self.support))


def build_maximal_element_lp(poly: Polyhedron) -> LinearProgram:
    """The support-maximizing LP: columns (x1_1..x1_n, w1, x2_j for each sign-constrained j, w2)."""
    return _support_maximizing_lp(poly, ~poly.free)


def _support_maximizing_lp(poly: Polyhedron, capped: np.ndarray) -> LinearProgram:
    """The support-maximizing LP with capped copies only of the coordinates in `capped`.

    `capped` must not include a free coordinate.  An uncapped sign-constrained
    coordinate stays >= 0 but does not count towards the support, which suits
    one known to be positive on all of P.
    """
    m, n = poly.A_eq.shape
    half = np.hstack([poly.A_eq, -poly.b_eq.reshape(m, 1)])
    k = int(capped.sum())
    return LinearProgram(
        Sense.MAXIMIZE,
        np.concatenate([np.zeros(n + 1), np.ones(k + 1)]),
        A_eq=np.hstack([half, half[:, np.append(capped, True)]]),
        b_eq=np.zeros(m),
        lo=np.concatenate([np.where(poly.free, -np.inf, 0.0), np.zeros(k + 2)]),
        hi=np.concatenate([np.full(n + 1, np.inf), np.ones(k + 1)]),
    )


def recover_maximal_element(outcome: LPOutcome, poly: Polyhedron) -> MaximalElement:
    """Normalize an optimal solution of `build_maximal_element_lp(poly)` back into P.

    Raises EmptyPolyhedron when the optimal scaling weight is zero, which is
    the LP's certificate that P has no points at all.
    """
    point = _normalize(outcome, ~poly.free, SolverOptions.feas_tol)
    return MaximalElement(point, np.nonzero((point > DEFAULT_POS_TOL) & ~poly.free)[0] + 1)


def _normalize(outcome: LPOutcome, capped: np.ndarray, feas_tol: float) -> np.ndarray:
    """(x1 + x2) / (w1 + w2) from the support-maximizing LP built with the mask `capped`."""
    if not outcome.is_optimal:
        raise ValueError(f"expected an optimal outcome, got {outcome.status}")
    n = capped.size
    z = outcome.point
    w_total = float(z[n] + z[-1])
    if w_total <= feas_tol:
        raise EmptyPolyhedron("the polyhedron is empty (zero scaling weight at optimum)")
    point = z[:n].copy()
    point[capped] += z[n + 1 : -1]
    point /= w_total
    return point


def _solve_maximal_element_lp(lp: LinearProgram, opts: SolverOptions, label: str) -> LPOutcome:
    # Feasible (zero) and bounded (capped objective): any verdict but OPTIMAL is a breakdown.
    out = solve_lp(lp, opts)
    if not out.is_optimal:
        reason = out.detail or "a numerical breakdown, as the LP is feasible and bounded"
        raise IterationLimitError(f"{label} solve ended with status {out.status.value}: {reason}")
    return out


def find_relative_interior_point(poly: Polyhedron) -> MaximalElement:
    """Build, solve and normalize in one call."""
    out = _solve_maximal_element_lp(build_maximal_element_lp(poly), SolverOptions(), "maximal-element")
    return recover_maximal_element(out, poly)


def coordinate_support_oracle(poly: Polyhedron) -> frozenset:
    """Support of any maximal element, computed coordinate by coordinate.

    Maximizes each coordinate separately over P; by convexity the set of
    coordinates with positive maximum (unbounded counts as positive) equals
    the support of every relative interior point.  Much slower than the
    single-LP route, deliberately so.  Free coordinates are neither probed
    nor reported.
    """
    n = poly.num_coords
    lo = np.where(poly.free, -np.inf, 0.0)

    def maximize(objective):
        return solve_lp(LinearProgram(Sense.MAXIMIZE, objective, A_eq=poly.A_eq, b_eq=poly.b_eq, lo=lo))

    probe = maximize(np.zeros(n))
    if probe.status is SolveStatus.INFEASIBLE:
        raise EmptyPolyhedron("the polyhedron is empty")
    if probe.status is SolveStatus.ITERATION_LIMIT:
        raise IterationLimitError(f"feasibility probe stopped early: {probe.detail}")

    support = set()
    for j in np.flatnonzero(~poly.free).tolist():
        objective = np.zeros(n)
        objective[j] = 1.0
        out = maximize(objective)
        if out.status is SolveStatus.UNBOUNDED:
            support.add(j + 1)
        elif out.status is SolveStatus.OPTIMAL:
            if out.objective > DEFAULT_POS_TOL:
                support.add(j + 1)
        else:
            raise IterationLimitError(
                f"coordinate {j + 1} probe ended with status {out.status.value}: {out.detail}"
            )
    return frozenset(support)

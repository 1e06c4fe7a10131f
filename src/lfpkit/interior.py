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
capped) bounded: `lp._solved` reports any verdict but OPTIMAL of this
"maximal-element" LP as a breakdown.  When P is non-empty the optimal w1 + w2
is positive and

    x_max = (x1 + x2) / (w1 + w2)

is a maximal element; w1 + w2 = 0 at the optimum certifies P is empty.  The
homogenization also absorbs unbounded polyhedra: coordinates that only become
positive along recession directions still show up in the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPolyhedron
from .lp import LinearProgram, LPOutcome, Sense, SolverOptions, _check_finite, _frozen, _solved, _vector

__all__ = [
    "Polyhedron",
    "MaximalElement",
    "build_maximal_element_lp",
    "recover_maximal_element",
    "find_relative_interior_point",
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
        if A.ndim != 2:
            raise ValueError(f"A_eq must be a matrix, got an array with {A.ndim} axes")
        b = _vector("b_eq", self.b_eq)
        if A.shape[0] != b.size:
            raise ValueError(f"A_eq has {A.shape[0]} rows but b_eq has {b.size} entries")
        free = np.zeros(A.shape[1], dtype=bool) if self.free is None else np.array(self.free)
        if free.dtype != bool:
            raise ValueError(f"free mask must hold booleans, got dtype {free.dtype}")
        if free.shape != (A.shape[1],):
            raise ValueError(f"free mask has shape {free.shape}, expected ({A.shape[1]},)")
        _check_finite({"A_eq": A, "b_eq": b})
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
        object.__setattr__(self, "point", _vector("point", self.point))
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
    (m, n), k = poly.A_eq.shape, int(capped.sum())
    A = np.empty((m, n + k + 2))
    A[:, :n], A[:, n + 1 : -1] = poly.A_eq, poly.A_eq[:, capped]
    A[:, n] = A[:, -1] = -poly.b_eq
    objective, lo, hi = np.zeros(n + k + 2), np.zeros(n + k + 2), np.ones(n + k + 2)
    objective[n + 1 :], lo[:n][poly.free], hi[: n + 1] = 1.0, -np.inf, np.inf
    return LinearProgram(Sense.MAXIMIZE, objective, A_eq=A, b_eq=np.zeros(m), lo=lo, hi=hi)


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


def find_relative_interior_point(poly: Polyhedron) -> MaximalElement:
    """Build, solve and normalize in one call."""
    out = _solved("maximal-element", build_maximal_element_lp(poly))
    return recover_maximal_element(out, poly)

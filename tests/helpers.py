"""Shared test utilities: instance generators and two oracles.

The oracles are vertex enumeration and `coordinate_support_oracle`, which
finds a polyhedron's support one LP per coordinate, the slow way that the
library's single support-maximizing LP replaces.

The generators honor the guarantees the random-instance suites rely on:
strictly positive constraint matrices with b > 0 keep the region non-empty
(zero is feasible) and bounded, and d >= 0 with beta >= 1 keeps the
denominator positive everywhere on it.
"""

import itertools

import numpy as np

from lfpkit import (
    EmptyPolyhedron,
    IterationLimitError,
    LFPProblem,
    LinearProgram,
    Polyhedron,
    Sense,
    SolveStatus,
    solve_lp,
)
from lfpkit.interior import DEFAULT_POS_TOL


def random_instance(seed, max_dim=6, total_cap=None, nonneg_objective=False):
    """A feasible, bounded, denominator-positive problem.

    `total_cap` limits n + m; `nonneg_objective` draws c >= 0 and alpha > 0,
    which keeps the optimal value positive.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_dim + 1))
    m_hi = max_dim if total_cap is None else min(max_dim, total_cap - n)
    m = int(rng.integers(1, max(m_hi, 1) + 1))
    A = rng.uniform(0.05, 2.0, size=(m, n))
    b = rng.uniform(0.5, 5.0, size=m)
    if nonneg_objective:
        c = rng.uniform(0.0, 2.0, size=n)
        alpha = float(rng.uniform(0.1, 2.0))
    else:
        c = rng.uniform(-2.0, 2.0, size=n)
        alpha = float(rng.uniform(-2.0, 2.0))
    d = rng.uniform(0.0, 2.0, size=n)
    beta = float(rng.uniform(1.0, 3.0))
    return LFPProblem(A=A, b=b, c=c, d=d, alpha=alpha, beta=beta)


def random_polyhedron(seed, max_coords=6, max_rows=4, force_nonempty=True):
    """Standard-form polyhedron; non-empty by construction unless told otherwise."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_coords + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    if force_nonempty:
        anchor = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.7)
        b = A @ anchor
    else:
        b = rng.uniform(-2.0, 2.0, size=m)
    return Polyhedron(A, b)


def random_box_lp(seed, max_vars=5, max_rows=4):
    """A maximization LP that is feasible (zero) and bounded (box bounds)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    caps = rng.uniform(0.5, 3.0, size=n)
    rows = [(rng.uniform(-1.0, 2.0, size=n), rng.uniform(0.5, 4.0)) for _ in range(m)]
    return LinearProgram(
        Sense.MAXIMIZE,
        rng.uniform(-2.0, 2.0, size=n),
        A_ub=np.array([coeffs for coeffs, _ in rows]).reshape(m, n),
        b_ub=np.array([rhs for _, rhs in rows]),
        hi=caps,
    )


def enumerate_vertices(G, h, tol=1e-7):
    """All vertices of {x | Gx <= h} by brute force over active-row subsets."""
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    m, n = G.shape
    vertices = []
    for rows in itertools.combinations(range(m), n):
        M = G[list(rows)]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, h[list(rows)])
        if np.all(G @ x <= h + tol) and not any(
            np.allclose(x, v, atol=1e-8) for v in vertices
        ):
            vertices.append(x)
    return vertices


def lp_inequalities(lp):
    """(G, h) with {x | Gx <= h} equal to lp's feasible set (finite bounds only)."""
    eye = np.eye(lp.num_vars)
    upper, lower = np.isfinite(lp.hi), np.isfinite(lp.lo)
    G = np.vstack([lp.A_ub, lp.A_eq, -lp.A_eq, eye[upper], -eye[lower]])
    h = np.concatenate([lp.b_ub, lp.b_eq, -lp.b_eq, lp.hi[upper], -lp.lo[lower]])
    return G, h


def region_vertices(problem):
    """Vertices of the constraint region {Ax <= b, x >= 0}."""
    G = np.vstack([problem.A, -np.eye(problem.num_vars)])
    h = np.concatenate([problem.b, np.zeros(problem.num_vars)])
    return enumerate_vertices(G, h)


def coordinate_support_oracle(poly):
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

"""Shared test utilities: the golden instance, the benchmark's instances,
instance generators, two oracles and exact transformations.

`GOLDEN` is the small two-variable instance that README and the suites use
everywhere; `instances`, `ladder` and `problem_file` fetch and write the
instances of `perfbench/generate.py`, which is loaded once per session.
The oracles are vertex enumeration and `coordinate_support_oracle`, which
finds a polyhedron's support one LP per coordinate, the slow way that the
library's single support-maximizing LP replaces.  `transformations` makes
the exact copies of an instance that must keep its optimal partition.

The generators honor the guarantees the random-instance suites rely on:
strictly positive constraint matrices with b > 0 keep the region non-empty
(zero is feasible) and bounded, and d >= 0 with beta >= 1 keeps the
denominator positive everywhere on it.
"""

import functools
import importlib.util
import itertools
import zlib
from pathlib import Path

import numpy as np

from lfpkit import (
    EmptyPolyhedron,
    IterationLimitError,
    LFPProblem,
    LinearProgram,
    Polyhedron,
    Sense,
    SolveStatus,
    build_maximal_element_lp,
    solve_lp,
)
from lfpkit.interior import DEFAULT_POS_TOL

ROOT = Path(__file__).resolve().parent.parent

# The golden instance's problem document, integer entries as README and CI
# write it.  Its exact optimal value is 4/3, the dual optimum is y = (0, 1/3),
# z = 4/3, v = (0, 0), and the optimal partition is ({1, 2}, {}, {1}, {2}).
GOLDEN = {"A": [[2, 1], [-2, 1]], "b": [6, 2], "c": [6, 3], "d": [5, 2], "alpha": 6, "beta": 5}
# The four vertices of the golden instance's region.
GOLDEN_VERTICES = [np.array(v, dtype=float) for v in ((0, 0), (3, 0), (0, 2), (1, 4))]


def golden_point(weights):
    """The point of the golden region that combines its vertices with `weights`,
    scaled to sum to one."""
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    return sum(w * v for w, v in zip(weights, GOLDEN_VERTICES))


def load_module(path):
    """The Python file at `path`, relative to the repository root, as a module."""
    path = ROOT / path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def generator():
    """The benchmark's instance generator, `perfbench/generate.py`, loaded once."""
    return load_module("perfbench/generate.py")


@functools.cache
def instances(workload, seed):
    """Instance data by name, in run order, of one benchmark workload and seed."""
    return dict(generator().instances(workload, seed))


def ladder(n, m):
    """The size ladder's n x m instance, `_random(default_rng(1), n, m)` of
    `perfbench/generate.py`, as `tools/compare_reports.py --ladder` makes it."""
    return generator()._random(np.random.default_rng(1), n, m)


def problem_file(data, path):
    """Write `data` to `path` as the benchmark writes an instance; returns the path
    as a string, ready for `lfp-solve --input`."""
    path.write_text(generator().to_json(data))
    return str(path)


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


def random_support_lp(seed):
    """`build_maximal_element_lp` of a random polyhedron with integer data.

    About a quarter of the coordinates are free, some rows repeat another
    row (times -1, 1 or 2), and about a third of the polyhedra have a
    right-hand side drawn at random, which leaves many of them empty.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    m = int(rng.integers(1, 5))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    anchor = rng.integers(0, 3, size=n) * (rng.random(n) < 0.7)
    b = A @ anchor if rng.random() < 0.7 else rng.integers(-3, 4, size=m).astype(float)
    repeats = rng.integers(0, m, size=int(rng.integers(0, 3)))
    factors = rng.choice([-1.0, 1.0, 2.0], size=repeats.size)
    A = np.vstack([A, factors[:, None] * A[repeats]])
    b = np.concatenate([b, factors * b[repeats]])
    return build_maximal_element_lp(Polyhedron(A, b, rng.random(n) < 0.25))


def random_slack_start_lp(seed):
    """An all-inequality program whose slacks absorb the residual at the parking point.

    Columns are nonnegative, free, boxed (some fixed) or upper-bounded, as in
    `test_lp_highs.random_mixed_lp`; each parks where `lfpkit.lp._park` puts
    it by its bounds alone (lo, else hi, else 0), and b_ub is A_ub times that
    point plus a nonnegative integer, with some entry nonzero so that b != 0.
    The parking point is feasible, so the program is optimal or unbounded.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 6))
    kind = rng.integers(0, 4, size=n)  # nonnegative, free, boxed, upper-bounded
    low = rng.integers(-2, 2, size=n).astype(float)
    width = rng.integers(0, 4, size=n).astype(float)
    lo = np.where(kind == 0, 0.0, np.where(kind == 2, low, -np.inf))
    hi = np.where(kind >= 2, low + width, np.inf)
    park = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    A_ub = rng.integers(-3, 4, size=(m, n)).astype(float)
    b_ub = A_ub @ park + rng.integers(0, 3, size=m) * (rng.random(m) < 0.6)
    if not b_ub.any():
        b_ub[0] = 1.0
    return LinearProgram(
        Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE,
        rng.integers(-3, 4, size=n).astype(float), A_ub=A_ub, b_ub=b_ub, lo=lo, hi=hi,
    )


def dual_verdicts(out):
    """The verdict of each dual simplex run of a `solve_lp` outcome, in order."""
    return [verdict for method, verdict, *_ in out.runs if method == "dual"]


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


def transformations(name, data):
    """The six exact transformed copies of an instance, by letter.

    `data` holds A, b, c, d, alpha and beta, as `perfbench/generate.py`
    makes them.  P permutes the rows and the columns, R multiplies each row
    of (A, b) by 2^k and C each column of (A, c, d) by 2^k, N multiplies
    (c, alpha) and D (d, beta) by 2^k, and U appends a copy of row i of
    (A, b); k lies in [-3, 3].  The permutations, the k and i come from a
    generator seeded by the CRC-32 of `name`, in that order.  Reordering,
    repeating a row and multiplying by a power of two are exact in binary
    floating point, so each copy has the original's optimal partition once
    `partition_back` maps it through the copy's rows and columns, with U's
    copied row on row i's side, and its optimal value times `scale`.
    Each value is (data, rows, cols, scale): row r of the copy is row
    rows[r] of the original and column j is column cols[j] (0-based).
    """
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    A, b, c, d = (np.asarray(data[key], dtype=float) for key in ("A", "b", "c", "d"))
    m, n = A.shape
    rows, cols = rng.permutation(m), rng.permutation(n)
    row_scale = 2.0 ** rng.integers(-3, 4, size=m)
    col_scale = 2.0 ** rng.integers(-3, 4, size=n)
    num_scale, den_scale = 2.0 ** rng.integers(-3, 4, size=2)
    keep = np.arange(m), np.arange(n)
    repeat = np.append(keep[0], rng.integers(m))
    return {
        "P": ({**data, "A": A[rows][:, cols], "b": b[rows], "c": c[cols], "d": d[cols]},
              rows, cols, 1.0),
        "R": ({**data, "A": A * row_scale[:, None], "b": b * row_scale}, *keep, 1.0),
        "C": ({**data, "A": A * col_scale, "c": c * col_scale, "d": d * col_scale}, *keep, 1.0),
        "N": ({**data, "c": c * num_scale, "alpha": data["alpha"] * num_scale}, *keep,
              num_scale),
        "D": ({**data, "d": d * den_scale, "beta": data["beta"] * den_scale}, *keep,
              1.0 / den_scale),
        "U": ({**data, "A": A[repeat], "b": b[repeat]}, repeat, keep[1], 1.0),
    }


def partition_back(partition, rows, cols):
    """A copy's optimal partition (a report's `partition`, 1-based) in the
    original's indices, for the copy's `rows` and `cols` of `transformations`;
    a row that the copy repeats is listed once per copy."""
    order = {"sigma_x": cols, "sigma_v": cols, "sigma_u": rows, "sigma_y": rows}
    return {key: sorted(int(order[key][k - 1]) + 1 for k in members)
            for key, members in partition.items()}

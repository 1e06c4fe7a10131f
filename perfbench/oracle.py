"""HiGHS oracles, independent of lfpkit's own simplex.

Imported only by the benchmark's correctness gate (run in its own process, so
the measuring process never loads scipy) and by the self-test.

    python3 perfbench/oracle.py DIR OUT.json

writes {instance name: theta_star} for every problem file in DIR.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

# The value a coordinate, times its largest coefficient in A, must reach on
# its face to count as in the support.  Weighting by the coefficient keeps
# the threshold meaningful when A is scaled by a large factor.
SUPPORT_TOL = 1e-7


def _arrays(data: dict):
    return (
        np.asarray(data["A"], dtype=float),
        np.asarray(data["b"], dtype=float),
        np.asarray(data["c"], dtype=float),
        np.asarray(data["d"], dtype=float),
        float(data["alpha"]),
        float(data["beta"]),
    )


def _highs(cost, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None), unbounded_ok=False):
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0 and not (unbounded_ok and res.status == 3):
        raise RuntimeError(f"HiGHS oracle failed: {res.message}")
    return res


def theta_star(data: dict) -> float:
    """Optimal ratio from the Charnes-Cooper LP over (xbar, t)."""
    A, b, c, d, alpha, beta = _arrays(data)
    m, n = A.shape
    res = _highs(
        -np.append(c, alpha),
        A_ub=np.hstack([A, -b[:, None]]),
        b_ub=np.zeros(m),
        A_eq=np.append(d, beta)[None, :],
        b_eq=[1.0],
    )
    return float(-res.fun)


def _support(A_eq, b_eq, bounds, weights) -> set:
    """Coordinates that can be positive on the face: one max LP per weighted coordinate."""
    support = set()
    for k, weight in weights.items():
        cost = np.zeros(A_eq.shape[1])
        cost[k] = -1.0
        res = _highs(cost, A_eq=A_eq, b_eq=b_eq, bounds=bounds, unbounded_ok=True)
        if res.status == 3 or -res.fun * weight > SUPPORT_TOL:
            support.add(k)
    return support


def _weight(values) -> float:
    largest = float(np.max(np.abs(values)))
    return largest if largest > 0.0 else 1.0


def partition(data: dict, theta: float) -> dict:
    """The optimal partition, 1-based, read off the two optimal faces.

    Primal face over (xbar, t, ubar) >= 0 and dual face over (y, z, v) with z
    free, each cut out of its LP by pinning the objective at theta.
    """
    A, b, c, d, alpha, beta = _arrays(data)
    m, n = A.shape

    # A xbar - b t + ubar = 0,  d.xbar + beta t = 1,  c.xbar + alpha t = theta.
    eq = np.zeros((m + 2, n + 1 + m))
    eq[:m, :n] = A
    eq[:m, n] = -b
    eq[:m, n + 1 :] = np.eye(m)
    eq[m, :n] = d
    eq[m, n] = beta
    eq[m + 1, :n] = c
    eq[m + 1, n] = alpha
    primal = _support(
        eq, np.concatenate([np.zeros(m), [1.0, theta]]),
        [(0, None)] * (n + 1 + m),
        {**{j: _weight(A[:, j]) for j in range(n)}, **{n + 1 + i: 1.0 for i in range(m)}},
    )

    # A'y + d z - v = c,  -b.y + beta z = alpha,  z = theta.
    eq = np.zeros((n + 2, m + 1 + n))
    eq[:n, :m] = A.T
    eq[:n, m] = d
    eq[:n, m + 1 :] = -np.eye(n)
    eq[n, :m] = -b
    eq[n, m] = beta
    eq[n + 1, m] = 1.0
    dual = _support(
        eq, np.concatenate([c, [alpha, theta]]),
        [(0, None)] * m + [(None, None)] + [(0, None)] * n,
        {**{i: _weight(A[i]) for i in range(m)}, **{m + 1 + j: 1.0 for j in range(n)}},
    )
    return {
        "sigma_x": sorted(j + 1 for j in primal if j < n),
        "sigma_u": sorted(j - n for j in primal if j > n),
        "sigma_y": sorted(i + 1 for i in dual if i < m),
        "sigma_v": sorted(j - m for j in dual if j > m),
    }


def main() -> None:
    directory, out = Path(sys.argv[1]), Path(sys.argv[2])
    thetas = {
        path.stem: theta_star(json.loads(path.read_text()))
        for path in sorted(directory.glob("*.json"))
    }
    out.write_text(json.dumps(thetas, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

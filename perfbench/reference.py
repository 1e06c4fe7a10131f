"""Fixed reference work that tracks how fast the machine is right now.

On a shared machine the same work can take half as long again for tens of
seconds at a time.  The benchmark runs reference work next to the work it
measures and rescales each measured wall time by the reference's nominal
time over its measured time, so that times read as if the machine ran the
reference in its nominal time.  Neither reference imports lfpkit, so no
change to the package can move them:

* `kernel_seconds` mixes what lfpkit spends its calls on: small dense solves
  and products driven from Python loops, scalar Python arithmetic and a JSON
  round trip;
* `spawn_seconds` starts a fresh interpreter that imports numpy, the one
  dependency every lfp-solve start-up loads.

The nominal times are those of a quiet spell on a 2-vCPU Intel Xeon sandbox.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.013
SPAWN_NOMINAL_S = 0.13

_RNG = np.random.default_rng(20161)
_MATRICES = [_RNG.uniform(-1.0, 1.0, (24, 24)) + 24.0 * np.eye(24) for _ in range(4)]
_VECTOR = _RNG.uniform(-1.0, 1.0, 24)
_DOC = {"x": [0.5] * 200, "status": "ok"}


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    started = time.perf_counter()
    best = 0.0
    for matrix in _MATRICES:
        for _ in range(50):
            x = np.linalg.solve(matrix, _VECTOR)
            y = matrix.T @ x
            for j in range(y.size):
                if y[j] > best:
                    best = float(y[j])
    total = 0.0
    for i in range(100000):
        total += (i % 7) * 0.5
    for _ in range(40):
        json.loads(json.dumps(_DOC))
    return time.perf_counter() - started


def spawn_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter importing numpy."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return time.perf_counter() - started

"""Seeded problem files for the three benchmark workloads.

Every instance is well-posed: A > 0 with b > 0 keeps the region non-empty
(zero is feasible) and bounded, and d >= 0 with beta >= 1 keeps the
denominator positive on it.  The same seed always gives byte-identical files.
The sizes follow fixed ladders, so a seed moves the data and not the amount
of work, which keeps one seed's figures comparable with another's.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("batch-small", "joint-medium", "degenerate-mixed")

BATCH_SMALL = 220  # p95 keeps ten solved instances beyond it with up to ten failing
# Below 30x30: from there on, single instances stall for seconds (a 30x30
# one took 4.7 s against a typical 0.3 s, a 40x40 one hit the iteration cap
# after 12.6 s), which no run of affordable length averages out.
JOINT_SIZES = tuple(range(20, 30)) * 5
PER_FAMILY = 20
# One ladder of shapes from 8 to 20, run by every degenerate family.
DEGENERATE_SIZES = tuple(8 + round(12 * k / (PER_FAMILY - 1)) for k in range(PER_FAMILY))
# Scaled instances mostly fail, after anywhere from 0.01 s to about 1 s at
# any size; kept at the small end so their erratic time does not swamp the
# workload's figures.
SCALED_SIZES = (8, 9, 10)

DEGENERATE_FAMILIES = (
    "duplicated-rows",
    "flat-objective",
    "partly-flat",
    "zero-d-columns",
    "negative-theta",
    "integer-ties",
    "scaled-a",
)


def _random(rng, n, m):
    """Data shaped like the test suite's random instances."""
    return {
        "A": rng.uniform(0.05, 2.0, size=(m, n)),
        "b": rng.uniform(0.5, 5.0, size=m),
        "c": rng.uniform(-2.0, 2.0, size=n),
        "d": rng.uniform(0.0, 2.0, size=n),
        "alpha": float(rng.uniform(-2.0, 2.0)),
        "beta": float(rng.uniform(1.0, 3.0)),
    }


def _degenerate(rng, family, n, m):
    if family == "duplicated-rows":
        base = int(rng.integers(4, m))
        data = _random(rng, n, base)
        copies = rng.integers(0, base, size=m - base)
        data["A"] = np.vstack([data["A"], data["A"][copies]])
        data["b"] = np.concatenate([data["b"], data["b"][copies]])
    elif family == "flat-objective":
        # c = theta d, alpha = theta beta: the ratio is theta on the whole region.
        data = _random(rng, n, m)
        theta = float(rng.uniform(-2.0, 2.0))
        data["c"] = theta * data["d"]
        data["alpha"] = theta * data["beta"]
    elif family == "partly-flat":
        # Flat on a random subset of coordinates, strictly worse off it, so
        # the optimal face is the region cut down to that subset.
        data = _random(rng, n, m)
        theta = float(rng.uniform(-2.0, 2.0))
        flat = rng.random(n) < 0.5
        data["c"] = theta * data["d"] - np.where(flat, 0.0, rng.uniform(0.1, 1.0, size=n))
        data["alpha"] = theta * data["beta"]
    elif family == "zero-d-columns":
        data = _random(rng, n, m)
        data["d"][rng.random(n) < 0.5] = 0.0
    elif family == "negative-theta":
        # Numerator negative everywhere on the region.
        data = _random(rng, n, m)
        data["c"] = rng.uniform(-2.0, -0.1, size=n)
        data["alpha"] = float(rng.uniform(-2.0, -0.1))
    elif family == "integer-ties":
        data = {
            "A": rng.integers(1, 4, size=(m, n)).astype(float),
            "b": rng.integers(2, 7, size=m).astype(float),
            "c": rng.integers(-2, 3, size=n).astype(float),
            "d": rng.integers(0, 3, size=n).astype(float),
            "alpha": float(rng.integers(-2, 3)),
            "beta": float(rng.integers(1, 4)),
        }
    elif family == "scaled-a":
        data = _random(rng, n, m)
        data["A"] = data["A"] * 1e6
    return data


def instances(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(name, problem data) pairs of one workload, in run order."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    out = []
    if workload == "batch-small":
        for k in range(BATCH_SMALL):
            n, m = (int(v) for v in rng.integers(2, 9, size=2))
            out.append((f"small-{k:03d}", _random(rng, n, m)))
    elif workload == "joint-medium":
        for k, size in enumerate(JOINT_SIZES):
            out.append((f"joint-{k:02d}-{size}x{size}", _random(rng, size, size)))
    else:
        for family in DEGENERATE_FAMILIES:
            for k in range(PER_FAMILY):
                n, m = DEGENERATE_SIZES[k], DEGENERATE_SIZES[(7 * k) % PER_FAMILY]
                if family == "scaled-a":
                    n, m = SCALED_SIZES[k % 3], SCALED_SIZES[(k // 3) % 3]
                out.append((f"{family}-{k:02d}", _degenerate(rng, family, n, m)))
    return out


def to_json(data: dict) -> str:
    doc = {key: np.asarray(value).tolist() for key, value in data.items()}
    return json.dumps(doc, sort_keys=True) + "\n"


def write_instances(workload: str, seed: int, directory: Path) -> list[tuple[str, Path]]:
    """Write one file per instance into `directory`; returns (name, path) pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, data in instances(workload, seed):
        path = directory / f"{name}.json"
        path.write_text(to_json(data))
        written.append((name, path))
    return written


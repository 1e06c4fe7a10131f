"""Relative interior points of standard-form polyhedra with a single LP.

A relative interior point is one whose support (set of positive
coordinates) is maximal.  One bounded LP finds it for any {Ax = b, x >= 0},
empty, bounded, or unbounded alike; an empty polyhedron is certified by a
zero scaling weight instead of a point.  The support is read off that one
point; no LP per coordinate is needed.
"""

import numpy as np

from lfpkit import EmptyPolyhedron, Polyhedron, find_relative_interior_point

cases = {
    "segment x1 + x2 = 1": Polyhedron([[1.0, 1.0]], [1.0]),
    "single point (0, 1)": Polyhedron([[1.0, 0.0], [1.0, 1.0]], [0.0, 1.0]),
    "unbounded ray x1 = x2": Polyhedron([[1.0, -1.0]], [0.0]),
    "the origin alone": Polyhedron(np.eye(2), np.zeros(2)),
    "3-simplex": Polyhedron([[1.0, 1.0, 1.0]], [1.0]),
}

for label, poly in cases.items():
    element = find_relative_interior_point(poly)
    print(f"{label:24s} point = {np.round(element.point, 6)}  support = {sorted(element.support)}")

print()
try:
    find_relative_interior_point(Polyhedron([[1.0]], [-1.0]))
except EmptyPolyhedron as exc:
    print("x = -1 with x >= 0     ->", exc)

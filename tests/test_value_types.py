"""Every value type stores its arrays as read-only float copies, and a point type holds vectors."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from lfpkit import (
    DualPoint,
    LFPProblem,
    LinearProgram,
    MaximalElement,
    Polyhedron,
    PrimalPoint,
    Sense,
    TransformedPoint,
)

from helpers import GOLDEN

# Type -> (constructor over the array fields, array fields).  Values are those
# of the golden instance where the type carries one of its points.
VALUE_TYPES = {
    "LinearProgram": (
        lambda arrays: LinearProgram(Sense.MAXIMIZE, **arrays),
        {
            "objective": [1.0, 2.0], "A_ub": [[1.0, 1.0]], "b_ub": [4.0],
            "A_eq": [[1.0, -1.0]], "b_eq": [0.0], "lo": [0.0, -1.0], "hi": [3.0, 3.0],
        },
    ),
    "Polyhedron": (lambda arrays: Polyhedron(**arrays), {"A_eq": [[1.0, 1.0]], "b_eq": [1.0]}),
    "MaximalElement": (
        lambda arrays: MaximalElement(support={1, 2}, **arrays), {"point": [0.5, 0.5]},
    ),
    "LFPProblem": (
        lambda arrays: LFPProblem(alpha=GOLDEN["alpha"], beta=GOLDEN["beta"], **arrays),
        {key: GOLDEN[key] for key in ("A", "b", "c", "d")},
    ),
    "PrimalPoint": (lambda arrays: PrimalPoint(**arrays), {"x": [1.0, 4.0], "u": [0.0, 0.0]}),
    "DualPoint": (lambda arrays: DualPoint(z=4.0 / 3.0, **arrays), {"y": [0.0, 1.0 / 3.0], "v": [0.0, 0.0]}),
    "TransformedPoint": (
        lambda arrays: TransformedPoint(t=0.0625, **arrays), {"x_bar": [0.0625, 0.25], "u_bar": [0.0, 0.0]},
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_arrays_are_read_only_float_copies(name):
    build, fields = VALUE_TYPES[name]
    given = {key: np.array(value, dtype=float) for key, value in fields.items()}
    value = build(given)
    for key, array in given.items():
        stored = getattr(value, key)
        assert stored.dtype == np.float64 and not stored.flags.writeable, key
        assert not np.shares_memory(stored, array), key
        assert_array_equal(stored, array)
        assert array.flags.writeable, key  # the caller's array is untouched


@pytest.mark.parametrize(
    "name, field",
    [(name, field) for name in ("PrimalPoint", "DualPoint", "TransformedPoint", "MaximalElement")
     for field in VALUE_TYPES[name][1]],
)
def test_point_fields_are_vectors(name, field):
    # A field with two axes would pass construction and fail far from it, in optimal_partitions.
    build, fields = VALUE_TYPES[name]
    with pytest.raises(ValueError, match=f"^{field} must be a vector, got an array with 2 axes$"):
        build({**fields, field: [fields[field]]})

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lfpkit.interior as interior_module
from lfpkit import (
    EmptyPolyhedron,
    LinearProgram,
    LPOutcome,
    Polyhedron,
    Sense,
    SolveStatus,
    build_dual_interior_lp,
    build_maximal_element_lp,
    build_primal_interior_lp,
    dual_optimal_face,
    find_relative_interior_point,
    primal_optimal_face,
    recover_maximal_element,
    solve_lp,
    solve_theta_star,
)

from helpers import coordinate_support_oracle, random_polyhedron

SEGMENT = Polyhedron([[1.0, 1.0]], [1.0])  # {x >= 0 | x1 + x2 = 1}
PINNED = Polyhedron([[1.0, 0.0], [1.0, 1.0]], [0.0, 1.0])  # single point (0, 1)
RAY = Polyhedron([[1.0, -1.0]], [0.0])  # {x >= 0 | x1 = x2}, unbounded
ORIGIN_ONLY = Polyhedron(np.eye(2), np.zeros(2))  # {0}
EMPTY = Polyhedron([[1.0]], [-1.0])  # x = -1 with x >= 0
SIMPLEX3 = Polyhedron([[1.0, 1.0, 1.0]], [1.0])
# {x1 - x2 + z = 0, z = -1} with z free: the ray x1 = x2 + 1, x2 >= 0.
WITH_FREE = Polyhedron([[1.0, -1.0, 1.0], [0.0, 0.0, 1.0]], [0.0, -1.0], free=[False, False, True])


class TestBuilder:
    def test_shape_and_objective(self):
        lp = build_maximal_element_lp(SEGMENT)
        assert lp.num_rows == 1
        assert lp.num_vars == 6  # (x1_1, x1_2, w1, x2_1, x2_2, w2)
        assert_allclose(lp.objective, [0, 0, 0, 1, 1, 1])
        assert_allclose(lp.A_eq[0], [1, 1, -1, 1, 1, -1])
        assert lp.A_ub.shape[0] == 0 and lp.b_eq[0] == 0.0
        assert np.all(lp.lo[:3] == 0.0) and np.all(lp.hi[:3] == np.inf)
        assert np.all(lp.lo[3:] == 0.0) and np.all(lp.hi[3:] == 1.0)

    @pytest.mark.parametrize("poly", [SEGMENT, PINNED, RAY, ORIGIN_ONLY, EMPTY])
    def test_zero_is_feasible(self, poly):
        lp = build_maximal_element_lp(poly)
        assert np.all(lp.b_ub == 0.0) and np.all(lp.b_eq == 0.0)

    def test_matches_dedicated_face_builder(self, golden):
        # Each dedicated builder is the support-maximizing LP of its optimal
        # face with every coordinate capped but the scalar, t at index n of
        # the primal face and z at index m of the dual face: column for column.
        theta = solve_theta_star(golden)
        n, m = golden.num_vars, golden.num_rows
        for face, build, scalar in (
            (primal_optimal_face, build_primal_interior_lp, n),
            (dual_optimal_face, build_dual_interior_lp, m),
        ):
            capped = np.ones(n + 1 + m, dtype=bool)
            capped[scalar] = False
            generic = interior_module._support_maximizing_lp(face(golden, theta), capped)
            dedicated = build(golden, theta)
            assert generic.num_vars == dedicated.num_vars == 2 * (n + m) + 3
            assert generic.sense is dedicated.sense
            for field in ("objective", "A_ub", "b_ub", "A_eq", "b_eq", "lo", "hi"):
                assert np.array_equal(getattr(generic, field), getattr(dedicated, field)), (build, field)

    def test_free_coordinate_has_free_column_and_no_copy(self):
        lp = build_maximal_element_lp(WITH_FREE)
        assert lp.num_vars == 7  # (x1_1, x1_2, z, w1, x2_1, x2_2, w2)
        assert lp.lo[2] == -np.inf and lp.hi[2] == np.inf
        assert_allclose(lp.objective, [0, 0, 0, 0, 1, 1, 1])
        assert_allclose(lp.A_eq[0], [1, -1, 1, 0, 1, -1, 0])


class TestPolyhedron:
    def test_no_coordinate_free_by_default(self):
        assert SEGMENT.free.tolist() == [False, False]

    @pytest.mark.parametrize(
        "A_eq, b_eq, free, message",
        [
            pytest.param([[1.0, 1.0]], [1.0], [True], "free mask", id="free-mask-length"),
            pytest.param(np.zeros((2, 2, 2)), [0.0, 0.0], None, "A_eq must be a matrix", id="A_eq-axes"),
            pytest.param([[1.0, 1.0]], [1.0, 2.0], None, "A_eq has 1 rows but b_eq has 2 entries",
                         id="b_eq-length"),
            pytest.param([[1.0, np.nan]], [1.0], None, "polyhedron data has a non-finite entry",
                         id="A_eq-nan"),
            pytest.param([[1.0, 1.0]], [np.inf], None, "polyhedron data has a non-finite entry",
                         id="b_eq-inf"),
            # Two faults: the first in the order of the checks is named.
            pytest.param(np.full((2, 2, 2), np.nan), [0.0, 0.0], None, "A_eq must be a matrix",
                         id="A_eq-axes-before-nan"),
            pytest.param([[1.0, np.nan]], [1.0, 2.0], None, "A_eq has 1 rows but b_eq has 2 entries",
                         id="b_eq-length-before-A_eq-nan"),
            pytest.param([[1.0, 1.0]], [np.inf], [True], "polyhedron data has a non-finite entry",
                         id="b_eq-inf-before-free-mask-length"),
        ],
    )
    def test_rejects_wrong_shape(self, A_eq, b_eq, free, message):
        with pytest.raises(ValueError, match=message):
            Polyhedron(A_eq, b_eq, free=free)

    @pytest.mark.parametrize("free", [[0.5, 0.0], ["no", ""], [1, 0]])
    def test_rejects_free_mask_that_is_not_boolean(self, free):
        with pytest.raises(ValueError, match="free mask must hold booleans"):
            Polyhedron([[1.0, 1.0]], [1.0], free=free)


class TestRecover:
    def test_segment_has_full_support(self, lp_records):
        element = find_relative_interior_point(SEGMENT)
        assert element.support == {1, 2}
        [record] = lp_records()
        assert record.lp == "maximal-element" and record.outcome.is_optimal
        assert element.support == coordinate_support_oracle(SEGMENT)

    def test_pinned_coordinate_excluded(self):
        element = find_relative_interior_point(PINNED)
        assert_allclose(element.point, [0.0, 1.0], atol=1e-9)
        assert element.support == {2}

    def test_empty_certificate(self):
        with pytest.raises(EmptyPolyhedron):
            find_relative_interior_point(EMPTY)

    def test_recover_rejects_non_optimal_outcome(self):
        with pytest.raises(ValueError):
            recover_maximal_element(LPOutcome(SolveStatus.INFEASIBLE), SEGMENT)


class TestFinder:
    def test_simplex_in_three_dimensions(self):
        element = find_relative_interior_point(SIMPLEX3)
        assert element.support == {1, 2, 3}
        assert element.support == coordinate_support_oracle(SIMPLEX3)

    def test_unbounded_ray(self):
        element = find_relative_interior_point(RAY)
        assert element.support == {1, 2}
        assert element.point[0] == pytest.approx(element.point[1], abs=1e-9)
        assert element.point[0] > 0
        assert element.support == coordinate_support_oracle(RAY)

    def test_free_coordinate_is_not_in_the_support(self):
        element = find_relative_interior_point(WITH_FREE)
        assert element.support == {1, 2}
        assert element.point[2] == pytest.approx(-1.0, abs=1e-9)
        assert element.point[0] - element.point[1] == pytest.approx(1.0, abs=1e-9)

    def test_origin_only(self):
        element = find_relative_interior_point(ORIGIN_ONLY)
        assert_allclose(element.point, [0.0, 0.0], atol=1e-12)
        assert element.support == frozenset()


class TestOracle:
    def test_segment(self):
        assert coordinate_support_oracle(SEGMENT) == {1, 2}

    def test_pinned(self):
        assert coordinate_support_oracle(PINNED) == {2}

    def test_empty(self):
        with pytest.raises(EmptyPolyhedron):
            coordinate_support_oracle(EMPTY)

    def test_free_coordinate_not_probed(self):
        assert coordinate_support_oracle(WITH_FREE) == {1, 2}

    def test_golden_primal_face_blocks(self, golden):
        # Face coordinates are (xbar_1, xbar_2, t, ubar_1, ubar_2).
        theta = solve_theta_star(golden)
        support = coordinate_support_oracle(primal_optimal_face(golden, theta))
        assert support == {1, 2, 3, 4}  # both xbar, t itself, and ubar_1


class TestInvariants:
    @pytest.mark.parametrize("seed", range(30))
    def test_support_matches_oracle(self, seed):
        poly = random_polyhedron(seed, force_nonempty=True)
        element = find_relative_interior_point(poly)
        assert element.support == coordinate_support_oracle(poly)

    @pytest.mark.parametrize("seed", range(30))
    def test_membership(self, seed):
        poly = random_polyhedron(seed, force_nonempty=True)
        element = find_relative_interior_point(poly)
        assert np.max(np.abs(poly.A_eq @ element.point - poly.b_eq)) <= 1e-7
        assert np.all(element.point >= -1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_emptiness_soundness(self, seed):
        # EmptyPolyhedron must fire exactly when a direct feasibility solve
        # (phase 1 alone decides it) reports the system infeasible.
        poly = random_polyhedron(seed, force_nonempty=False)
        probe = solve_lp(
            LinearProgram(
                Sense.MAXIMIZE,
                np.zeros(poly.num_coords),
                A_eq=poly.A_eq,
                b_eq=poly.b_eq,
            )
        )
        if probe.status is SolveStatus.INFEASIBLE:
            with pytest.raises(EmptyPolyhedron):
                find_relative_interior_point(poly)
        else:
            find_relative_interior_point(poly)

    @given(k=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_support_invariant_under_row_scaling(self, k, seed):
        poly = random_polyhedron(seed, force_nonempty=True)
        row = seed % poly.A_eq.shape[0]
        A = poly.A_eq.copy()
        b = poly.b_eq.copy()
        A[row] *= k
        b[row] *= k
        scaled = Polyhedron(A, b)
        assert find_relative_interior_point(scaled).support == find_relative_interior_point(poly).support

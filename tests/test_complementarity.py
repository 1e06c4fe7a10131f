import numpy as np
import pytest
from numpy.testing import assert_allclose

import lfpkit.lp as lp_module
from lfpkit import (
    DegenerateNormalizer,
    DualPoint,
    InfeasibleRegion,
    LFPProblem,
    LinearProgram,
    LPOutcome,
    PartitionViolation,
    Polyhedron,
    PrimalPoint,
    Sense,
    SolveStatus,
    StrictComplementarySolution,
    UnboundedObjective,
    approach_one,
    approach_two,
    build_dual_interior_lp,
    build_dual_lp,
    build_joint_lp,
    build_primal_interior_lp,
    build_transformed_lp,
    dual_optimal_face,
    evaluate_objective,
    joint_optimal_face,
    optimal_partitions,
    primal_optimal_face,
    recover_dual_interior,
    recover_primal_interior,
    solve_lp,
    solve_theta_star,
    verify_csc,
    verify_scsc,
)

from helpers import coordinate_support_oracle, random_instance

THETA_GOLDEN = 4.0 / 3.0
GOLDEN_PARTITION = ({1, 2}, set(), {1}, {2})


def as_sets(partition):
    return (
        set(partition.sigma_x),
        set(partition.sigma_v),
        set(partition.sigma_u),
        set(partition.sigma_y),
    )


def vertex_solution(problem, x, y, z):
    """Primal-dual pair assembled from raw coordinates with computed slacks."""
    return StrictComplementarySolution(
        PrimalPoint.from_x(problem, x),
        1.0 / float(problem.d @ np.asarray(x) + problem.beta),
        DualPoint.from_yz(problem, y, z),
        z,
    )


def negated_objective(problem):
    """The same region with numerator -(c.x + alpha)."""
    return LFPProblem(
        A=problem.A, b=problem.b, c=-problem.c, d=problem.d, alpha=-problem.alpha, beta=problem.beta
    )


# The optimal faces written out by hand, as they were before both came from
# duality's LPs; kept as the reference the derived faces must match.
def reference_primal_face(problem, theta_star):
    A, b, c, d = problem.A, problem.b, problem.c, problem.d
    m = problem.num_rows
    M = np.vstack([
        np.hstack([A, -b.reshape(m, 1), np.eye(m)]),
        np.concatenate([d, [problem.beta], np.zeros(m)]),
        np.concatenate([c, [problem.alpha], np.zeros(m)]),
    ])
    return M, np.concatenate([np.zeros(m), [1.0, float(theta_star)]]), np.zeros(M.shape[1], dtype=bool)


def reference_dual_face(problem, theta_star):
    A, b, c, d = problem.A, problem.b, problem.c, problem.d
    m, n = A.shape
    M = np.vstack([
        np.hstack([A.T, d.reshape(n, 1), -np.eye(n)]),
        np.concatenate([-b, [problem.beta], np.zeros(n)]),
        np.concatenate([np.zeros(m), [1.0], np.zeros(n)]),
    ])
    free = np.concatenate([np.zeros(m, dtype=bool), [True], np.zeros(n, dtype=bool)])
    return M, np.concatenate([c, [problem.alpha, float(theta_star)]]), free


class TestFacesMatchReference:
    def assert_faces_match(self, problem):
        theta = solve_theta_star(problem)
        M, rhs, free = reference_primal_face(problem, theta)
        face = primal_optimal_face(problem, theta)
        assert np.array_equal(face.A_eq, M) and np.array_equal(face.b_eq, rhs)
        assert np.array_equal(face.free, free)
        # The dual face stores its first n rows negated.
        M, rhs, free = reference_dual_face(problem, theta)
        n = problem.num_vars
        M[:n], rhs[:n] = -M[:n], -rhs[:n]
        face = dual_optimal_face(problem, theta)
        assert np.array_equal(face.A_eq, M) and np.array_equal(face.b_eq, rhs)
        assert np.array_equal(face.free, free)
        return theta

    def test_golden(self, golden):
        assert self.assert_faces_match(golden) == pytest.approx(THETA_GOLDEN)
        assert self.assert_faces_match(negated_objective(golden)) < 0

    @pytest.mark.parametrize("seed", range(20))
    def test_random(self, seed):
        problem = random_instance(seed, nonneg_objective=True)
        assert self.assert_faces_match(problem) > 0
        assert self.assert_faces_match(negated_objective(problem)) < 0


# Every builder as it was written with np.hstack, np.vstack and np.append,
# before each of its matrices became one allocation; kept as the reference
# the builders must match byte for byte.
def reference_transformed_lp(problem):
    return LinearProgram(
        Sense.MAXIMIZE,
        np.append(problem.c, problem.alpha),
        A_ub=np.hstack([problem.A, -problem.b[:, None]]),
        b_ub=np.zeros(problem.num_rows),
        A_eq=np.append(problem.d, problem.beta)[None, :],
        b_eq=[1.0],
    )


def reference_dual_lp(problem):
    m = problem.num_rows
    return LinearProgram(
        Sense.MINIMIZE,
        np.append(np.zeros(m), 1.0),
        A_ub=-np.hstack([problem.A.T, problem.d[:, None]]),
        b_ub=-problem.c,
        A_eq=np.append(-problem.b, problem.beta)[None, :],
        b_eq=[problem.alpha],
        lo=np.append(np.zeros(m), -np.inf),
    )


def reference_face(lp, value):
    """`lp`'s standard form [[A_ub, I], [A_eq, 0]] plus the row objective . x = value."""
    n, n_slack = lp.num_vars, lp.b_ub.size
    A = np.zeros((lp.num_rows, n + n_slack))
    A[:n_slack, :n] = lp.A_ub
    A[n_slack:, :n] = lp.A_eq
    A[:n_slack, n:] = np.eye(n_slack)
    value_row = np.zeros(A.shape[1])
    value_row[:n] = lp.objective
    lo = np.concatenate([lp.lo, np.zeros(n_slack)])
    return Polyhedron(np.vstack([A, value_row]), np.append(np.concatenate([lp.b_ub, lp.b_eq]), value),
                      lo == -np.inf)


def reference_joint_face(problem):
    primal = reference_face(reference_transformed_lp(problem), 0.0)
    dual = reference_face(reference_dual_lp(problem), 0.0)
    P, D = primal.A_eq, dual.A_eq
    M = np.vstack([
        np.hstack([P[:-1], np.zeros((P.shape[0] - 1, D.shape[1]))]),
        np.hstack([np.zeros((D.shape[0] - 1, P.shape[1])), D[:-1]]),
        np.hstack([P[-1:], -D[-1:]]),
    ])
    rhs = np.concatenate([primal.b_eq[:-1], dual.b_eq[:-1], [0.0]])
    return Polyhedron(M, rhs, np.concatenate([primal.free, dual.free]))


def reference_support_lp(poly, capped):
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


class TestBuildersMatchReference:
    """Each array of each builder equals its reference's, dtype, shape and bytes.

    This pins the joint LP's column order too, which the benchmark's pipeline
    indexes by hand.
    """

    LP_FIELDS = ("objective", "A_ub", "b_ub", "A_eq", "b_eq", "lo", "hi")

    def assert_same_bytes(self, got, want, fields):
        for field in fields:
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
        assert getattr(got, "sense", None) is getattr(want, "sense", None)

    def assert_builders_match(self, problem):
        n, m = problem.num_vars, problem.num_rows
        theta = solve_theta_star(problem)
        primal_capped, dual_capped = np.arange(n + 1 + m) != n, np.arange(m + 1 + n) != m
        pairs = [
            (build_transformed_lp(problem), reference_transformed_lp(problem)),
            (build_dual_lp(problem), reference_dual_lp(problem)),
            (build_primal_interior_lp(problem, theta),
             reference_support_lp(reference_face(reference_transformed_lp(problem), theta), primal_capped)),
            (build_dual_interior_lp(problem, theta),
             reference_support_lp(reference_face(reference_dual_lp(problem), theta), dual_capped)),
            (build_joint_lp(problem),
             reference_support_lp(reference_joint_face(problem), np.concatenate([primal_capped, dual_capped]))),
        ]
        for got, want in pairs:
            self.assert_same_bytes(got, want, self.LP_FIELDS)
        faces = [
            (primal_optimal_face(problem, theta), reference_face(reference_transformed_lp(problem), theta)),
            (dual_optimal_face(problem, theta), reference_face(reference_dual_lp(problem), theta)),
            (joint_optimal_face(problem), reference_joint_face(problem)),
        ]
        for got, want in faces:
            self.assert_same_bytes(got, want, ("A_eq", "b_eq", "free"))

    def test_golden(self, golden):
        self.assert_builders_match(golden)
        self.assert_builders_match(negated_objective(golden))

    @pytest.mark.parametrize("seed", range(20))
    def test_random(self, seed):
        problem = random_instance(seed, nonneg_objective=True)
        self.assert_builders_match(problem)
        self.assert_builders_match(negated_objective(problem))


class TestBuilders:
    def test_primal_shape_golden(self, golden):
        lp = build_primal_interior_lp(golden, THETA_GOLDEN)
        assert lp.num_rows == golden.num_rows + 2 == 4
        assert lp.num_vars == 2 * (golden.num_vars + golden.num_rows) + 3 == 11
        assert np.all(lp.b_ub == 0.0) and np.all(lp.b_eq == 0.0)  # the zero assignment is always feasible

    def test_primal_scaling_row_coefficients(self, golden):
        # Columns: (x1_1, x1_2, p, u1_1, u1_2, w1, x2_1, x2_2, u2_1, u2_2, w2).
        lp = build_primal_interior_lp(golden, THETA_GOLDEN)
        assert_allclose(lp.A_eq[2], [5, 2, 5, 0, 0, -1, 5, 2, 0, 0, -1])

    def test_primal_value_row_uses_theta(self, golden):
        lp = build_primal_interior_lp(golden, THETA_GOLDEN)
        assert_allclose(
            lp.A_eq[3],
            [6, 3, 6, 0, 0, -THETA_GOLDEN, 6, 3, 0, 0, -THETA_GOLDEN],
        )

    def test_dual_shape_golden(self, golden):
        lp = build_dual_interior_lp(golden, THETA_GOLDEN)
        assert lp.num_rows == golden.num_vars + 2 == 4
        assert lp.num_vars == 11
        free = np.flatnonzero((lp.lo == -np.inf) & (lp.hi == np.inf)).tolist()
        assert free == [golden.num_rows]  # q, right after the y1 block
        assert np.all(lp.b_ub == 0.0) and np.all(lp.b_eq == 0.0)

    def test_dual_rows_golden(self, golden):
        # Columns: (y1_1, y1_2, q, v1_1, v1_2, w1, y2_1, y2_2, v2_1, v2_2, w2).
        lp = build_dual_interior_lp(golden, THETA_GOLDEN)
        # Row 0 is A'y + d z - v = c negated, as build_dual_lp stores it.
        assert_allclose(lp.A_eq[0], [-2, 2, -5, 1, 0, 6, -2, 2, 1, 0, 6])
        assert_allclose(lp.A_eq[2], [-6, -2, 5, 0, 0, -6, -6, -2, 0, 0, -6])
        assert_allclose(lp.A_eq[3], [0, 0, 1, 0, 0, -THETA_GOLDEN, 0, 0, 0, 0, -THETA_GOLDEN])

    def test_joint_shape_golden(self, golden):
        lp = build_joint_lp(golden)
        m, n = golden.num_rows, golden.num_vars
        assert lp.num_rows == m + n + 3 == 7
        assert lp.num_vars == 4 * (m + n) + 4 == 20
        free = np.flatnonzero((lp.lo == -np.inf) & (lp.hi == np.inf)).tolist()
        assert free == [n + 1 + 2 * m]  # exactly one free column: q
        assert np.all(lp.b_ub == 0.0) and np.all(lp.b_eq == 0.0)

    def test_joint_shared_w_coefficients(self, golden):
        # w1/w2 carry -1 in the primal scaling row, +c_j in each dual row
        # (stored negated, as build_dual_lp stores them), and -alpha in the
        # dual normalization row.
        lp = build_joint_lp(golden)
        m, n = golden.num_rows, golden.num_vars
        w1 = 2 * n + 2 * m + 2
        w2 = lp.num_vars - 1
        scaling = lp.A_eq[m]
        assert scaling[w1] == scaling[w2] == -1.0
        for j in range(n):
            dual_row = lp.A_eq[m + 1 + j]
            assert dual_row[w1] == dual_row[w2] == golden.c[j]
        normalization = lp.A_eq[m + 1 + n]
        assert normalization[w1] == normalization[w2] == -golden.alpha
        coupling = lp.A_eq[-1]
        assert coupling[w1] == coupling[w2] == 0.0


class TestRecovery:
    def test_primal_interior_golden(self, golden):
        theta = solve_theta_star(golden)
        out = solve_lp(build_primal_interior_lp(golden, theta))
        tp = recover_primal_interior(golden, out)
        assert tp.t > 0
        # Membership in the primal optimal face, written out per row.
        assert_allclose(golden.A @ tp.x_bar - golden.b * tp.t + tp.u_bar, 0.0, atol=1e-7)
        assert float(golden.d @ tp.x_bar + golden.beta * tp.t) == pytest.approx(1.0, abs=1e-7)
        assert float(golden.c @ tp.x_bar + golden.alpha * tp.t) == pytest.approx(theta, abs=1e-7)
        assert {j + 1 for j in np.nonzero(tp.x_bar > 1e-7)[0]} == {1, 2}
        assert {i + 1 for i in np.nonzero(tp.u_bar > 1e-7)[0]} == {1}
        # Mapping back through the scaling reproduces the optimal value.
        assert evaluate_objective(golden, tp.x_bar / tp.t) == pytest.approx(theta, abs=1e-6)

    def test_dual_interior_golden(self, golden):
        theta = solve_theta_star(golden)
        out = solve_lp(build_dual_interior_lp(golden, theta))
        dual = recover_dual_interior(golden, out)
        assert_allclose(dual.y, [0.0, 1.0 / 3.0], atol=1e-4)
        assert dual.z == pytest.approx(1.3333, abs=1e-4)
        assert_allclose(dual.v, [0.0, 0.0], atol=1e-7)
        assert {i + 1 for i in np.nonzero(dual.y > 1e-7)[0]} == {2}
        # Membership in the dual optimal face.
        assert_allclose(
            golden.A.T @ dual.y + golden.d * dual.z - dual.v, golden.c, atol=1e-7
        )
        assert float(-golden.b @ dual.y + golden.beta * dual.z) == pytest.approx(
            golden.alpha, abs=1e-7
        )
        assert dual.z == pytest.approx(theta, abs=1e-7)

    @pytest.mark.parametrize(
        "build, recover",
        [
            (build_primal_interior_lp, recover_primal_interior),
            (build_dual_interior_lp, recover_dual_interior),
        ],
        ids=["primal", "dual"],
    )
    @pytest.mark.parametrize(
        "status, error, message",
        [
            (SolveStatus.OPTIMAL, DegenerateNormalizer, "zero scaling weight while recovering"),
            (SolveStatus.ITERATION_LIMIT, ValueError, "expected an optimal outcome"),
        ],
        ids=["zero-weight", "not-optimal"],
    )
    def test_failure_paths(self, golden, build, recover, status, error, message):
        lp = build(golden, THETA_GOLDEN)
        if status is SolveStatus.OPTIMAL:
            outcome = LPOutcome(status, np.zeros(lp.num_vars), 0.0)
        else:
            outcome = LPOutcome(status, detail="iteration cap of 7 reached")
        with pytest.raises(error, match=message):
            recover(golden, outcome)


class TestApproachOne:
    def test_golden_partition(self, golden):
        sol = approach_one(golden)
        assert sol.theta_star == pytest.approx(THETA_GOLDEN, abs=1e-6)
        assert as_sets(optimal_partitions(sol)) == GOLDEN_PARTITION

    def test_golden_point_is_feasible_optimal_strict(self, golden):
        # Any relative-interior optimum is acceptable; check the properties,
        # not the specific coordinates.
        sol = approach_one(golden)
        assert np.all(sol.primal.x >= -1e-9)
        assert np.all(golden.b - golden.A @ sol.primal.x >= -1e-9)
        assert evaluate_objective(golden, sol.primal.x) == pytest.approx(
            sol.theta_star, abs=1e-6
        )
        assert verify_csc(sol).ok and verify_scsc(sol).ok

    def test_one_dimensional_increasing_ratio(self):
        # max (x + 1)/(x + 2) on [0, 1]: the ratio increases in x, so the
        # optimum sits at x = 1 with the row binding.  Brute force first.
        problem = LFPProblem(A=[[1.0]], b=[1.0], c=[1.0], d=[1.0], alpha=1.0, beta=2.0)
        grid = np.linspace(0.0, 1.0, 10001)
        values = (grid + 1.0) / (grid + 2.0)
        assert np.argmax(values) == grid.size - 1
        sol = approach_one(problem)
        assert sol.theta_star == pytest.approx(values.max(), abs=1e-9)
        assert sol.primal.x[0] == pytest.approx(1.0, abs=1e-9)
        assert as_sets(optimal_partitions(sol)) == ({1}, set(), set(), {1})

    def test_dual_point_is_interior_on_a_dual_optimal_edge(self):
        # max x over {x <= 1, x <= 1}: both rows are tight at the optimum, so
        # the dual optimal face is the edge y1 + y2 = 1, y >= 0.  Stage 1's
        # dual vertex has a zero y_i; the strictly complementary dual needs both
        # positive, which the primal face LP's row duals supply.
        problem = LFPProblem(A=[[1.0], [1.0]], b=[1.0, 1.0], c=[1.0], d=[0.0], alpha=0.0, beta=1.0)
        stage1 = solve_lp(build_transformed_lp(problem))
        assert (stage1.duals[:2] <= 1e-9).any()
        sol = approach_one(problem, stage1=stage1)
        assert sol.dual.y.sum() == pytest.approx(1.0, abs=1e-9)
        assert as_sets(optimal_partitions(sol)) == ({1}, set(), set(), {1, 2})

    def test_reuses_a_precomputed_stage1_outcome(self, golden, lp_records):
        stage1 = solve_lp(build_transformed_lp(golden))
        sol = approach_one(golden, stage1=stage1)
        assert [record.lp for record in lp_records()] == ["primal face"]  # no stage-1 solve
        assert sol.theta_star == stage1.objective
        assert as_sets(optimal_partitions(sol)) == GOLDEN_PARTITION

    def test_classifies_a_precomputed_stage1_outcome(self, golden):
        with pytest.raises(UnboundedObjective):
            approach_one(golden, stage1=LPOutcome(SolveStatus.UNBOUNDED))

    def test_nonzero_scaling_weight_reduced_cost_is_a_breakdown(self, golden, monkeypatch):
        # The derived dual point needs s_w = yd + theta_star * yc = 0 on the
        # primal face LP's row duals.  Shift yd off it.
        stage1 = solve_lp(build_transformed_lp(golden))

        def shifted(lp, opts):
            out = solve_lp(lp, opts)
            duals = out.duals.copy()
            duals[golden.num_rows] += 1e-3
            return LPOutcome(out.status, out.point, out.objective, duals=duals)

        monkeypatch.setattr(lp_module, "solve_lp", shifted)
        with pytest.raises(DegenerateNormalizer, match=r"s_w = yd \+ theta_star \* yc = 1\.000e-03"):
            approach_one(golden, stage1=stage1)


class TestApproachTwo:
    def test_golden_matches_approach_one(self, golden):
        one = optimal_partitions(approach_one(golden))
        two = optimal_partitions(approach_two(golden))
        assert one == two

    def test_value_recovered_without_stage_one(self, golden):
        sol = approach_two(golden)
        assert sol.dual.z == pytest.approx(THETA_GOLDEN, abs=1e-6)
        assert sol.theta_star == sol.dual.z

    def test_constant_ratio_interior_point(self):
        # Ratio identically 1: every feasible point is optimal, so the strict
        # solution has x and u positive and the dual side all slack.
        problem = LFPProblem(A=[[1.0]], b=[2.0], c=[0.0], d=[0.0], alpha=1.0, beta=1.0)
        for sol in (approach_one(problem), approach_two(problem)):
            assert as_sets(optimal_partitions(sol)) == ({1}, set(), {1}, set())

    # A zero scaling weight on the joint face is classified by a stage-1 solve.
    def test_empty_region_is_infeasible(self):
        problem = LFPProblem(A=[[1.0]], b=[-1.0], c=[1.0], d=[0.0], alpha=0.0, beta=1.0)
        with pytest.raises(InfeasibleRegion):
            approach_two(problem)

    def test_unbounded_ratio_is_unbounded(self):
        problem = LFPProblem(A=[[-1.0]], b=[1.0], c=[1.0], d=[0.0], alpha=0.0, beta=1.0)
        with pytest.raises(UnboundedObjective):
            approach_two(problem)

    def test_zero_weight_on_a_solvable_problem_is_degenerate(self, golden, monkeypatch, lp_records):
        def all_zero(lp, opts):
            return LPOutcome(SolveStatus.OPTIMAL, np.zeros(lp.num_vars), 0.0)

        monkeypatch.setattr(lp_module, "solve_lp", all_zero)
        with pytest.raises(DegenerateNormalizer, match="although stage 1 proves an optimal pair exists"):
            approach_two(golden)
        assert [record.lp for record in lp_records()] == ["joint face", "stage 1"]


class TestVerifiers:
    def test_csc_passes_on_golden_solution(self, golden):
        sol = vertex_solution(golden, [0.8, 3.6], [0.0, 1.0 / 3.0], THETA_GOLDEN)
        report = verify_csc(sol)
        assert report.ok
        assert report.primal_inner == pytest.approx(0.0, abs=1e-9)
        assert report.dual_inner == pytest.approx(0.0, abs=1e-9)

    def test_csc_fails_on_perturbation(self, golden):
        sol = vertex_solution(golden, [0.8, 3.6], [0.0, 1.0 / 3.0], THETA_GOLDEN)
        tampered = StrictComplementarySolution(
            sol.primal, sol.t_star,
            DualPoint(sol.dual.y, sol.dual.z, np.array([0.1, 0.0])),
            sol.theta_star,
        )
        report = verify_csc(tampered)
        assert not report.ok
        assert report.primal_inner == pytest.approx(0.08)

    def test_scsc_passes_on_interior_solution(self, golden):
        sol = vertex_solution(golden, [0.8, 3.6], [0.0, 1.0 / 3.0], THETA_GOLDEN)
        report = verify_scsc(sol)
        assert report.ok
        assert report.min_primal_sum == pytest.approx(0.8, abs=1e-9)
        assert report.min_dual_sum == pytest.approx(1.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize(
        "x, failing_primal, failing_dual",
        [
            ([0.0, 2.0], (1,), ()),  # x1 = v1 = 0
            ([1.0, 4.0], (), (1,)),  # u1 = y1 = 0
        ],
    )
    def test_scsc_fails_on_vertices_with_index(self, golden, x, failing_primal, failing_dual):
        sol = vertex_solution(golden, x, [0.0, 1.0 / 3.0], THETA_GOLDEN)
        assert verify_csc(sol).ok  # vertices are optimal, just not strict
        report = verify_scsc(sol)
        assert not report.ok
        assert report.failing_primal == failing_primal
        assert report.failing_dual == failing_dual

    def test_scsc_all_positive_synthetic(self):
        sol = StrictComplementarySolution(
            PrimalPoint([1.0], [2.0]), 1.0, DualPoint([3.0], 1.0, [4.0]), 1.0
        )
        assert verify_scsc(sol).ok

    @pytest.mark.parametrize("primal, dual, message", [
        (PrimalPoint([1.0, 2.0], [2.0]), DualPoint([3.0], 1.0, [4.0]),
         "x and v must have the same length"),
        (PrimalPoint([1.0], [2.0]), DualPoint([3.0, 5.0], 1.0, [4.0]),
         "u and y must have the same length"),
    ], ids=["x-v", "u-y"])
    def test_solution_rejects_mismatched_lengths(self, primal, dual, message):
        with pytest.raises(ValueError, match=message):
            StrictComplementarySolution(primal, 1.0, dual, 1.0)


class TestPartitions:
    def test_golden(self, golden):
        sol = vertex_solution(golden, [0.8, 3.6], [0.0, 1.0 / 3.0], THETA_GOLDEN)
        assert as_sets(optimal_partitions(sol)) == GOLDEN_PARTITION

    def test_violation_on_non_strict_vertex(self, golden):
        sol = vertex_solution(golden, [0.0, 2.0], [0.0, 1.0 / 3.0], THETA_GOLDEN)
        with pytest.raises(PartitionViolation, match=r"x/v cover misses \[1\]"):
            optimal_partitions(sol)

    @pytest.mark.parametrize(
        "x, u, y, v, message",
        [([1.0], [1.0], [0.0], [1.0], "x/v overlap at [1] (x = 1.000e+00, v = 1.000e+00)"),
         ([1.0], [1.0], [1.0], [0.0], "u/y overlap at [1] (u = 1.000e+00, y = 1.000e+00)"),
         ([1.0], [0.0], [0.0], [0.0], "u/y cover misses [1] (u = 0.000e+00, y = 0.000e+00)"),
         ([0.0, 1.0, 2e-8], [0.0], [3.0], [0.0, 1.0, 0.0],
          "x/v overlap at [2] (x = 1.000e+00, v = 1.000e+00); "
          "x/v cover misses [1, 3] (x = 0.000e+00, v = 0.000e+00; x = 2.000e-08, v = 0.000e+00)")],
        ids=["xv-overlap", "uy-overlap", "uy-cover", "two-faults"],
    )
    def test_violation_names_its_fault(self, x, u, y, v, message):
        sol = StrictComplementarySolution(PrimalPoint(x, u), 1.0, DualPoint(y, 1.0, v), 1.0)
        with pytest.raises(PartitionViolation) as raised:
            optimal_partitions(sol)
        assert str(raised.value) == message

    def test_near_miss_reports_both_values(self):
        # x_1 sits just under pos_tol = 1e-7 and v_1 is 0, so index 1 is uncovered.
        sol = StrictComplementarySolution(
            PrimalPoint([5e-8], [1.0]), 1.0, DualPoint([0.0], 1.0, [0.0]), 1.0
        )
        with pytest.raises(PartitionViolation) as raised:
            optimal_partitions(sol)
        assert str(raised.value) == "x/v cover misses [1] (x = 5.000e-08, v = 0.000e+00)"


class TestRandomInstances:
    @pytest.mark.parametrize("seed", range(30))
    def test_existence_and_agreement(self, seed):
        problem = random_instance(seed)
        one = approach_one(problem)
        two = approach_two(problem)
        for sol in (one, two):
            assert verify_csc(sol).ok
            assert verify_scsc(sol).ok
        assert optimal_partitions(one) == optimal_partitions(two)

    @pytest.mark.parametrize("seed", range(20))
    def test_optimality_chain(self, seed):
        problem = random_instance(seed)
        sol = approach_one(problem)
        assert evaluate_objective(problem, sol.primal.x) == pytest.approx(
            sol.dual.z, abs=1e-7
        )
        assert sol.dual.z == pytest.approx(sol.theta_star, abs=1e-7)

    @pytest.mark.parametrize("seed", range(20))
    def test_face_membership(self, seed):
        problem = random_instance(seed)
        theta = solve_theta_star(problem)
        tp = recover_primal_interior(
            problem, solve_lp(build_primal_interior_lp(problem, theta))
        )
        assert np.max(np.abs(problem.A @ tp.x_bar - problem.b * tp.t + tp.u_bar)) <= 1e-7
        assert float(problem.d @ tp.x_bar + problem.beta * tp.t) == pytest.approx(1.0, abs=1e-7)
        assert float(problem.c @ tp.x_bar + problem.alpha * tp.t) == pytest.approx(theta, abs=1e-7)
        dual = recover_dual_interior(
            problem, solve_lp(build_dual_interior_lp(problem, theta))
        )
        assert np.max(np.abs(problem.A.T @ dual.y + problem.d * dual.z - dual.v - problem.c)) <= 1e-7
        assert float(-problem.b @ dual.y + problem.beta * dual.z) == pytest.approx(
            problem.alpha, abs=1e-7
        )
        assert dual.z == pytest.approx(theta, abs=1e-7)

    @pytest.mark.parametrize("seed", range(12))
    def test_partition_matches_face_oracles(self, seed):
        assert_partition_matches_face_oracles(random_instance(seed, total_cap=8, nonneg_objective=True))

    @pytest.mark.parametrize("seed", range(12))
    def test_partition_matches_face_oracles_negative_theta(self, seed):
        # The numerator -(c.x + alpha) is negative on the whole region, so
        # theta_star < 0 and the dual face's z coordinate is negative.
        problem = negated_objective(random_instance(seed, total_cap=8, nonneg_objective=True))
        assert solve_theta_star(problem) < 0
        assert_partition_matches_face_oracles(problem)


def assert_partition_matches_face_oracles(problem):
    m, n = problem.num_rows, problem.num_vars
    sol = approach_one(problem)
    partition = optimal_partitions(sol)
    theta = sol.theta_star
    primal_support = coordinate_support_oracle(primal_optimal_face(problem, theta))
    dual_support = coordinate_support_oracle(dual_optimal_face(problem, theta))
    assert partition.sigma_x == {j for j in primal_support if j <= n}
    assert n + 1 in primal_support  # t is positive on the whole face
    assert partition.sigma_u == {j - n - 1 for j in primal_support if j > n + 1}
    assert partition.sigma_y == {i for i in dual_support if i <= m}
    assert m + 1 not in dual_support  # z is free, so never part of a support
    assert partition.sigma_v == {j - m - 1 for j in dual_support if j > m + 1}

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lfpkit import (
    DegenerateT,
    InfeasibleRegion,
    LFPProblem,
    NonpositiveDenominator,
    TransformedPoint,
    build_dual_lp,
    build_transformed_lp,
    charnes_cooper_forward,
    charnes_cooper_inverse,
    evaluate_objective,
    solve_lp,
    solve_theta_star,
)

from helpers import GOLDEN, golden_point, random_instance


class TestForward:
    def test_origin_forces_t_equal_inverse_beta(self, golden):
        tp = charnes_cooper_forward(golden, [0.0, 0.0])
        assert tp.t == pytest.approx(0.2)
        assert_allclose(tp.x_bar, [0.0, 0.0])

    def test_interior_optimum(self, golden):
        # denominator 5*0.8 + 2*3.6 + 5 = 16.2
        tp = charnes_cooper_forward(golden, [0.8, 3.6])
        assert tp.t == pytest.approx(1.0 / 16.2, rel=1e-12)
        assert_allclose(tp.x_bar, [0.049383, 0.222222], atol=1e-6)

    def test_vertex_denominator_eighteen(self, golden):
        tp = charnes_cooper_forward(golden, [1.0, 4.0])
        assert tp.t == pytest.approx(1.0 / 18.0, rel=1e-12)
        assert_allclose(tp.x_bar, [1.0 / 18.0, 4.0 / 18.0], rtol=1e-12)

    @pytest.mark.parametrize("x, value", [([-1.0, 0.0], "0"), ([-2.0, 0.0], "-5")],
                             ids=["zero", "negative"])
    def test_nonpositive_denominator_is_rejected(self, golden, x, value):
        # d = (5, 2) and beta = 5: d.x + beta is 0 at (-1, 0) and -5 at (-2, 0).
        with pytest.raises(NonpositiveDenominator,
                           match=f"^denominator {value} is not positive at this point$"):
            charnes_cooper_forward(golden, x)

    def test_scaling_identity_holds(self, golden):
        tp = charnes_cooper_forward(golden, [0.8, 3.6])
        assert float(golden.d @ tp.x_bar + golden.beta * tp.t) == pytest.approx(1.0, abs=1e-12)


class TestInverse:
    def test_origin(self, golden):
        point = charnes_cooper_inverse(TransformedPoint([0.0, 0.0], 0.2, [1.2, 0.4]))
        assert_allclose(point.x, [0.0, 0.0])
        assert_allclose(point.u, [6.0, 2.0])

    def test_interior_optimum(self, golden):
        tp = charnes_cooper_forward(golden, [0.8, 3.6])
        point = charnes_cooper_inverse(tp)
        assert_allclose(point.x, [0.8, 3.6], atol=1e-12)
        assert_allclose(point.u, [0.8, 0.0], atol=1e-12)

    def test_degenerate_t(self):
        with pytest.raises(DegenerateT):
            charnes_cooper_inverse(TransformedPoint([0.0], 1e-15, [0.0]))


class TestBuilders:
    def test_transformed_rows_golden(self, golden):
        lp = build_transformed_lp(golden)
        assert lp.num_vars == 3 and lp.num_rows == 3
        assert_allclose(lp.objective, [6, 3, 6])
        assert_allclose(lp.A_ub[0], [2, 1, -6])
        assert_allclose(lp.A_ub[1], [-2, 1, -2])
        assert_allclose(lp.A_eq[0], [5, 2, 5])
        assert lp.A_ub.shape[0] == 2 and lp.b_ub[0] == 0.0
        assert lp.A_eq.shape[0] == 1 and lp.b_eq[0] == 1.0
        assert np.all(lp.lo == 0.0) and np.all(lp.hi == np.inf)

    def test_transformed_template_tiny(self):
        problem = LFPProblem(A=[[1.0]], b=[1.0], c=[1.0], d=[0.0], alpha=0.0, beta=1.0)
        lp = build_transformed_lp(problem)
        assert_allclose(lp.A_ub[0], [1, -1])
        assert_allclose(lp.A_eq[0], [0, 1])
        assert lp.b_eq[0] == 1.0
        assert_allclose(lp.objective, [1, 0])

    def test_transformed_solves_to_golden_value(self, golden):
        out = solve_lp(build_transformed_lp(golden))
        assert out.objective == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_dual_rows_golden(self, golden):
        lp = build_dual_lp(golden)
        assert lp.num_vars == 3 and lp.num_rows == 3  # (y1, y2, z); n + 1 rows
        # The >= rows are stored negated: -(A'y + d z) <= -c.
        assert_allclose(-lp.A_ub[0], [2, -2, 5])
        assert lp.A_ub.shape[0] == 2 and -lp.b_ub[0] == 6.0
        assert_allclose(-lp.A_ub[1], [1, 1, 2])
        assert -lp.b_ub[1] == 3.0
        assert_allclose(lp.A_eq[0], [-6, -2, 5])
        assert lp.A_eq.shape[0] == 1 and lp.b_eq[0] == 6.0
        assert lp.lo[2] == -np.inf and lp.hi[2] == np.inf

    def test_dual_solution_golden(self, golden):
        out = solve_lp(build_dual_lp(golden))
        assert out.objective == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert_allclose(out.point[:2], [0.0, 1.0 / 3.0], atol=1e-8)

    def test_dual_shape_generic(self):
        problem = LFPProblem(
            A=np.ones((3, 4)), b=np.ones(3), c=np.zeros(4), d=np.ones(4), alpha=0.0, beta=1.0
        )
        lp = build_dual_lp(problem)
        assert lp.num_rows == problem.num_vars + 1
        assert lp.num_vars == problem.num_rows + 1


class TestThetaStar:
    def test_golden(self, golden):
        assert solve_theta_star(golden) == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_constant_ratio_is_one(self, golden):
        problem = LFPProblem(
            A=golden.A, b=golden.b, c=golden.d, d=golden.d,
            alpha=golden.beta, beta=golden.beta,
        )
        assert solve_theta_star(problem) == pytest.approx(1.0, abs=1e-9)

    def test_empty_region(self):
        problem = LFPProblem(A=[[1.0]], b=[-1.0], c=[1.0], d=[1.0], alpha=0.0, beta=1.0)
        with pytest.raises(InfeasibleRegion):
            solve_theta_star(problem)

    @pytest.mark.parametrize("seed", range(10))
    def test_dual_breakdown_falls_back_to_the_same_theta(self, request, lp_records, seed):
        # Stage 1 takes the dual simplex; where it breaks down, one attempt
        # on the primal path solves the same LP again and finds the same optimum.
        problem = random_instance(seed)
        expected = solve_theta_star(problem)
        request.getfixturevalue("dual_run_breaks_down")
        assert solve_theta_star(problem) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        [_, record] = lp_records()
        assert [run[:2] for run in record.outcome.runs] == [
            ("dual", "singular"), ("primal", "optimal"), ("primal", "optimal")]


class TestCorrespondence:
    @given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, weights):
        problem = LFPProblem(**GOLDEN)
        x = golden_point(weights)
        point = charnes_cooper_inverse(charnes_cooper_forward(problem, x))
        assert_allclose(point.x, x, rtol=1e-9, atol=1e-12)

    @given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_objective_equivalence(self, weights):
        # Ratio value at x equals the linear value at the scaled image of x.
        problem = LFPProblem(**GOLDEN)
        x = golden_point(weights)
        tp = charnes_cooper_forward(problem, x)
        linear = float(problem.c @ tp.x_bar + problem.alpha * tp.t)
        assert linear == pytest.approx(evaluate_objective(problem, x), rel=1e-9)

    @given(
        weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
        y=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=2, max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_weak_duality(self, weights, y):
        # Any feasible ratio value is dominated by any dual-feasible z.
        problem = LFPProblem(**GOLDEN)
        y = np.asarray(y)
        z = float(problem.alpha + problem.b @ y) / problem.beta  # equality row pins z
        assume(np.all(problem.A.T @ y + problem.d * z - problem.c >= 0.0))
        x = golden_point(weights)
        assert evaluate_objective(problem, x) <= z + 1e-7

    def test_strong_duality_golden(self, golden):
        primal = solve_lp(build_transformed_lp(golden))
        dual = solve_lp(build_dual_lp(golden))
        assert primal.objective == pytest.approx(dual.objective, abs=1e-7)

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lfpkit.problem as problem_module
from lfpkit import (
    DimensionError,
    InfeasibleRegion,
    IterationLimitError,
    LFPProblem,
    LPOutcome,
    NonpositiveDenominator,
    ParseError,
    PrimalPoint,
    SolveStatus,
    UnboundedValidation,
    evaluate_objective,
    parse_problem,
    validate_denominator,
)

from helpers import region_vertices

GOLDEN_DOC = (
    '{"A": [[2, 1], [-2, 1]], "b": [6, 2], "c": [6, 3],'
    ' "d": [5, 2], "alpha": 6, "beta": 5}'
)


def combination(vertices, weights):
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    return sum(w * v for w, v in zip(weights, vertices))


class TestEvaluateObjective:
    def test_reported_interior_optimum(self, golden):
        assert evaluate_objective(golden, [0.8, 3.6]) == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert evaluate_objective(golden, [0.8, 3.6]) == pytest.approx(1.3333, abs=1e-4)

    def test_optimal_vertex(self, golden):
        assert evaluate_objective(golden, [1.0, 4.0]) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_origin(self, golden):
        # (0 + 0 + 6) / (0 + 0 + 5)
        assert evaluate_objective(golden, [0.0, 0.0]) == pytest.approx(1.2)

    def test_nonpositive_denominator_raises(self):
        problem = LFPProblem(A=[[1.0]], b=[10.0], c=[1.0], d=[-1.0], alpha=0.0, beta=1.0)
        with pytest.raises(NonpositiveDenominator):
            evaluate_objective(problem, [5.0])

    @given(k=st.floats(min_value=0.01, max_value=100.0), weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_scaling_numerator_scales_value(self, k, weights):
        # Multiplying (c, alpha) by k > 0 multiplies the value by k.
        problem = LFPProblem(A=[[2, 1], [-2, 1]], b=[6, 2], c=[6, 3], d=[5, 2], alpha=6, beta=5)
        scaled = LFPProblem(
            A=problem.A, b=problem.b, c=k * problem.c, d=problem.d,
            alpha=k * problem.alpha, beta=problem.beta,
        )
        x = combination([np.array(v, float) for v in ((0, 0), (3, 0), (0, 2), (1, 4))], weights)
        assert evaluate_objective(scaled, x) == pytest.approx(
            k * evaluate_objective(problem, x), rel=1e-9
        )


class TestValidateDenominator:
    def test_golden_minimum_matches_vertex_enumeration(self, golden):
        vertices = region_vertices(golden)
        assert len(vertices) == 4
        oracle = min(float(golden.d @ v + golden.beta) for v in vertices)
        assert oracle == pytest.approx(5.0)
        assert validate_denominator(golden) == pytest.approx(oracle, abs=1e-9)

    def test_constant_denominator(self):
        problem = LFPProblem(A=[[1.0]], b=[1.0], c=[1.0], d=[0.0], alpha=0.0, beta=1.0)
        assert validate_denominator(problem) == pytest.approx(1.0)

    def test_iteration_cap_is_named(self, golden, monkeypatch):
        capped = LPOutcome(SolveStatus.ITERATION_LIMIT, detail="iteration cap of 1 reached")
        monkeypatch.setattr(problem_module, "solve_lp", lambda lp, opts: capped)
        message = "validation stopped early: iteration cap of 1 reached"
        with pytest.raises(IterationLimitError, match=message):
            validate_denominator(golden)

    def test_empty_region(self):
        problem = LFPProblem(A=[[1.0]], b=[-1.0], c=[1.0], d=[1.0], alpha=0.0, beta=1.0)
        with pytest.raises(InfeasibleRegion):
            validate_denominator(problem)

    def test_unbounded_below(self):
        # x2 is unconstrained upward and d2 < 0, so d.x has no lower bound.
        problem = LFPProblem(
            A=[[1.0, 0.0]], b=[1.0], c=[1.0, 0.0], d=[0.0, -1.0], alpha=0.0, beta=1.0
        )
        with pytest.raises(UnboundedValidation):
            validate_denominator(problem)


class TestParseProblem:
    def test_golden_document(self, golden):
        problem = parse_problem(GOLDEN_DOC)
        assert_allclose(problem.A, golden.A)
        assert_allclose(problem.b, golden.b)
        assert_allclose(problem.c, golden.c)
        assert_allclose(problem.d, golden.d)
        assert problem.alpha == 6.0 and problem.beta == 5.0

    def test_accepts_bytes(self):
        problem = parse_problem(GOLDEN_DOC.encode("utf-8"))
        assert problem.num_vars == 2

    def test_dimension_mismatch(self):
        doc = json.loads(GOLDEN_DOC)
        doc["b"] = [6, 2, 1]
        with pytest.raises(DimensionError):
            parse_problem(json.dumps(doc))

    def test_nan_entry(self):
        doc = json.loads(GOLDEN_DOC)
        doc["alpha"] = float("nan")  # written as the JSON literal NaN
        with pytest.raises(ValueError):
            parse_problem(json.dumps(doc))

    def test_integer_beyond_float_range_is_not_finite(self):
        text = GOLDEN_DOC.replace('"alpha": 6', '"alpha": 1' + "0" * 400)
        with pytest.raises(ValueError, match="alpha must be finite"):
            parse_problem(text)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_problem("{not json")

    def test_missing_key(self):
        doc = json.loads(GOLDEN_DOC)
        del doc["d"]
        with pytest.raises(ParseError):
            parse_problem(json.dumps(doc))

    def test_deeply_nested_document(self):
        depth = 200_000
        text = GOLDEN_DOC.replace("[[2, 1], [-2, 1]]", "[" * depth + "]" * depth)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_problem(text)

    def test_non_object_document(self):
        with pytest.raises(ParseError):
            parse_problem("[1, 2, 3]")

    def test_non_numeric_coefficient(self):
        doc = json.loads(GOLDEN_DOC)
        doc["c"] = ["six", 3]
        with pytest.raises(ParseError):
            parse_problem(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("A", [["2", 1], [-2, 1]]),
            ("b", [" 6 ", 2]),
            ("d", [5, "2.5"]),
            ("alpha", "0"),
            ("beta", "NaN"),
        ],
        ids=["A", "b", "d", "alpha", "beta"],
    )
    def test_numeric_string_is_not_a_number(self, key, value):
        doc = json.loads(GOLDEN_DOC)
        doc[key] = value
        with pytest.raises(ParseError, match="must be a number"):
            parse_problem(json.dumps(doc))

    def test_ragged_matrix(self):
        doc = json.loads(GOLDEN_DOC)
        doc["A"] = [[2, 1], [-2]]
        with pytest.raises(DimensionError):
            parse_problem(json.dumps(doc))


class TestTypes:
    def test_problem_rejects_empty_shapes(self):
        with pytest.raises(DimensionError):
            LFPProblem(A=np.zeros((0, 2)), b=[], c=[1, 1], d=[1, 1], alpha=0, beta=1)

    def test_problem_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LFPProblem(A=[[np.inf]], b=[1], c=[1], d=[1], alpha=0, beta=1)

    @given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_primal_point_slack_roundtrip(self, weights):
        problem = LFPProblem(A=[[2, 1], [-2, 1]], b=[6, 2], c=[6, 3], d=[5, 2], alpha=6, beta=5)
        vertices = [np.array(v, float) for v in ((0, 0), (3, 0), (0, 2), (1, 4))]
        x = combination(vertices, weights)
        point = PrimalPoint.from_x(problem, x)
        assert_allclose(point.u, problem.b - problem.A @ point.x, atol=1e-9)
        assert np.all(point.u >= -1e-9)

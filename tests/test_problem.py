import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lfpkit import (
    DimensionError,
    InfeasibleRegion,
    LFPProblem,
    NonpositiveDenominator,
    ParseError,
    PrimalPoint,
    UnboundedValidation,
    evaluate_objective,
    parse_problem,
    validate_denominator,
)

from helpers import GOLDEN, golden_point, region_vertices

GOLDEN_DOC = json.dumps(GOLDEN)


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
        problem = LFPProblem(**GOLDEN)
        scaled = LFPProblem(
            A=problem.A, b=problem.b, c=k * problem.c, d=problem.d,
            alpha=k * problem.alpha, beta=problem.beta,
        )
        x = golden_point(weights)
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

    def test_slack_basis_is_optimal_at_once(self, lp_records):
        # b >= 0 puts x = 0 in the region, and d >= 0 makes it a minimizer:
        # the dual simplex starts from the slack basis with every column at
        # its lower bound, takes no basis change, and the minimum is
        # d.0 + beta = beta exactly.  No primal run follows.
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, m = (int(k) for k in rng.integers(1, 9, size=2))
            b = rng.random(m) * (rng.random(m) < 0.8)
            b[0] += 1.0
            problem = LFPProblem(
                A=rng.normal(size=(m, n)), b=b,
                c=rng.normal(size=n), d=rng.random(n) * (rng.random(n) < 0.8),
                alpha=0.0, beta=float(rng.random()) + 0.5,
            )
            assert validate_denominator(problem) == problem.beta
        records = lp_records()
        assert [record.lp for record in records] == ["denominator"] * 20
        assert [[run[:3] for run in r.outcome.runs] for r in records] == [[("dual", "optimal", 0)]] * 20

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

    @pytest.mark.parametrize(
        "old, new",
        [('"beta": 5', '"beta": 5, "beta": -100'), ("[6, 3]", '[{"k": 1, "k": 2}, 3]')],
        ids=["top-level", "nested"],
    )
    def test_repeated_key(self, old, new):
        # json.loads alone would keep the last value: beta = -100 empties the scaled region.
        with pytest.raises(ParseError, match="appears more than once"):
            parse_problem(GOLDEN_DOC.replace(old, new))

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
        text = GOLDEN_DOC.replace(json.dumps(GOLDEN["A"]), "[" * depth + "]" * depth)
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

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            ({("A", 1, 0): True}, ParseError, "A[1][0] must be a number, got True"),
            ({("b", 1): None}, ParseError, "b[1] must be a number, got None"),
            ({("c", 0): [6]}, ParseError, "c[0] must be a number, got [6]"),
            ({("d", 1): float("nan")}, ValueError, "d[1] must be finite, got nan"),
            ({("A", 0, 1): -float("inf")}, ValueError, "A[0][1] must be finite, got -inf"),
            ({("b", 0): 10**400}, ValueError, "b[0] must be finite, got inf"),
            ({("A", 0, 0): "x", ("A", 1, 1): float("nan")}, ParseError,
             "A[0][0] must be a number, got 'x'"),
            ({("A", 1, 1): float("nan"), ("b", 0): "x"}, ValueError,
             "A[1][1] must be finite, got nan"),
            ({("c", 1): False, ("d", 0): "x"}, ParseError, "c[1] must be a number, got False"),
        ],
        ids=["bool", "null", "list", "nan", "minus-inf", "huge-integer", "first-of-two-in-A",
             "A-before-b", "c-before-d"],
    )
    def test_bad_entry_is_named(self, changes, error, message):
        # Arrays are checked in one pass; the first bad entry, in the order
        # A (row by row), b, c, d, is named exactly as an entry-by-entry scan names it.
        doc = json.loads(GOLDEN_DOC)
        for (key, *index), value in changes.items():
            target = doc[key]
            for i in index[:-1]:
                target = target[i]
            target[index[-1]] = value
        with pytest.raises(error) as raised:
            parse_problem(json.dumps(doc))
        assert str(raised.value) == message

    def test_integers_convert_as_float_does(self):
        values = [2**53 + 1, 2**60 + 1, 2**64 + 12345, -(2**70) - 3, 10**300 + 7]
        doc = json.loads(GOLDEN_DOC)
        doc["c"], doc["d"] = values[:2], values[2:4]
        doc["A"][0][0] = values[4]
        problem = parse_problem(json.dumps(doc))
        assert problem.c.tolist() == [float(v) for v in values[:2]]
        assert problem.d.tolist() == [float(v) for v in values[2:4]]
        assert problem.A[0, 0] == float(values[4])

    def test_bytes_that_are_not_utf8(self):
        with pytest.raises(ParseError, match="problem file is not UTF-8"):
            parse_problem(GOLDEN_DOC.encode("utf-16"))

    @pytest.mark.parametrize("key, value, message", [
        ("A", [], "A must be a non-empty list of rows"),
        ("b", 6, "b must be a list of numbers"),
    ], ids=["empty-A", "scalar-b"])
    def test_malformed_array(self, key, value, message):
        doc = json.loads(GOLDEN_DOC)
        doc[key] = value
        with pytest.raises(ParseError, match=message):
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

    @pytest.mark.parametrize(
        "bad, named",
        [({"A": np.inf}, "A"), ({"b": np.nan}, "b"), ({"c": -np.inf}, "c"), ({"d": np.nan}, "d"),
         ({"A": np.nan, "d": np.inf}, "A")],
        ids=["A", "b", "c", "d", "A-and-d"],
    )
    def test_problem_names_the_first_nonfinite_array(self, bad, named):
        # A, b, c, d order: the first array with a non-finite entry is named.
        data = {"A": [[1.0, 2.0], [3.0, 4.0]], "b": [1.0, 2.0], "c": [1.0, 2.0], "d": [1.0, 2.0]}
        for key, value in bad.items():
            data[key] = np.array(data[key])
            data[key].flat[-1] = value
        with pytest.raises(ValueError, match=f"^{named} has a non-finite entry$"):
            LFPProblem(**data, alpha=0, beta=1)

    @pytest.mark.parametrize("c, d", [([1, 1], [1]), ([1], [1, 1])], ids=["c", "d"])
    def test_problem_rejects_objective_vectors_of_the_wrong_length(self, c, d):
        with pytest.raises(DimensionError, match="c and d must have 1 entries to match A's columns"):
            LFPProblem(A=[[1.0]], b=[1], c=c, d=d, alpha=0, beta=1)

    @pytest.mark.parametrize("name, A_entry", [("b", 1.0), ("c", 1.0), ("d", 1.0), ("b", np.nan)],
                             ids=["b", "c", "d", "b-before-A-nan"])
    def test_problem_rejects_a_vector_with_two_axes(self, name, A_entry):
        # Not flattened: b = [[1, 2], [3, 4]] would pass as the vector (1, 2, 3, 4).  A shape
        # is checked before any value, so a NaN in A, the earlier field, is not the one named.
        data = {"A": np.ones((4, 4)), "b": np.ones(4), "c": np.ones(4), "d": np.ones(4)}
        data["A"][0, 0] = A_entry
        data[name] = data[name].reshape(2, 2)
        with pytest.raises(DimensionError, match=f"^{name} must be a vector, got an array with 2 axes$"):
            LFPProblem(**data, alpha=0, beta=1)

    @pytest.mark.parametrize("alpha, beta", [(np.inf, 1.0), (0.0, np.nan)], ids=["alpha", "beta"])
    def test_problem_rejects_nonfinite_constants(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            LFPProblem(A=[[1.0]], b=[1], c=[1], d=[1], alpha=alpha, beta=beta)

    @given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_primal_point_slack_roundtrip(self, weights):
        problem = LFPProblem(**GOLDEN)
        x = golden_point(weights)
        point = PrimalPoint.from_x(problem, x)
        assert_allclose(point.u, problem.b - problem.A @ point.x, atol=1e-9)
        assert np.all(point.u >= -1e-9)

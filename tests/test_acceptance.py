"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come; under plain `pytest` they appear in the captured output of failures.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lfpkit import (
    DualPoint,
    EmptyPolyhedron,
    LFPProblem,
    LinearProgram,
    Polyhedron,
    PrimalPoint,
    Sense,
    SolveStatus,
    StrictComplementarySolution,
    approach_one,
    approach_two,
    build_dual_lp,
    build_transformed_lp,
    charnes_cooper_forward,
    charnes_cooper_inverse,
    dual_optimal_face,
    evaluate_objective,
    find_relative_interior_point,
    optimal_partitions,
    primal_optimal_face,
    solve_lp,
    verify_csc,
    verify_scsc,
)

from helpers import GOLDEN, coordinate_support_oracle, random_instance, region_vertices

THETA_EXACT = 4.0 / 3.0


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_golden_instance():
    with criterion("1 golden instance"):
        problem = LFPProblem(**GOLDEN)
        started = time.perf_counter()
        one = approach_one(problem)
        two = approach_two(problem)
        elapsed = time.perf_counter() - started
        for sol in (one, two):
            # The optimal value: exact answer 4/3, printed as 1.3333.
            assert sol.theta_star == pytest.approx(THETA_EXACT, abs=1e-5)
            assert sol.theta_star == pytest.approx(1.3333, abs=1e-4)
            # The dual half is unique here and pinned to the reported values.
            assert np.allclose(sol.dual.y, [0.0, 0.3333], atol=1e-4)
            assert sol.dual.z == pytest.approx(1.3333, abs=1e-4)
            assert np.allclose(sol.dual.v, [0.0, 0.0], atol=1e-4)
            # The primal half: any feasible, optimal, strictly complementary
            # point is acceptable (the optimal face has infinitely many).
            assert np.all(sol.primal.x >= -1e-9)
            assert np.all(problem.b - problem.A @ sol.primal.x >= -1e-9)
            assert evaluate_objective(problem, sol.primal.x) == pytest.approx(
                sol.theta_star, abs=1e-6
            )
            assert verify_csc(sol).ok and verify_scsc(sol).ok
            partition = optimal_partitions(sol)
            assert set(partition.sigma_x) == {1, 2}
            assert set(partition.sigma_v) == set()
            assert set(partition.sigma_u) == {1}
            assert set(partition.sigma_y) == {2}
        assert elapsed < 1.0


def test_criterion_2_non_strict_vertices_rejected():
    with criterion("2 non-strict vertices rejected"):
        problem = LFPProblem(**GOLDEN)
        dual = DualPoint.from_yz(problem, [0.0, 1.0 / 3.0], THETA_EXACT)
        for x, side, index in (([0.0, 2.0], "primal", 1), ([1.0, 4.0], "dual", 1)):
            primal = PrimalPoint.from_x(problem, x)
            sol = StrictComplementarySolution(primal, 1.0, dual, THETA_EXACT)
            assert verify_csc(sol).ok, f"vertex {x} should satisfy complementarity"
            report = verify_scsc(sol)
            assert not report.ok, f"vertex {x} must fail strictness"
            failing = report.failing_primal if side == "primal" else report.failing_dual
            assert index in failing, f"vertex {x} must report index {index} on the {side} side"


def test_criterion_3_approach_agreement_on_200_instances():
    with criterion("3 approach agreement on 200 random instances"):
        started = time.perf_counter()
        for seed in range(200):
            problem = random_instance(seed, max_dim=6)
            one = approach_one(problem)
            two = approach_two(problem)
            for label, sol in (("one", one), ("two", two)):
                assert verify_csc(sol).ok, f"seed {seed}: approach {label} fails csc"
                assert verify_scsc(sol).ok, f"seed {seed}: approach {label} fails scsc"
            assert optimal_partitions(one) == optimal_partitions(two), (
                f"seed {seed}: partitions disagree"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0


def test_criterion_4_partition_matches_support_oracle():
    with criterion("4 oracle equivalence on 50 instances"):
        for seed in range(50):
            problem = random_instance(seed, total_cap=8, nonneg_objective=True)
            m, n = problem.num_rows, problem.num_vars
            sol = approach_one(problem)
            partition = optimal_partitions(sol)
            primal_support = coordinate_support_oracle(
                primal_optimal_face(problem, sol.theta_star)
            )
            dual_support = coordinate_support_oracle(
                dual_optimal_face(problem, sol.theta_star)
            )
            assert partition.sigma_x == {j for j in primal_support if j <= n}, f"seed {seed}"
            assert partition.sigma_u == {
                j - n - 1 for j in primal_support if j > n + 1
            }, f"seed {seed}"
            assert partition.sigma_y == {i for i in dual_support if i <= m}, f"seed {seed}"
            assert partition.sigma_v == {
                j - m - 1 for j in dual_support if j > m + 1
            }, f"seed {seed}"


def test_criterion_5_duality_properties():
    with criterion("5 duality property suite"):
        rng = np.random.default_rng(20260808)
        for seed in range(25):
            problem = random_instance(seed, max_dim=3)
            vertices = region_vertices(problem)
            assert vertices, "generator promised a non-empty region"

            dual_opt = solve_lp(build_dual_lp(problem))
            assert dual_opt.status is SolveStatus.OPTIMAL
            y_opt = dual_opt.point[: problem.num_rows]

            for _ in range(8):
                weights = rng.uniform(0.01, 1.0, len(vertices))
                x = sum(
                    w * v for w, v in zip(weights / weights.sum(), vertices)
                )
                # Round trip through the scaling: relative error <= 1e-9.
                back = charnes_cooper_inverse(charnes_cooper_forward(problem, x))
                assert np.allclose(back.x, x, rtol=1e-9, atol=1e-12)

                # A random dual-feasible companion: lift y, re-pin z on the
                # normalization row, keep only feasible draws.
                y = y_opt + rng.uniform(0.0, 1.0, problem.num_rows)
                z = float(problem.alpha + problem.b @ y) / problem.beta
                if np.all(
                    problem.A.T @ y + problem.d * z - problem.c >= -1e-12
                ):
                    assert evaluate_objective(problem, x) <= z + 1e-7

            # Strong duality on the solved pair.
            primal_opt = solve_lp(build_transformed_lp(problem))
            assert primal_opt.status is SolveStatus.OPTIMAL
            assert abs(primal_opt.objective - dual_opt.objective) <= 1e-7


def test_criterion_6_interior_unit_suite():
    with criterion("6 interior-finder unit suite"):
        segment = Polyhedron([[1.0, 1.0]], [1.0])
        pinned = Polyhedron([[1.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
        ray = Polyhedron([[1.0, -1.0]], [0.0])
        origin_only = Polyhedron(np.eye(2), np.zeros(2))
        simplex3 = Polyhedron([[1.0, 1.0, 1.0]], [1.0])
        empty = Polyhedron([[1.0]], [-1.0])

        expected = [
            (segment, {1, 2}),
            (pinned, {2}),
            (ray, {1, 2}),
            (origin_only, set()),
            (simplex3, {1, 2, 3}),
        ]
        for poly, support in expected:
            assert find_relative_interior_point(poly).support == support

        with pytest.raises(EmptyPolyhedron):
            find_relative_interior_point(empty)

        # Emptiness exactly matches a direct phase-1 feasibility verdict.
        for poly in [segment, pinned, ray, origin_only, simplex3, empty]:
            probe = solve_lp(
                LinearProgram(
                    Sense.MAXIMIZE,
                    np.zeros(poly.num_coords),
                    A_eq=poly.A_eq,
                    b_eq=poly.b_eq,
                )
            )
            raised = False
            try:
                find_relative_interior_point(poly)
            except EmptyPolyhedron:
                raised = True
            assert raised == (probe.status is SolveStatus.INFEASIBLE)


def test_criterion_7_cli_contract(tmp_path, capsys):
    with criterion("7 command-line contract"):
        from lfpkit.cli import run

        golden_path = tmp_path / "problem.json"
        golden_path.write_text(json.dumps(GOLDEN), encoding="utf-8")
        empty_path = tmp_path / "empty.json"
        empty_path.write_text(
            '{"A": [[1]], "b": [-1], "c": [1], "d": [0], "alpha": 0, "beta": 1}',
            encoding="utf-8",
        )

        code = run(["--input", str(golden_path), "--approach", "both"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta_star = 1.33333" in out
        assert "sigma_x = {1, 2}" in out and "sigma_y = {2}" in out
        assert "cross_check: pass" in out

        code = run(["--input", str(empty_path)])
        capsys.readouterr()
        assert code == 2

        code = run(["--input", str(golden_path), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"theta_star", "approaches", "partition", "cross_check", "status"}
        for block in doc["approaches"].values():
            assert set(block) == {"x", "u", "t", "y", "z", "v", "csc", "scsc"}
        assert set(doc["partition"]) == {"sigma_x", "sigma_v", "sigma_u", "sigma_y"}

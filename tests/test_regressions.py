"""Benchmark instances that expose open faults, pinned as strict xfails.

Each instance comes from the benchmark's own generator, so it is the same
bytes the benchmark runs.  A change that mends a fault turns its xfail into a
plain test.  The support-count check also runs on instances that pass, so
that it is known to hold where the solver works.  On a whole workload,
approach one's stage-1 pair is checked against the primal face's LP and its
derived dual point against the dual face's own LP.
"""

import json

import numpy as np
import pytest

import lfpkit.complementarity as complementarity
import lfpkit.lp as lp_module
from lfpkit import (
    LFPProblem,
    LinearProgram,
    Sense,
    SolveStatus,
    approach_one,
    build_dual_interior_lp,
    build_joint_lp,
    build_primal_interior_lp,
    build_transformed_lp,
    charnes_cooper_inverse,
    cli,
    load_problem,
    optimal_partitions,
    recover_dual_interior,
    recover_primal_interior,
    solve_lp,
)
from lfpkit.interior import DEFAULT_POS_TOL

from helpers import GOLDEN, instances, ladder, load_module, problem_file


@pytest.mark.parametrize(
    "workload, seed, name",
    [
        pytest.param(
            "degenerate-mixed", 1, "zero-d-columns-14",
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="the joint-face LP, feasible and bounded by construction, meets a basis "
                "with condition number above 1e12, and the fresh re-solve reaches the "
                "iteration cap (exit 5)",
            ),
        ),
        pytest.param("joint-medium", 7, "joint-16-26x26"),
        pytest.param("joint-medium", 45, "joint-35-25x25"),
        # Both once stopped at a broken dual-face LP, which approach one no longer solves.
        pytest.param("degenerate-mixed", 5, "scaled-a-03"),
        pytest.param("degenerate-mixed", 31, "scaled-a-14"),
    ],
    ids=["zero-d-columns-14", "joint-16-26x26", "joint-35-25x25", "s5-scaled-a-03", "s31-scaled-a-14"],
)
def test_both_approaches_solve_benchmark_instance(tmp_path, capsys, workload, seed, name):
    path = problem_file(instances(workload, seed)[name], tmp_path / f"{name}.json")
    assert cli.run(["--input", path, "--approach", "both"]) == 0, capsys.readouterr().out


def gt_break(workload, seed, name, joint, size):
    return pytest.param(
        workload, seed, name,
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason=f"joint face objective {joint}, not n + m + 1 = {size + 1}, yet exit 0",
        ),
        id=name,
    )


def support_count(result, keys):
    """How many entries of the named vectors of an approach's report exceed DEFAULT_POS_TOL."""
    return sum(int((np.array(result[key]) > DEFAULT_POS_TOL).sum()) for key in keys)


@pytest.mark.parametrize(
    "workload, seed, name",
    [
        pytest.param(None, None, "golden", id="golden"),
        *(pytest.param("batch-small", 1, f"small-{k:03d}", id=f"small-{k:03d}") for k in range(50)),
        gt_break("batch-small", 2, "small-057", "23", 11),
        pytest.param("degenerate-mixed", 1, "zero-d-columns-16", id="zero-d-columns-16"),
        gt_break("degenerate-mixed", 1, "scaled-a-03", "17.9996", 17),
        gt_break("degenerate-mixed", 2, "scaled-a-02", "37", 18),
        gt_break("degenerate-mixed", 2, "scaled-a-17", "41", 20),
        gt_break("degenerate-mixed", 3, "scaled-a-16", "39", 19),
    ],
)
def test_support_counts_obey_goldman_tucker(tmp_path, capsys, lp_records, workload, seed, name):
    # A strictly complementary pair has exactly one positive member in each of
    # the n + m complementary pairs (Goldman-Tucker), and the joint LP's
    # objective is n + m + 1.
    data = GOLDEN if workload is None else instances(workload, seed)[name]
    path = problem_file(data, tmp_path / f"{name}.json")
    problem = load_problem(path)
    size = problem.num_vars + problem.num_rows

    code = cli.run(["--input", path, "--approach", "both", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report
    records = lp_records()
    one, joint = report["approaches"]["one"], records[-1].outcome.objective
    if workload is None:
        # The golden instance is degenerate at stage 1, so approach one solves
        # the primal face LP.  That LP counts one capped copy per support
        # coordinate plus one w2, and approach one's dual point, derived from
        # its row duals, is positive on the rest: primal objective + |supp y|
        # + |supp v| + 1 = n + m + 2.
        assert [record.lp for record in records] == ["stage 1", "primal face", "joint face"]
        primal = records[1].outcome.objective
        dual_count = support_count(one, ("y", "v")) + 1
        assert primal + dual_count == pytest.approx(size + 2, abs=1e-6), (primal, dual_count, joint)
    else:
        # Stage 1's own pair is strictly complementary, so approach one returns it.
        assert [record.lp for record in records] == ["stage 1", "joint face"]
        assert support_count(one, ("x", "u", "y", "v")) == size, one
    assert joint == pytest.approx(size + 1, abs=1e-6), joint


def test_stage1_pair_is_the_primal_face_lps_partition(lp_records):
    # Stage 1's own pair is strictly complementary on every batch-small
    # instance, so approach one returns it and solves no primal face LP.  That
    # LP's interior point has the same supports of x and u.
    differ = []
    for name, data in instances("batch-small", 1).items():
        problem = LFPProblem(**data)
        solution = approach_one(problem)
        partition = optimal_partitions(solution)
        face = solve_lp(build_primal_interior_lp(problem, solution.theta_star))
        primal = charnes_cooper_inverse(recover_primal_interior(problem, face))
        supports = [set(np.flatnonzero(values > DEFAULT_POS_TOL) + 1) for values in (primal.x, primal.u)]
        if [partition.sigma_x, partition.sigma_u] != supports:
            differ.append(name)
    assert "primal face" not in [record.lp for record in lp_records()]
    assert differ == []


@pytest.mark.parametrize("name", ["scaled-a-06", "scaled-a-11", "scaled-a-14"])
def test_stage1_pair_solves_scaled_a_instance(tmp_path, capsys, name):
    # The primal face LP breaks down on these `scaled-a` instances, where
    # stage 1's own pair is already strictly complementary; approach one
    # returns that pair, and the partition is HiGHS's.
    pytest.importorskip("scipy")
    oracle = load_module("perfbench/oracle.py")
    data = instances("degenerate-mixed", 1)[name]
    path = problem_file(data, tmp_path / f"{name}.json")
    code = cli.run(["--input", path, "--approach", "both", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report
    assert report["partition"] == oracle.partition(data, oracle.theta_star(data))


def test_derived_dual_has_the_dual_face_lp_supports(monkeypatch):
    # Where stage 1's own pair is not strictly complementary, approach_one
    # takes its dual point from the primal face LP's row duals.  With that
    # route forced, the dual face's own support-maximizing LP, which it never
    # solves, must find the same supports of y and v on every batch-small
    # instance.
    def supports(dual):
        return [np.flatnonzero(values > DEFAULT_POS_TOL).tolist() for values in (dual.y, dual.v)]

    judge = complementarity._judge
    monkeypatch.setattr(complementarity, "_judge", lambda sol: (*judge(sol)[:3], False))
    differ = []
    for name, data in instances("batch-small", 1).items():
        problem = LFPProblem(**data)
        solution = approach_one(problem)
        face = solve_lp(build_dual_interior_lp(problem, solution.theta_star))
        if supports(solution.dual) != supports(recover_dual_interior(problem, face)):
            differ.append(name)
    assert differ == []


def test_largest_ladder_joint_lp_solves_under_the_cap():
    # The 100x80 size-ladder instance: its joint LP once ended at the cap
    # of 50 * (rows + cols) pivots.  Goldman-Tucker fixes its optimum at
    # n + m + 1.
    out = solve_lp(build_joint_lp(LFPProblem(**ladder(100, 80))))
    assert out.is_optimal, out.detail
    assert out.objective == pytest.approx(181.0, abs=1e-6)


@pytest.mark.parametrize("n, m", [(40, 40), (80, 60), (100, 80)])
def test_ladder_instance_takes_a_short_dual_stage1(tmp_path, capsys, lp_records, n, m):
    # The size ladder's instances, end to end.  Stage 1 runs once on the
    # dual simplex from its slack start, where two primal phases took 632 /
    # 2,226 / 3,883 pivots, and its optimum is HiGHS's.
    linprog = pytest.importorskip("scipy.optimize").linprog
    path = problem_file(ladder(n, m), tmp_path / f"{n}x{m}.json")
    code = cli.run(["--input", path, "--approach", "both", "--validate-denominator",
                    "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["cross_check"]
    [stage1] = [record.outcome for record in lp_records() if record.lp == "stage 1"]
    [(method, verdict, changes, _, _)] = stage1.runs
    assert (method, verdict) == ("dual", "optimal") and changes <= 20
    lp = build_transformed_lp(load_problem(path))
    ref = linprog(-lp.objective, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq,
                  bounds=np.column_stack([lp.lo, lp.hi]), method="highs")
    assert ref.status == 0
    assert report["theta_star"] == pytest.approx(-ref.fun, rel=1e-9)


def wide_scale_record(out):
    """(dual runs as (verdict, basis changes), inversions, primal runs) of a
    `solve_lp` outcome; each primal attempt makes at least one primal run."""
    dual = [(verdict, changes) for method, verdict, changes, _, _ in out.runs if method == "dual"]
    primal = [run for run in out.runs if run[0] == "primal"]
    return dual, sum(inversions for *_, inversions in out.runs), primal


def outcome_bytes(out):
    """Every field of an `LPOutcome`, arrays as their bytes."""
    arrays = [None if v is None else v.tobytes() for v in (out.point, out.duals)]
    return out.status, repr(out.objective), out.detail, *arrays


@pytest.mark.parametrize("seed", [1, 31])
def test_wide_scale_stage1_keeps_its_primal_arithmetic(monkeypatch, seed):
    # `scaled-a` multiplies A by 1e6 and leaves b as it is, so every stage-1
    # LP of the family spans more than _WIDE_SCALE and is not homogeneous.
    # Its dual run may make no basis change, and its start, read off the
    # identity without an inversion, is not optimal; fresh solves on the
    # primal path then give the very outcome they give with no dual attempt.
    lps = [build_transformed_lp(LFPProblem(**data))
           for name, data in instances("degenerate-mixed", seed).items()
           if name.startswith("scaled-a")]
    assert len(lps) == 20
    with monkeypatch.context() as patch:
        patch.setattr(lp_module, "_dual_attempt", lambda *args: None)
        expected = [solve_lp(lp) for lp in lps]
    assert {out.status for out in expected} == {SolveStatus.OPTIMAL}
    for lp, want in zip(lps, expected):
        got = solve_lp(lp)
        dual, inversions, _ = wide_scale_record(got)
        assert dual == [("iteration_limit", 0)]
        assert inversions == 0
        assert outcome_bytes(got) == outcome_bytes(want)


def test_wide_scale_denominator_lp_ends_at_its_dual_start():
    # The denominator LP of s1 `scaled-a-00` spans more than _WIDE_SCALE.
    # With d >= 0 and b > 0, x = 0 with every slack basic is its optimum,
    # and the dual run reads it off its identity start: no basis change, no
    # inversion and no primal solve.
    problem = LFPProblem(**instances("degenerate-mixed", 1)["scaled-a-00"])
    assert (problem.d >= 0.0).all() and (problem.b > 0.0).all()
    out = solve_lp(LinearProgram(Sense.MINIMIZE, problem.d, A_ub=problem.A, b_ub=problem.b))
    dual, inversions, primal = wide_scale_record(out)
    assert dual == [("optimal", 0)]
    assert inversions == 0 and primal == []
    assert out.is_optimal
    assert not out.point.any() and not out.duals.any()


def test_zero_pivot_reinverts_without_numpy_warnings(tmp_path, capsys):
    # A face LP's dual run on this instance picks an entering column whose
    # entry in the leaving row of B^-1 a_q is exactly 0.0.  A rank-one update
    # would divide by it and fill B^-1 with inf and NaN, so the run inverts
    # the new basis instead.  The suite turns every RuntimeWarning into an
    # error.
    data = instances("degenerate-mixed", 1)["scaled-a-05"]
    path = problem_file(data, tmp_path / "scaled-a-05.json")
    assert cli.run(["--input", path, "--approach", "both", "--validate-denominator"]) in (0, 5)
    assert "RuntimeWarning" not in capsys.readouterr().err

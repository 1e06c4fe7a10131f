"""HiGHS (through scipy's `linprog`) as an independent oracle for `solve_lp`.

Small seeded programs mix inequality and equality rows with nonnegative,
free, boxed (some fixed) and upper-bounded columns; the integer data makes
many of them degenerate, and the sample holds optimal, infeasible and
unbounded cases.  Each is passed to `linprog` as the same arrays.
"""

import collections

import numpy as np
import pytest

from lfpkit import LinearProgram, Sense, SolverOptions, SolveStatus, solve_lp

from helpers import dual_verdicts, random_slack_start_lp, random_support_lp

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}


def random_mixed_lp(seed):
    """n <= 6 columns, at most 5 rows, integer data."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m_ub = int(rng.integers(0, 6))
    m_eq = int(rng.integers(0, 6 - m_ub))
    kind = rng.integers(0, 4, size=n)  # nonnegative, free, boxed, upper-bounded
    low = rng.integers(-2, 2, size=n).astype(float)
    width = rng.integers(0, 4, size=n).astype(float)
    lo = np.where(kind == 0, 0.0, np.where(kind == 2, low, -np.inf))
    hi = np.where(kind >= 2, low + width, np.inf)
    A_eq = rng.integers(-3, 4, size=(m_eq, n)).astype(float)
    # Most equality blocks pass through a point inside the bounds, so that not
    # nearly every program with equality rows is infeasible.
    anchor = np.clip(rng.integers(-2, 3, size=n), lo, hi)
    b_eq = A_eq @ anchor + (rng.random() < 0.25) * rng.integers(-2, 3, size=m_eq)
    return LinearProgram(
        Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE,
        rng.integers(-3, 4, size=n).astype(float),
        A_ub=rng.integers(-3, 4, size=(m_ub, n)).astype(float),
        b_ub=rng.integers(-2, 5, size=m_ub).astype(float),
        A_eq=A_eq,
        b_eq=b_eq,
        lo=lo,
        hi=hi,
    )


def highs(lp, objective=None, **options):
    """`linprog` on lp's arrays, minimizing `objective` (lp's own, as a minimization, by default).

    HiGHS's presolve can call a feasible program infeasible (see
    test_presolve_disagreement), so every infeasible verdict is re-checked
    with presolve off.
    """
    if objective is None:
        objective = -lp.objective if lp.sense is Sense.MAXIMIZE else lp.objective

    def run(options):
        return linprog(
            objective, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq,
            bounds=np.column_stack([lp.lo, lp.hi]), method="highs", options=options,
        )

    result = run(options)
    return run({**options, "presolve": False}) if result.status == 2 else result


def assert_duals_certify(lp, out, tol=1e-7):
    """`out.duals` is an optimal dual point of `lp`, and `out` carries it iff OPTIMAL.

    Each reduced cost of c - A'duals, over the columns and one slack per A_ub
    row, must have an optimum's sign at the bound its variable sits at (and
    be 0 strictly between the bounds), and the dual objective, b.duals plus
    each reduced cost times the bound it points to, must equal the optimum.
    """
    if not out.is_optimal:
        assert out.duals is None
        return
    rows = lp.num_rows
    assert out.duals.shape == (rows,)
    A = np.vstack([np.hstack([lp.A_ub, np.eye(lp.b_ub.size)]),
                   np.hstack([lp.A_eq, np.zeros((lp.b_eq.size, lp.b_ub.size))])])
    b = np.concatenate([lp.b_ub, lp.b_eq])
    x = np.concatenate([out.point, lp.b_ub - lp.A_ub @ out.point])
    lo = np.concatenate([lp.lo, np.zeros(lp.b_ub.size)])
    hi = np.concatenate([lp.hi, np.full(lp.b_ub.size, np.inf)])
    cost = np.concatenate([lp.objective, np.zeros(lp.b_ub.size)])
    # In minimization form a reduced cost is >= 0 at a lower bound and <= 0 at an upper one.
    reduced = (cost - A.T @ out.duals) * (1.0 if lp.sense is Sense.MINIMIZE else -1.0)
    assert not (reduced > tol)[x > lo + tol].any(), reduced
    assert not (reduced < -tol)[x < hi - tol].any(), reduced
    bound = np.where(reduced > tol, lo, np.where(reduced < -tol, hi, 0.0))
    dual_objective = b @ out.duals + (cost - A.T @ out.duals) @ bound
    assert dual_objective == pytest.approx(out.objective, abs=tol * (1.0 + abs(out.objective)))


@pytest.mark.parametrize("seed", range(200))
def test_matches_highs(seed):
    lp = random_mixed_lp(seed)
    ref = highs(lp)
    out = solve_lp(lp)
    assert out.status is HIGHS_STATUS[ref.status], ref.message
    if out.is_optimal:
        expected = -ref.fun if lp.sense is Sense.MAXIMIZE else ref.fun
        assert out.objective == pytest.approx(expected, abs=1e-6 * (1.0 + abs(expected)))
    assert_duals_certify(lp, out)


def test_iteration_limit_carries_no_duals(every_run_stops):
    # Every dual attempt stops at once, and so does every program in the
    # sample that reaches phase 2 on the primal path that takes over.
    outcomes = [solve_lp(random_mixed_lp(seed)) for seed in range(20)]
    assert {out.status for out in outcomes} == {SolveStatus.ITERATION_LIMIT}
    assert all(out.duals is None for out in outcomes)


def test_sample_holds_every_status():
    counts = collections.Counter(solve_lp(random_mixed_lp(seed)).status for seed in range(200))
    assert all(counts[status] >= 20 for status in HIGHS_STATUS.values()), counts


@pytest.mark.parametrize("seed", [197])
def test_presolve_disagreement(seed):
    # HiGHS's presolve calls this program infeasible, which is why `highs`
    # re-checks infeasible verdicts.  It has a feasible point and an improving
    # ray, so UNBOUNDED is right; HiGHS agrees once presolve is off.
    lp = random_mixed_lp(seed)
    assert solve_lp(lp).status is SolveStatus.UNBOUNDED
    assert highs(lp, presolve=False).status == 3
    assert highs(lp, objective=np.zeros(lp.num_vars)).status == 0
    recession = LinearProgram(
        lp.sense, lp.objective, A_ub=lp.A_ub, b_ub=np.zeros_like(lp.b_ub),
        A_eq=lp.A_eq, b_eq=np.zeros_like(lp.b_eq),
        lo=np.where(np.isfinite(lp.lo), 0.0, -1.0), hi=np.where(np.isfinite(lp.hi), 0.0, 1.0),
    )
    ray = highs(recession)
    assert ray.status == 0 and ray.fun < -1e-6


@pytest.mark.parametrize("seed", range(150))
def test_support_lp_dual_path_matches_highs(seed):
    # The support-maximizing LP qualifies for the dual path; its optimum is an
    # integer, the support count plus one (zero for an empty polyhedron).
    lp = random_support_lp(seed)
    out = solve_lp(lp)
    ref = highs(lp)
    assert dual_verdicts(out) == ["optimal"]
    assert ref.status == 0, ref.message
    assert out.objective == pytest.approx(-ref.fun, abs=1e-6)
    assert out.objective == pytest.approx(round(out.objective), abs=1e-6)
    tol = SolverOptions().feas_tol
    assert (out.point >= lp.lo - tol).all() and (out.point <= lp.hi + tol).all()
    assert np.abs(lp.A_eq @ out.point).max() <= 1e-7
    assert_duals_certify(lp, out)


def test_support_lp_sample_holds_empty_and_free_cases():
    polyhedra = [random_support_lp(seed) for seed in range(150)]
    w2 = [solve_lp(lp).point[-1] for lp in polyhedra]
    assert sum(value < 0.5 for value in w2) >= 10  # empty: no positive scaling weight
    assert sum(np.isinf(lp.lo).any() for lp in polyhedra) >= 40


def primal_phases(out):
    """The phase (1 or 2) of each primal run of `out`, in order.

    A primal attempt runs phase 2 only after its phase 1 ends "optimal", and
    a phase 1 that ends so and is not followed by phase 2 ends the solve
    (INFEASIBLE); so the primal runs that follow an "optimal" phase 1 are
    phase 2, and every other is a phase 1.
    """
    phases, previous = [], None
    for method, verdict, *_ in out.runs:
        if method == "primal":
            phases.append(2 if previous == (1, "optimal") else 1)
            previous = (phases[-1], verdict)
    return phases


@pytest.mark.parametrize("seed", range(150))
def test_slack_start_skips_phase_one_and_matches_highs(seed, dual_run_breaks_down):
    # Every dual attempt breaks down at once, so the primal path solves each
    # program.  Its slack basis is feasible, but the primal path does not
    # start from it, whatever the test's name says: phase 1 runs from the
    # all-artificial basis, then phase 2, once each.
    lp = random_slack_start_lp(seed)
    out = solve_lp(lp)
    ref = highs(lp)
    assert primal_phases(out) == [1, 2]
    assert out.status is HIGHS_STATUS[ref.status], ref.message
    if out.is_optimal:
        expected = -ref.fun if lp.sense is Sense.MAXIMIZE else ref.fun
        assert out.objective == pytest.approx(expected, abs=1e-6 * (1.0 + abs(expected)))
    assert_duals_certify(lp, out)


@pytest.mark.parametrize("seed", range(150))
def test_slack_start_program_takes_the_dual_path_and_matches_highs(seed):
    # On default routing the dual simplex runs first, from its slack start;
    # the primal path takes over only for an unbounded program (or a
    # breakdown), and then runs phase 1 and phase 2 once each.
    lp = random_slack_start_lp(seed)
    out = solve_lp(lp)
    ref = highs(lp)
    assert len(dual_verdicts(out)) == 1 and primal_phases(out) in ([], [1, 2])
    assert out.status is HIGHS_STATUS[ref.status], ref.message
    if out.is_optimal:
        expected = -ref.fun if lp.sense is Sense.MAXIMIZE else ref.fun
        assert out.objective == pytest.approx(expected, abs=1e-6 * (1.0 + abs(expected)))
    assert_duals_certify(lp, out)


def test_slack_start_sample_holds_every_column_kind_and_outcome():
    lps = [random_slack_start_lp(seed) for seed in range(150)]
    counts = collections.Counter(solve_lp(lp).status for lp in lps)
    assert counts[SolveStatus.OPTIMAL] >= 30 and counts[SolveStatus.UNBOUNDED] >= 30, counts
    assert set(counts) == {SolveStatus.OPTIMAL, SolveStatus.UNBOUNDED}
    columns = [(lo, hi) for lp in lps for lo, hi in zip(lp.lo, lp.hi)]
    assert sum(lo == 0.0 and hi == np.inf for lo, hi in columns) >= 50  # nonnegative
    assert sum(lo == -np.inf and hi == np.inf for lo, hi in columns) >= 50  # free
    assert sum(np.isfinite(lo) and np.isfinite(hi) for lo, hi in columns) >= 50  # boxed
    assert sum(lo == -np.inf and np.isfinite(hi) for lo, hi in columns) >= 50  # upper-bounded

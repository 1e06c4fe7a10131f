import collections
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lfpkit.lp as lp_module
from lfpkit import (
    IterationLimitError,
    LFPProblem,
    LinearProgram,
    LPOutcome,
    Polyhedron,
    Sense,
    SolveStatus,
    SolverOptions,
    approach_one,
    approach_two,
    build_dual_interior_lp,
    build_joint_lp,
    build_primal_interior_lp,
    build_transformed_lp,
    find_relative_interior_point,
    solve_lp,
    solve_theta_star,
    validate_denominator,
)

from helpers import (
    dual_verdicts,
    enumerate_vertices,
    instances,
    lp_inequalities,
    random_box_lp,
    random_instance,
    random_slack_start_lp,
    random_support_lp,
)


def max_violation(lp, x):
    """Largest constraint or bound violation of x."""
    return np.concatenate([
        lp.A_ub @ x - lp.b_ub, np.abs(lp.A_eq @ x - lp.b_eq), lp.lo - x, x - lp.hi,
    ]).max(initial=0.0)


class TestBasics:
    def test_single_active_bound(self):
        out = solve_lp(LinearProgram(Sense.MAXIMIZE, [1.0], A_ub=[[1.0]], b_ub=[1.0]))
        assert out.status is SolveStatus.OPTIMAL
        assert_allclose(out.point, [1.0])
        assert out.objective == pytest.approx(1.0)

    def test_unbounded_ray(self):
        out = solve_lp(LinearProgram(Sense.MAXIMIZE, [1.0]))
        assert out.status is SolveStatus.UNBOUNDED
        assert out.point is None and out.objective is None

    def test_sign_contradiction_infeasible(self):
        out = solve_lp(LinearProgram(Sense.MAXIMIZE, [1.0], A_ub=[[1.0]], b_ub=[-1.0]))
        assert out.status is SolveStatus.INFEASIBLE

    def test_transformed_golden_instance(self, golden):
        out = solve_lp(build_transformed_lp(golden))
        assert out.status is SolveStatus.OPTIMAL
        assert out.objective == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_minimization_and_ge_rows(self):
        lp = LinearProgram(
            Sense.MINIMIZE,
            [2.0, 3.0],
            A_ub=[[-1.0, -1.0], [1.0, 0.0]],  # x1 + x2 >= 4, x1 <= 3
            b_ub=[-4.0, 3.0],
        )
        out = solve_lp(lp)
        assert out.status is SolveStatus.OPTIMAL
        assert out.objective == pytest.approx(9.0)  # x = (3, 1)
        assert_allclose(out.point, [3.0, 1.0], atol=1e-9)

    def test_free_variable_takes_negative_value(self):
        lp = LinearProgram(
            Sense.MINIMIZE,
            [1.0, 0.0],
            A_eq=[[1.0, 1.0]],
            b_eq=[1.0],
            lo=[-math.inf, 0.0],
            hi=[math.inf, 3.0],
        )
        out = solve_lp(lp)
        assert out.status is SolveStatus.OPTIMAL
        assert_allclose(out.point, [-2.0, 3.0], atol=1e-9)

    def test_box_bound_flip(self):
        lp = LinearProgram(
            Sense.MAXIMIZE,
            [1.0, 1.0],
            A_ub=[[1.0, 1.0]],
            b_ub=[1.5],
            hi=[1.0, 1.0],
        )
        out = solve_lp(lp)
        assert out.objective == pytest.approx(1.5)

    def test_redundant_equality_rows(self):
        # A duplicated row leaves an artificial stranded in the basis; the
        # solver must still finish and satisfy both copies.
        lp = LinearProgram(
            Sense.MAXIMIZE,
            [1.0, 1.0],
            A_eq=[[1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 2.0],
        )
        out = solve_lp(lp)
        assert out.status is SolveStatus.OPTIMAL
        assert out.objective == pytest.approx(1.0)

    def test_iteration_limit_returns_no_point(self, monkeypatch):
        # A dual attempt with no budget stops at once, so the primal path takes
        # over.  Phase 1 reaches a feasible basis in one pivot, and a budget
        # of one pivot per phase stops phase 2 before it reaches the optimum.
        run_simplex, dual_simplex = lp_module._run_simplex, lp_module._dual_simplex

        def one_pivot(basis, cost, opts, iter_budget, **kwargs):
            return run_simplex(basis, cost, opts, 1, **kwargs)

        def no_budget(basis, cost, opts, iter_budget):
            return dual_simplex(basis, cost, opts, 0)

        monkeypatch.setattr(lp_module, "_run_simplex", one_pivot)
        monkeypatch.setattr(lp_module, "_dual_simplex", no_budget)
        lp = LinearProgram(
            Sense.MAXIMIZE,
            [1.0, 2.0, 3.0],
            A_ub=[[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]],
            b_ub=[1.0, -1.0],
        )
        out = solve_lp(lp)
        assert dual_verdicts(out) == ["iteration_limit"]
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.point is None and out.objective is None
        assert out.detail == f"iteration cap of {50 * (2 + 3)} reached"

    def test_default_iteration_cap(self, every_run_stops):
        # 50 * (rows + cols): two inequality rows and three variables.  Both
        # the dual attempt and the primal path that takes over stop at once.
        lp = LinearProgram(
            Sense.MAXIMIZE,
            [1.0, 2.0, 3.0],
            A_ub=[[1.0, 1.0, 1.0], [1.0, 2.0, 0.5]],
            b_ub=[1.0, 2.0],
        )
        out = solve_lp(lp)
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.detail == f"iteration cap of {50 * (2 + 3)} reached"

    def test_singular_basis_is_named(self, monkeypatch):
        # The dual attempt starts from the identity, which it does not
        # invert, so its first inversion is the fresh one that must confirm
        # its verdict after two basis changes; it fails, and the primal path
        # takes over.  Phase 1 inverts its all-artificial start, the second
        # inversion, and takes one pivot.  The third inversion, the fresh one
        # that must confirm phase 1's verdict, fails; so does the fourth
        # solve of the fresh re-solve that follows, the first of its second
        # pivot.
        real_inv, real_solve, calls = np.linalg.inv, np.linalg.solve, []

        def inv_once_singular(a):
            calls.append("inv")
            if calls.count("inv") in (1, 3):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_inv(a)

        def solve_once_singular(a, b):
            calls.append("solve")
            if calls.count("solve") == 4:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(lp_module.np.linalg, "inv", inv_once_singular)
        monkeypatch.setattr(lp_module.np.linalg, "solve", solve_once_singular)
        lp = LinearProgram(
            Sense.MAXIMIZE,
            [1.0, 2.0, 3.0],
            A_ub=[[1.0, 1.0, 1.0], [1.0, 2.0, 0.5]],
            b_ub=[1.0, 2.0],
        )
        out = solve_lp(lp)
        assert calls == ["inv", "inv", "inv", "solve", "solve", "solve", "solve"]
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.point is None and out.objective is None
        assert out.detail == "singular basis after 1 pivots"

    def test_unbounded_phase_one_ray_is_named(self, monkeypatch, dual_run_breaks_down):
        # Phase 1's objective is bounded below by zero, so a ray there is a
        # numerical breakdown; the stub makes phase 1 report one after three
        # pivots, one of them a bound flip.
        run_simplex = lp_module._run_simplex

        def phase1_ray(basis, cost, opts, iter_budget, phase1_floor=None):
            if phase1_floor is None:
                return run_simplex(basis, cost, opts, iter_budget)
            return "unbounded", None, 3, 1

        monkeypatch.setattr(lp_module, "_run_simplex", phase1_ray)
        out = solve_lp(LinearProgram(Sense.MAXIMIZE, [1.0, 2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0]))
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.point is None and out.duals is None
        assert out.detail == "unbounded phase-1 ray after 3 pivots"
        assert out.runs == (("dual", "singular", 0, 0, 0), ("primal", "unbounded", 2, 1, 0))

    def test_optimal_outcome_has_no_detail(self):
        out = solve_lp(LinearProgram(Sense.MAXIMIZE, [1.0], A_ub=[[1.0]], b_ub=[1.0]))
        assert out.detail is None

    @pytest.mark.parametrize(
        "sense, objective, lo, hi, status, point",
        [
            (Sense.MINIMIZE, [1.0, 2.0, 3.0], None, None, SolveStatus.OPTIMAL, [0.0, 0.0, 0.0]),
            (Sense.MAXIMIZE, [1.0, -2.0], None, [4.0, 1.0], SolveStatus.OPTIMAL, [4.0, 0.0]),
            (Sense.MAXIMIZE, [1.0, 0.0], [-math.inf, -math.inf], None, SolveStatus.UNBOUNDED, None),
            (Sense.MINIMIZE, [1.0, -1.0], [-math.inf, 0.0], [2.0, 3.0], SolveStatus.UNBOUNDED, None),
            (Sense.MINIMIZE, [0.0, 0.0], [-math.inf, -math.inf], None, SolveStatus.OPTIMAL, [0.0, 0.0]),
        ],
    )
    def test_program_without_rows(self, sense, objective, lo, hi, status, point):
        # Bounds alone decide these; the basis is empty, so B and its inverse are 0 x 0.
        out = solve_lp(LinearProgram(sense, objective, lo=lo, hi=hi))
        assert out.status is status
        if point is None:
            assert out.point is None
        else:
            assert_allclose(out.point, point)
            assert out.objective == pytest.approx(np.dot(objective, point))


# A valid two-variable program with every array given; each rejected input
# below replaces some of these entries.
VALID_LP = dict(
    objective=[1.0, 2.0],
    A_ub=[[1.0, 1.0]],
    b_ub=[1.0],
    A_eq=[[1.0, -1.0]],
    b_eq=[0.0],
    lo=[0.0, -1.0],
    hi=[1.0, math.inf],
)


class TestValidation:
    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param(dict(A_ub=[[1.0, 1.0, 1.0]]), "A_ub has shape", id="A_ub-wrong-width"),
            pytest.param(dict(A_eq=[[1.0]]), "A_eq has shape", id="A_eq-wrong-width"),
            pytest.param(dict(A_ub=[1.0, 1.0]), "A_ub has shape", id="A_ub-not-a-matrix"),
            pytest.param(dict(b_ub=[1.0, 2.0]), "b_ub has shape", id="b_ub-wrong-length"),
            pytest.param(dict(b_eq=[]), "b_eq has shape", id="b_eq-wrong-length"),
            pytest.param(dict(A_ub=None), "b_ub has shape", id="b_ub-without-A_ub"),
            pytest.param(dict(b_ub=None), "A_ub is given without b_ub", id="A_ub-without-b_ub"),
            pytest.param(dict(b_eq=None), "A_eq is given without b_eq", id="A_eq-without-b_eq"),
            pytest.param(dict(objective=[math.inf, 2.0]), "non-finite", id="objective-inf"),
            pytest.param(dict(A_ub=[[1.0, math.nan]]), "non-finite", id="A_ub-nan"),
            pytest.param(dict(b_ub=[math.inf]), "non-finite", id="b_ub-inf"),
            pytest.param(dict(A_eq=[[-math.inf, 1.0]]), "non-finite", id="A_eq-inf"),
            pytest.param(dict(b_eq=[math.nan]), "non-finite", id="b_eq-nan"),
            pytest.param(dict(lo=[math.nan, 0.0]), "lo has a NaN", id="lo-nan"),
            pytest.param(dict(hi=[1.0, math.nan]), "hi has a NaN", id="hi-nan"),
            pytest.param(dict(lo=[2.0, -1.0]), r"empty bound interval \[2.0, 1.0\]", id="lo-above-hi"),
            pytest.param(
                dict(lo=[0.0, math.inf]), r"empty bound interval \[inf, inf\] for variable 1", id="lo-plus-inf"
            ),
            pytest.param(
                dict(lo=[-math.inf, -1.0], hi=[-math.inf, math.inf]),
                r"empty bound interval \[-inf, -inf\] for variable 0",
                id="hi-minus-inf",
            ),
            pytest.param(dict(lo=[0.0]), "lo has shape", id="lo-wrong-length"),
            pytest.param(dict(hi=[1.0, 1.0, 1.0]), "hi has shape", id="hi-wrong-length"),
            pytest.param(dict(objective=[]), "non-empty vector", id="objective-empty"),
            pytest.param(dict(objective=[[1.0, 2.0]]), "non-empty vector", id="objective-not-a-vector"),
            # Two faults: a shape is checked before any value, whichever field comes first.
            pytest.param(dict(A_ub=[[1.0, math.nan]], A_eq=[[1.0]]), "A_eq has shape",
                         id="A_ub-nan-before-A_eq-wrong-width"),
            pytest.param(dict(objective=[math.nan, 2.0], b_ub=[1.0, 2.0]), "b_ub has shape",
                         id="objective-nan-before-b_ub-wrong-length"),
            pytest.param(dict(lo=[math.nan, 2.0], hi=[1.0, 1.0]), "lo has a NaN",
                         id="lo-nan-before-empty-interval"),
            pytest.param(dict(hi=[1.0, 1.0, 1.0], A_eq=[[math.inf, 1.0]]), "hi has shape",
                         id="A_eq-inf-before-hi-wrong-length"),
            pytest.param(dict(objective=[math.nan, 2.0], A_eq=[[1.0], [1.0, 2.0]]),
                         "setting an array element with a sequence", id="objective-nan-before-A_eq-ragged"),
            # Two non-finite entries: the first field in field order is named.
            pytest.param(dict(b_eq=[math.nan], A_ub=[[math.inf, 1.0]]), "^A_ub has a non-finite entry$",
                         id="A_ub-inf-and-b_eq-nan"),
        ],
    )
    def test_rejects_bad_input(self, change, message):
        LinearProgram(Sense.MAXIMIZE, **VALID_LP)
        with pytest.raises(ValueError, match=message):
            LinearProgram(Sense.MAXIMIZE, **{**VALID_LP, **change})

    @pytest.mark.parametrize("sense", ["min", "max", None], ids=["min", "max", "None"])
    def test_sense_must_be_a_member(self, sense):
        # solve_lp maximizes unless the sense is Sense.MINIMIZE, so "min" would silently maximize.
        with pytest.raises(ValueError, match=f"sense must be a Sense member, got {sense!r}"):
            LinearProgram(sense, **VALID_LP)

    def test_nonfinite_objective(self):
        with pytest.raises(ValueError):
            LinearProgram(Sense.MAXIMIZE, [np.nan])

    def test_arrays_are_read_only_float_copies(self):
        given = {key: np.array(value) for key, value in VALID_LP.items()}
        given["A_ub"] = np.array([[1, 1]])  # integers are stored as floats
        lp = LinearProgram(Sense.MAXIMIZE, **given)
        for key in given:
            stored = getattr(lp, key)
            assert stored.dtype == np.float64 and not stored.flags.writeable, key
            assert_allclose(stored, given[key])
            assert given[key].flags.writeable, key  # the caller's array is untouched
        with pytest.raises(ValueError, match="read-only"):
            lp.A_eq[0, 0] = 5.0

    def test_defaults(self):
        lp = LinearProgram(Sense.MINIMIZE, [1.0, 2.0, 3.0])
        assert lp.A_ub.shape == lp.A_eq.shape == (0, 3)
        assert lp.b_ub.shape == lp.b_eq.shape == (0,)
        assert lp.num_rows == 0 and lp.num_vars == 3
        assert np.array_equal(lp.lo, np.zeros(3)) and np.array_equal(lp.hi, np.full(3, np.inf))
        for array in (lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq, lp.lo, lp.hi):
            assert not array.flags.writeable

    def test_options_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverOptions(feas_tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
    @pytest.mark.parametrize("field", ["feas_tol", "opt_tol"])
    def test_options_reject_nonfinite_tolerances(self, field, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverOptions(**{field: tol})


class TestInvariants:
    @pytest.mark.parametrize("seed", range(40))
    def test_feasibility_certificate(self, seed):
        lp = random_box_lp(seed)
        out = solve_lp(lp)
        assert out.status is SolveStatus.OPTIMAL
        assert max_violation(lp, out.point) <= 1e-9

    @pytest.mark.parametrize("seed", range(25))
    def test_optimum_dominates_every_vertex(self, seed):
        # Independent oracle: enumerate all vertices of the (bounded) feasible
        # set; the reported maximum must dominate each one and match the best.
        lp = random_box_lp(seed)
        out = solve_lp(lp)
        vertices = enumerate_vertices(*lp_inequalities(lp))
        assert vertices, "generator promised a non-empty bounded region"
        values = [float(lp.objective @ v) for v in vertices]
        assert out.objective >= max(values) - 1e-7
        assert out.objective == pytest.approx(max(values), abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_deterministic(self, seed):
        lp = random_box_lp(seed)
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.status is second.status
        assert first.objective == second.objective
        assert np.array_equal(first.point, second.point)


def random_dense_lp(rng):
    """A maximization LP with inequality and equality rows, feasible by construction.

    About a third of them have a ray along one column, which makes them unbounded.
    """
    n = int(rng.integers(10, 31))
    m_ub, m_eq = int(rng.integers(5, 21)), int(rng.integers(0, 6))
    A_ub = rng.uniform(-1.0, 2.0, size=(m_ub, n))
    A_eq = rng.uniform(-1.0, 1.0, size=(m_eq, n))
    x0 = rng.uniform(0.0, 0.5, size=n)
    hi = np.where(rng.random(n) < 0.7, rng.uniform(0.5, 3.0, size=n), math.inf)
    objective = rng.uniform(-1.0, 2.0, size=n)
    if rng.random() < 0.3:
        j = int(rng.integers(0, n))
        A_ub[:, j] = -np.abs(A_ub[:, j])
        A_eq[:, j] = 0.0
        hi[j] = math.inf
        objective[j] = rng.uniform(0.1, 0.5)  # small, so that other columns enter first
    return LinearProgram(
        Sense.MAXIMIZE, objective,
        A_ub=A_ub, b_ub=A_ub @ x0 + rng.uniform(0.5, 4.0, size=m_ub),
        A_eq=A_eq, b_eq=A_eq @ x0,
        hi=hi,
    )


class TestBasisInverse:
    def test_rank_one_updates_keep_the_inverse(self):
        rng = np.random.default_rng(21)
        for trial in range(200):
            m = int(rng.integers(1, 13))
            A = rng.standard_normal((m, 3 * m))
            basis = np.arange(m)
            while np.linalg.cond(A[:, basis]) > 100.0:
                A[:, :m] = rng.standard_normal((m, m))
            basic = np.zeros(3 * m, dtype=bool)
            basic[basis] = True
            Binv = np.linalg.inv(A[:, basis])
            for _ in range(lp_module._REFACTOR_INTERVAL):
                while True:  # a swap that keeps the basis well-conditioned
                    enter = int(rng.choice(np.flatnonzero(~basic)))
                    pos = int(rng.integers(0, m))
                    swapped = basis.copy()
                    swapped[pos] = enter
                    if np.linalg.cond(A[:, swapped]) <= 100.0:
                        break
                lp_module._update_inverse(Binv, pos, Binv @ A[:, enter])
                basic[basis[pos]], basic[enter] = False, True
                basis = swapped
            assert np.abs(Binv @ A[:, basis] - np.eye(m)).max() <= 1e-9, trial

    def test_every_verdict_follows_a_fresh_inverse(self, monkeypatch):
        # The last inversion before an "optimal" or "unbounded" verdict is of
        # the basis the verdict is read from: no rank-one update came after it.
        real_inv, run_simplex = np.linalg.inv, lp_module._run_simplex
        inverted, verdicts = [], []

        def recording_inv(a):
            inverted.append(np.array(a))
            return real_inv(a)

        def checked(basis, *args, **kwargs):
            verdict, x, used, flips = run_simplex(basis, *args, **kwargs)
            if verdict in ("optimal", "unbounded") and not basis.fresh:
                assert np.array_equal(inverted[-1], basis.A[:, basis.cols])
                verdicts.append((verdict, used))
            return verdict, x, used, flips

        monkeypatch.setattr(lp_module.np.linalg, "inv", recording_inv)
        monkeypatch.setattr(lp_module, "_run_simplex", checked)
        rng = np.random.default_rng(22)
        statuses = [solve_lp(random_dense_lp(rng)).status for _ in range(60)]
        assert statuses.count(SolveStatus.OPTIMAL) > 20
        assert statuses.count(SolveStatus.UNBOUNDED) > 10
        # Many runs span several inversion intervals.
        assert sum(used > 3 * lp_module._REFACTOR_INTERVAL for _, used in verdicts) > 10

    def test_every_dual_verdict_reads_the_start_or_a_fresh_inverse(self, monkeypatch):
        # A dual "optimal" reads either its untouched start, the identity,
        # which is not inverted, or the basis the last inversion was of.
        real_inv, dual_simplex = np.linalg.inv, lp_module._dual_simplex
        inverted, changes = [], []

        def recording_inv(a):
            inverted.append(np.array(a))
            return real_inv(a)

        def checked(basis, *args):
            before = len(inverted)
            verdict, x, used, flips = dual_simplex(basis, *args)
            if verdict == "optimal":
                B = basis.A[:, basis.cols]
                if len(inverted) == before:
                    assert used == 0 and np.array_equal(B, np.eye(len(basis.cols)))
                else:
                    assert np.array_equal(inverted[-1], B)
                changes.append(used)
            return verdict, x, used, flips

        monkeypatch.setattr(lp_module.np.linalg, "inv", recording_inv)
        monkeypatch.setattr(lp_module, "_dual_simplex", checked)
        rng = np.random.default_rng(22)
        for _ in range(60):
            solve_lp(random_dense_lp(rng))
        for seed in range(4):
            problem = random_instance(seed)
            validate_denominator(problem)
            for lp in face_lps(problem):
                solve_lp(lp)
        assert changes.count(0) >= 4
        # Many runs span an inversion interval.
        assert sum(used > lp_module._REFACTOR_INTERVAL for used in changes) > 10

    def test_golden_dual_runs_invert_only_for_their_verdicts(self, golden, lp_records):
        # The denominator LP ends at its slack start and inverts nothing.  A
        # run that ends after 1-9 basis changes inverts once, for its verdict;
        # the joint LP's run of 12 also inverts after its tenth.
        validate_denominator(golden)
        approach_one(golden)
        approach_two(golden)
        records = lp_records()
        assert records[0].lp == "denominator" and records[0].outcome.runs == (("dual", "optimal", 0, 0, 0),)
        runs = [(verdict, changes, inversions) for record in records
                for method, verdict, changes, _, inversions in record.outcome.runs if method == "dual"]
        assert runs == [("optimal", 0, 0), ("optimal", 3, 1), ("optimal", 5, 1), ("optimal", 12, 2)]

    def test_ill_conditioned_inverse_hands_over_to_fresh_solves(self, monkeypatch):
        # With every inverse counted as ill-conditioned, the first inversion
        # of each attempt on a kept inverse ends it, the dual one and then the
        # primal one, and fresh solves reach the same outcome.
        rng = np.random.default_rng(23)
        lps = [random_dense_lp(rng) for _ in range(12)]
        expected = [solve_lp(lp) for lp in lps]
        monkeypatch.setattr(lp_module, "_ILL_CONDITIONED", 0.0)
        for lp, want in zip(lps, expected):
            got = solve_lp(lp)
            assert sum(inversions for *_, inversions in got.runs) == 2
            assert got.status is want.status
            if want.is_optimal:
                assert_allclose(got.objective, want.objective, rtol=1e-9)
        assert sum(out.is_optimal for out in expected) > 3

    def test_wide_scale_program_is_solved_with_fresh_solves(self):
        # Coefficients from 1 to 2e6.
        out = solve_lp(LinearProgram(
            Sense.MAXIMIZE, [1.0, 1.0], A_ub=[[1e6, 2e6], [1.0, 0.0]], b_ub=[4e6, 1.0],
        ))
        inversions = [inverted for *_, inverted in out.runs]
        assert inversions and not any(inversions), "a basis of a wide-scale program was inverted"
        assert out.is_optimal
        assert_allclose(out.point, [1.0, 1.5])
        assert_allclose(out.objective, 2.5)


def face_lps(problem):
    theta = solve_lp(build_transformed_lp(problem)).objective
    return [build_primal_interior_lp(problem, theta), build_dual_interior_lp(problem, theta),
            build_joint_lp(problem)]


class TestDualPath:
    def test_face_lps_take_the_dual_path(self, golden):
        outcomes = [solve_lp(lp) for lp in face_lps(golden)]
        objectives = [out.objective for out in outcomes]
        assert [dual_verdicts(out) for out in outcomes] == [["optimal"]] * 3
        # The golden partition: x1, x2, u1 and y2 positive (plus w2 in each face LP).
        assert objectives == [pytest.approx(4.0), pytest.approx(2.0), pytest.approx(5.0)]

    @pytest.mark.parametrize("which", ["stage 1", "denominator", "unbounded column"])
    def test_other_programs_take_the_dual_path(self, golden, which):
        # Each starts from the slack start with artificial bounds: b != 0 in
        # the first two, and an improving column with no finite upper bound
        # to park at in the last, whose optimum still leaves it basic.
        lp, optimum = {
            "stage 1": (build_transformed_lp(golden), 4.0 / 3.0),
            "denominator": (
                LinearProgram(Sense.MINIMIZE, golden.d, A_ub=golden.A, b_ub=golden.b), 0.0
            ),
            "unbounded column": (LinearProgram(
                Sense.MAXIMIZE, [1.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[0.0], hi=[math.inf, 2.0],
            ), 2.0),
        }[which]
        out = solve_lp(lp)
        assert dual_verdicts(out) == ["optimal"]
        assert out.is_optimal
        assert out.objective == pytest.approx(optimum, abs=1e-12)

    @pytest.mark.parametrize("sense, lo, hi, optimum", [
        (Sense.MAXIMIZE, 5e6, math.inf, 1e7),
        (Sense.MINIMIZE, -math.inf, -5e6, -1e7),
    ], ids=["upper", "lower"])
    def test_artificial_bound_lies_beyond_a_large_finite_bound(self, sense, lo, hi, optimum):
        # |x| <= 1e7 with x at least 5e6 from zero: the artificial bound is
        # 1e6 beyond the finite one, not at +-1e6, which would leave the
        # column an empty interval to park in.  x parks there, inside the
        # region, so the dual run ends at the artificial bound and the primal
        # path finds the optimum.
        out = solve_lp(LinearProgram(sense, [1.0], A_ub=[[1.0], [-1.0]], b_ub=[1e7, 1e7],
                                     lo=[lo], hi=[hi]))
        assert out.is_optimal
        assert out.objective == optimum

    def test_wide_scale_stage_1_takes_the_primal_path(self, golden):
        # A row of A times 1e6 spans more than _WIDE_SCALE, so the kernel would
        # keep no inverse.  The program is not homogeneous (b_eq = 1, and its
        # improving columns park at artificial bounds), so the dual run may
        # make no basis change; its start is not optimal, and fresh solves on
        # the primal path find the optimum, unchanged, as scaling a row leaves
        # the region as it is.
        scaled = LFPProblem(golden.A * [[1e6], [1.0]], golden.b * [1e6, 1.0], golden.c, golden.d,
                            golden.alpha, golden.beta)
        out = solve_lp(build_transformed_lp(scaled))
        assert [run[1:3] for run in out.runs if run[0] == "dual"] == [("iteration_limit", 0)]
        assert out.objective == pytest.approx(4.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("b_eq, lo, hi, budget, optimum", [
        ([0.0], [-1.0, -2e6], [1.0, 2e6], 50 * (1 + 2), 999999.0),
        ([1e6], [-1.0, -2e6], [1.0, 2e6], 0, -1.0),
        ([0.0], [0.5, -2e6], [1.0, 2e6], 0, 999999.0),
        ([0.0], [-1.0, -2e6], [-0.5, 2e6], 0, -499999.5),
        ([0.0], [-1.0, -2e6], [1.0, math.inf], 0, 999999.0),
        ([0.0], [-math.inf, -2e6], [1.0, 2e6], 0, 999999.0),
    ], ids=["homogeneous", "b != 0", "lo > 0", "hi < 0", "cost < 0, hi = inf",
            "cost > 0, lo = -inf"])
    def test_wide_scale_program_gets_a_dual_budget_only_if_homogeneous(
        self, monkeypatch, b_eq, lo, hi, budget, optimum
    ):
        # max x1 - x0 subject to 1e6 x0 - x1 = b_eq spans more than
        # _WIDE_SCALE.  With b = 0, lo <= 0 <= hi and each column's cost
        # favouring a finite bound, the dual run gets the full budget of
        # 50 * (rows + cols) basis changes and pivots to the optimum.  Each
        # other case breaks one of those clauses, so its run may make no
        # basis change; its start is not optimal, and the primal path solves it.
        runs, dual_simplex = [], lp_module._dual_simplex

        def recorded(basis, cost, opts, iter_budget):
            result = dual_simplex(basis, cost, opts, iter_budget)
            runs.append((iter_budget, result[0], result[2]))
            return result

        monkeypatch.setattr(lp_module, "_dual_simplex", recorded)
        out = solve_lp(LinearProgram(Sense.MAXIMIZE, [-1.0, 1.0], A_eq=[[1e6, -1.0]],
                                     b_eq=b_eq, lo=lo, hi=hi))
        [(given, verdict, changes)] = runs
        assert given == budget
        if budget:
            assert verdict == "optimal" and changes > 0
        else:
            assert (verdict, changes) == ("iteration_limit", 0)
        assert out.is_optimal
        assert out.objective == pytest.approx(optimum, rel=1e-12)

    @pytest.mark.parametrize("sense, objective, lo", [
        (Sense.MAXIMIZE, [1.0, 1.0], [0.0, 0.0]),
        (Sense.MINIMIZE, [1.0, 0.0], [-math.inf, 0.0]),
    ], ids=["upper", "lower"])
    def test_optimum_at_an_artificial_bound_falls_back(self, sense, objective, lo):
        # x0 - x1 <= 1: the dual start parks x0 at an artificial bound its
        # cost favours, 1e6 above or below zero, where the slack row is met.
        # The dual simplex so ends "optimal" with x0 nonbasic at that bound,
        # which is no optimum of the program; one primal attempt takes over,
        # and its phase 2 finds the ray.
        out = solve_lp(LinearProgram(sense, objective, A_ub=[[1.0, -1.0]], b_ub=[1.0], lo=lo))
        assert dual_verdicts(out) == ["optimal"]
        assert [run[1] for run in out.runs if run[0] == "primal"] == ["optimal", "unbounded"]
        assert out.status is SolveStatus.UNBOUNDED

    @pytest.mark.parametrize("seed", range(8))
    def test_breakdown_falls_back_to_the_primal_path(self, monkeypatch, seed):
        # Every inverse counts as ill-conditioned, so the dual path breaks
        # down at its first inversion and both primal attempts follow: the
        # one on the kept inverse stops at the inversion of its phase-1
        # start, and the one with fresh solves runs both phases.
        lp = build_joint_lp(random_instance(seed))
        expected = solve_lp(lp)
        monkeypatch.setattr(lp_module, "_ILL_CONDITIONED", 0.0)
        got = solve_lp(lp)
        assert dual_verdicts(got) == ["singular"]
        kept, *fresh = [run for run in got.runs if run[0] == "primal"]
        assert kept == ("primal", "singular", 0, 0, 1)
        assert len(fresh) == 2 and not any(inversions for *_, inversions in fresh)
        assert expected.is_optimal and got.is_optimal
        assert got.objective == pytest.approx(expected.objective, abs=1e-9)

    def test_point_lies_within_the_bounds(self, golden):
        for lp in face_lps(golden):
            out = solve_lp(lp)
            assert max_violation(lp, out.point) <= SolverOptions().feas_tol


# Scan-in-index-order versions of the pivoting kernels, kept as the reference
# the vectorized ones in lfpkit.lp must match choice for choice.  They read a
# column's parking as `lp._Basis` keeps it: side +1 at its lower bound, -1 at
# its upper one, 0 if basic or fixed, or if `free` (a free column at zero).
_PIVOT_TOL = lp_module._PIVOT_TOL


def reference_choose_entering(reduced, side, free, opt_tol, bland):
    best_j, best_dir, best_viol = None, 0, opt_tol
    for j in range(reduced.size):
        r = reduced[j]
        if free[j]:  # free at zero: either sign of reduced cost is usable
            viol, direction = abs(r), (1 if r < 0 else -1)
        elif side[j] > 0:
            viol, direction = -r, 1
        elif side[j] < 0:
            viol, direction = r, -1
        else:  # basic or fixed
            continue
        if viol <= (opt_tol if bland else best_viol):
            continue
        if bland:
            return j, direction
        best_j, best_dir, best_viol = j, direction, viol
    return best_j, best_dir


def reference_ratio_test(x, w, basis, lo, hi, enter, direction, bland):
    own = hi[enter] - lo[enter]  # inf unless the entering variable is boxed
    limits = np.full(basis.size, math.inf)
    to_upper = np.zeros(basis.size, dtype=bool)
    for i in range(basis.size):
        k = basis[i]
        g = direction * w[i]  # rate at which x[k] decreases per unit step
        if g > _PIVOT_TOL:
            if math.isfinite(lo[k]):
                limits[i] = max((x[k] - lo[k]) / g, 0.0)
        elif g < -_PIVOT_TOL:
            if math.isfinite(hi[k]):
                limits[i] = max((hi[k] - x[k]) / (-g), 0.0)
                to_upper[i] = True
    row_min = limits.min() if basis.size else math.inf

    if own <= row_min:
        if math.isinf(own):
            return math.inf, -1, False
        return own, -1, False  # entering variable flips to its other bound

    tie = row_min + 1e-11 * (1.0 + row_min)
    candidates = np.nonzero(limits <= tie)[0]
    if bland:
        pos = min(candidates, key=lambda i: basis[i])
    else:
        pos = max(candidates, key=lambda i: (abs(w[i]), -basis[i]))
    return row_min, pos, to_upper[pos]


def reference_drive_out_artificials(A, basis, side, free, n_real):
    for pos in range(basis.size):
        if basis[pos] < n_real:
            continue
        B = A[:, basis]
        e = np.zeros(basis.size)
        e[pos] = 1.0
        try:
            g = np.linalg.solve(B.T, e)
        except np.linalg.LinAlgError:
            continue
        row = g @ A[:, :n_real]
        best, best_mag = -1, _PIVOT_TOL
        for j in range(n_real):
            if side[j] == 0.0 and not free[j]:  # basic or fixed
                continue
            if abs(row[j]) > best_mag:
                best, best_mag = j, abs(row[j])
        if best >= 0:
            side[basis[pos]] = 1.0  # the artificial leaves at its lower bound
            side[best], free[best] = 0.0, False
            basis[pos] = best


def reference_bound_flipping_ratio_test(reduced, alpha, side, free, lo, hi, slope, opt_tol,
                                        feas_tol):
    candidates = []
    for j in range(alpha.size):
        if free[j]:  # free at zero: either sign blocks
            blocks = abs(alpha[j]) > _PIVOT_TOL
        elif side[j] > 0:
            blocks = alpha[j] > _PIVOT_TOL
        elif side[j] < 0:
            blocks = alpha[j] < -_PIVOT_TOL
        else:  # basic or fixed
            continue
        if blocks:
            candidates.append(j)
    left, passed = candidates, []
    while left:
        bound = max(min(reduced[j] / alpha[j] + opt_tol / abs(alpha[j]) for j in left), 0.0)
        group = [j for j in left if max(reduced[j] / alpha[j], 0.0) <= bound]
        left = [j for j in left if j not in group]
        drop = sum(abs(alpha[j]) * (hi[j] - lo[j]) for j in group)
        if slope - drop <= feas_tol:
            return max(group, key=lambda j: (abs(alpha[j]), -j)), passed
        passed += group
        slope -= drop
    return None, []


# Values drawn from short lists, so that exact ties in violation, ratio and
# |pivot| are common; they include the opt_tol and _PIVOT_TOL thresholds.
OPT_TOL = 1e-9
REDUCED = (-2.0, -1.0, -0.5, -OPT_TOL, -1e-12, -0.0, 0.0, 1e-12, OPT_TOL, 0.5, 1.0, 2.0)
PIVOTS = (-2.0, -1.0, -0.5, -_PIVOT_TOL, -1e-12, 0.0, 1e-12, _PIVOT_TOL, 0.5, 1.0, 2.0)
ROOMS = (-1e-9, -0.0, 0.0, 1e-12, 0.5, 1.0, 2.0)


def random_simplex_state(rng):
    """Bounds, parking (side and free mask), a basis and a consistent point for
    a random column set.

    Columns are nonnegative, boxed, fixed, free or bounded above only; each
    nonbasic column sits at one of its finite bounds, or at zero when free.
    """
    n = int(rng.integers(1, 13))
    m = int(rng.integers(0, min(n - 1, 6) + 1))  # one column is left to enter
    kinds = rng.integers(0, 5, size=n)  # indexes the bound pairs below
    lo = np.array([0.0, -1.0, 0.5, -math.inf, -math.inf])[kinds]
    hi = np.array([math.inf, 2.0, 0.5, math.inf, 3.0])[kinds]
    side = np.where(np.isfinite(lo), 1.0, np.where(np.isfinite(hi), -1.0, 0.0))
    side[(kinds == 1) & (rng.random(n) < 0.5)] = -1.0
    basis = rng.permutation(n)[:m]
    x = np.where(side > 0.0, lo, np.where(side < 0.0, hi, 0.0))
    free = side == 0.0
    free[basis] = False
    side[hi - lo <= 0.0] = 0.0
    side[basis] = 0.0
    for k in basis:  # a basic value at a drawn distance inside one of its bounds
        room = rng.choice(ROOMS)
        if math.isfinite(lo[k]) and (not math.isfinite(hi[k]) or rng.random() < 0.5):
            x[k] = room if lo[k] == 0.0 else lo[k] + room  # keeps x = -0.0 at lo = 0
        elif math.isfinite(hi[k]):
            x[k] = hi[k] - room
        else:
            x[k] = rng.choice(REDUCED)
    return lo, hi, side, free, basis, x


class TestVectorizedKernelsMatchScans:
    @pytest.mark.parametrize("bland", [False, True])
    def test_choose_entering(self, bland):
        rng = np.random.default_rng(11)
        entered = 0
        for trial in range(3000):
            lo, hi, side, free, _, _ = random_simplex_state(rng)
            reduced = rng.choice(REDUCED, size=lo.size)
            want = reference_choose_entering(reduced, side, free, OPT_TOL, bland)
            got = lp_module._choose_entering(reduced, side, free, OPT_TOL, bland)
            assert got == want, trial
            entered += want[0] is not None
        assert 500 < entered < 2900  # both outcomes are well exercised

    @pytest.mark.parametrize("bland", [False, True])
    def test_ratio_test(self, bland):
        rng = np.random.default_rng(12)
        flips = blocked = unbounded = 0
        for trial in range(4000):
            lo, hi, side, free, basis, x = random_simplex_state(rng)
            nonbasic = np.setdiff1d(np.arange(lo.size), basis)
            enter = int(rng.choice(nonbasic))
            direction = int(rng.choice([-1, 1]))
            w = rng.choice(PIVOTS, size=basis.size)
            want = reference_ratio_test(x, w, basis, lo, hi, enter, direction, bland)
            got = lp_module._ratio_test(x[basis], w, basis, lo, hi, enter, direction, bland)
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), trial
            assert (got[1], got[2]) == (want[1], want[2]), trial
            if math.isinf(want[0]):
                unbounded += 1
            elif want[1] < 0:
                flips += 1
            else:
                blocked += 1
        assert min(flips, blocked, unbounded) > 200

    def test_bound_flipping_ratio_test(self):
        # The dual simplex passes each column's parking as a sign (+1 at a
        # lower bound, -1 at an upper one, 0 if basic or fixed) and the free
        # columns at zero as indices.
        rng = np.random.default_rng(14)
        opts = SolverOptions(opt_tol=OPT_TOL)
        entered = flipped = rays = 0
        for trial in range(3000):
            lo, hi, side, free, _, _ = random_simplex_state(rng)
            reduced = rng.choice(REDUCED, size=lo.size)
            if trial % 2:  # dual feasible, as in the dual simplex
                reduced = np.where(side < 0.0, -1.0, 1.0) * np.abs(reduced)
            alpha = rng.choice(PIVOTS, size=lo.size)
            slope = float(rng.choice([1e-12, 0.5, 2.0, 8.0, 32.0, 128.0]))
            want = reference_bound_flipping_ratio_test(
                reduced, alpha, side, free, lo, hi, slope, opts.opt_tol, opts.feas_tol
            )
            q, flips = lp_module._bound_flipping_ratio_test(
                reduced, alpha, side, np.flatnonzero(free), hi - lo, slope, opts
            )
            assert (q, flips.tolist()) == want, trial
            entered += q is not None
            flipped += len(want[1]) > 0
            rays += q is None
        assert min(entered, rays) > 300 and flipped > 30, (entered, flipped, rays)

    def test_drive_out_artificials(self):
        rng = np.random.default_rng(13)
        swaps = 0
        for trial in range(1500):
            lo, hi, _, _, _, _ = random_simplex_state(rng)
            n_real = lo.size
            m = int(rng.integers(1, 6))
            A = np.hstack([rng.integers(-2, 3, size=(m, n_real)).astype(float), np.eye(m)])
            lo1 = np.concatenate([lo, np.zeros(m)])
            hi1 = np.concatenate([hi, np.full(m, math.inf)])
            # Artificials basic in some rows, real columns in the others.
            state = lp_module._Basis(A, np.zeros(m), lo1, hi1, np.arange(n_real, n_real + m),
                                     lp_module._park(lo1, hi1))
            for pos in np.flatnonzero(rng.random(m) < 0.4):
                j = int(rng.integers(0, n_real))
                if j not in state.cols:
                    state.exchange(pos, j, None, False)
            want_basis, want_side, want_free = (state.cols.copy(), state.side.copy(),
                                                state.free.copy())
            reference_drive_out_artificials(A, want_basis, want_side, want_free, n_real)
            lp_module._drive_out_artificials(state, n_real)
            assert np.array_equal(state.cols, want_basis), trial
            assert np.array_equal(state.side, want_side), trial
            assert np.array_equal(state.free, want_free), trial
            swaps += int(np.sum(want_basis < n_real))
        assert swaps > 1000

    def test_parking(self):
        # A column parks at its finite lower bound, else its finite upper
        # bound, else zero; the dual start parks a column of nonzero cost at
        # the bound its cost favours.  In a basis, basic and fixed columns get
        # side 0 and only a nonbasic free column is marked free.
        lo = np.array([0.0, -1.0, -math.inf, -math.inf, 0.5])
        hi = np.array([math.inf, 2.0, 3.0, math.inf, 0.5])
        side, point = lp_module._park(lo, hi)
        assert side.tolist() == [1.0, 1.0, -1.0, 0.0, 1.0]
        assert point.tolist() == [0.0, -1.0, 3.0, 0.0, 0.5]
        side, point = lp_module._park(lo, hi, np.array([0.0, -2.0, -1.0, 0.0, 1.0]))
        assert side.tolist() == [1.0, -1.0, -1.0, 0.0, 1.0]
        assert point.tolist() == [0.0, 2.0, 3.0, 0.0, 0.5]
        state = lp_module._Basis(np.zeros((1, 5)), np.zeros(1), lo, hi, np.array([1]),
                                 (side, point))
        assert state.side.tolist() == [1.0, 0.0, -1.0, 0.0, 0.0]
        assert state.free.tolist() == [False, False, False, True, False]
        assert state.xn.tolist() == [0.0, 0.0, 3.0, 0.0, 0.5]


def wrapper_runs(monkeypatch):
    """The runs of the `solve_lp` calls made from here on, recorded from
    outside the solver by a wrapper around each simplex loop and a count of
    the `np.linalg.inv` calls it makes: the reference that `LPOutcome.runs`
    must match run for run."""
    runs, inverted = [], []
    run_simplex, dual_simplex, inv = lp_module._run_simplex, lp_module._dual_simplex, np.linalg.inv

    def counted_inv(a):
        inverted.append(None)
        return inv(a)

    def primal(*args, **kwargs):
        before = len(inverted)
        verdict, x, pivots, flips = run_simplex(*args, **kwargs)
        runs.append(("primal", verdict, pivots - flips, flips, len(inverted) - before))
        return verdict, x, pivots, flips

    def dual(*args, **kwargs):
        before = len(inverted)
        verdict, x, changes, flips = dual_simplex(*args, **kwargs)
        runs.append(("dual", verdict, changes, flips, len(inverted) - before))
        return verdict, x, changes, flips

    monkeypatch.setattr(lp_module, "_run_simplex", primal)
    monkeypatch.setattr(lp_module, "_dual_simplex", dual)
    monkeypatch.setattr(lp_module.np.linalg, "inv", counted_inv)
    return runs


def scaled_a_lps(names):
    """The stage-1 LPs of the degenerate-mixed seed 1 `scaled-a` instances, or
    the primal face LPs of those in `names`."""
    problems = [(name, LFPProblem(**data))
                for name, data in instances("degenerate-mixed", 1).items()
                if name.startswith("scaled-a")]
    if names is None:
        return [build_transformed_lp(problem) for _, problem in problems]
    return [build_primal_interior_lp(problem, solve_lp(build_transformed_lp(problem)).objective)
            for name, problem in problems if name in names]


class TestRunsMatchWrappers:
    @pytest.mark.parametrize("family", [
        "slack-start", "support", "dense", "dense-ill-conditioned", "scaled-a-stage-1",
        "scaled-a-primal-face",
    ])
    def test_outcome_runs_match_the_wrapped_loops(self, monkeypatch, family):
        # With every inverse counted as ill-conditioned, a dense program's
        # dual run breaks down, its primal attempt on the kept inverse meets
        # a singular basis, and fresh solves follow.  A `scaled-a` stage 1
        # takes the zero-budget dual run and then fresh solves.  The dual
        # runs of the three `scaled-a` primal face LPs each meet a basis
        # whose inversion raises, which still counts as an inversion.
        rng = np.random.default_rng(22)
        lps = {
            "slack-start": lambda: [random_slack_start_lp(seed) for seed in range(150)],
            "support": lambda: [random_support_lp(seed) for seed in range(150)],
            "dense": lambda: [random_dense_lp(rng) for _ in range(60)],
            "scaled-a-stage-1": lambda: scaled_a_lps(None),
            "scaled-a-primal-face": lambda: scaled_a_lps({"scaled-a-05", "scaled-a-08",
                                                          "scaled-a-16"}),
        }[family.removesuffix("-ill-conditioned")]()
        if family.endswith("-ill-conditioned"):
            monkeypatch.setattr(lp_module, "_ILL_CONDITIONED", 0.0)
        recorded = wrapper_runs(monkeypatch)
        assert lps
        for k, lp in enumerate(lps):
            recorded.clear()
            assert solve_lp(lp).runs == tuple(recorded), k


class TestKernelInvariant:
    def test_kept_point_follows_the_parking_after_every_pivot(self, monkeypatch):
        # After every bound flip and basis change, the kept nonbasic point is
        # the one the parking describes: a column at the bound its side names,
        # a fixed nonbasic column at its value, basic and free columns at
        # zero.  A kept right-hand side is b - A xn, bit for bit.
        moves, runs = collections.Counter(), []

        def checked(name):
            move = getattr(lp_module._Basis, name)

            def call(state, *args):
                move(state, *args)
                basic = np.zeros(state.xn.size, dtype=bool)
                basic[state.cols] = True
                want = np.where(state.side > 0.0, state.lo,
                                np.where(state.side < 0.0, state.hi, 0.0))
                want[state.fixed & ~basic] = state.lo[state.fixed & ~basic]
                assert np.array_equal(state.xn, want)
                assert not (state.side[basic | state.fixed]).any()
                assert np.array_equal(state.free, ~basic & np.isinf(state.lo) & np.isinf(state.hi))
                if state.rhs is not None:
                    assert state.rhs.tobytes() == (state.b - state.A @ state.xn).tobytes()
                moves[runs[-1], name, state.fresh] += 1
            return call

        def labelled(solve, label):
            def call(*args, **kwargs):
                runs.append(label(kwargs))
                return solve(*args, **kwargs)
            return call

        monkeypatch.setattr(lp_module._Basis, "flip", checked("flip"))
        monkeypatch.setattr(lp_module._Basis, "exchange", checked("exchange"))
        monkeypatch.setattr(lp_module, "_run_simplex", labelled(
            lp_module._run_simplex, lambda kw: "phase 1" if "phase1_floor" in kw else "phase 2"))
        monkeypatch.setattr(lp_module, "_dual_simplex", labelled(
            lp_module._dual_simplex, lambda kw: "dual"))
        rng = np.random.default_rng(24)
        lps = [random_dense_lp(rng) for _ in range(20)]
        for lp in lps:
            solve_lp(lp)
        for seed in range(6):
            for lp in face_lps(random_instance(seed)):
                solve_lp(lp)
        monkeypatch.setattr(lp_module, "_ILL_CONDITIONED", 0.0)
        for lp in lps:
            solve_lp(lp)
        for run in ("phase 1", "phase 2"):
            for name in ("flip", "exchange"):
                assert moves[run, name, False] > 0 and moves[run, name, True] > 0, moves
        assert moves["dual", "flip", False] > 0 and moves["dual", "exchange", False] > 0, moves

    def test_right_hand_side_is_kept_until_the_bits_of_the_point_change(self):
        # Column 0 enters from +0.0 and column 2 leaves to +0.0: the point
        # keeps its bits and the right-hand side is kept.  Column 1 then
        # enters from -0.0, which counts as a change.
        lo, hi = np.array([0.0, -0.0, 0.0]), np.array([1.0, 1.0, math.inf])
        state = lp_module._Basis(np.ones((1, 3)), np.ones(1), lo, hi, np.array([2]),
                                 lp_module._park(lo, hi))
        state.solve(np.zeros(3))
        kept = state.rhs
        state.exchange(0, 0, state.column(0), False)
        assert state.rhs is kept
        state.exchange(0, 1, state.column(1), False)
        assert state.rhs is None


def labelled_entry_points(problem):
    """The public call that first solves each labelled LP, keyed by label.
    Approach one gets a precomputed stage 1, so its face LP is its first solve."""
    stage1 = solve_lp(build_transformed_lp(problem))
    return {
        "denominator": lambda: validate_denominator(problem),
        "stage 1": lambda: solve_theta_star(problem),
        "primal face": lambda: approach_one(problem, stage1=stage1),
        "joint face": lambda: approach_two(problem),
        "maximal-element": lambda: find_relative_interior_point(Polyhedron([[1.0, 1.0]], [1.0])),
    }


CAP_1 = LPOutcome(SolveStatus.ITERATION_LIMIT, detail="iteration cap of 1 reached")
CAP_9 = LPOutcome(SolveStatus.ITERATION_LIMIT, detail="iteration cap of 9 reached")
SINGULAR = LPOutcome(SolveStatus.ITERATION_LIMIT, detail="singular basis after 7 pivots")
BREAKDOWN = "a numerical breakdown, as the LP is feasible and bounded"


class TestLabelledSolves:
    @pytest.mark.parametrize(
        "label, outcome, message",
        [
            ("denominator", CAP_1, "denominator solve ended with status iteration_limit: "
                                   "iteration cap of 1 reached"),
            ("stage 1", CAP_1, "stage 1 solve ended with status iteration_limit: iteration cap of 1 reached"),
            ("primal face", SINGULAR, "primal face solve ended with status iteration_limit: "
                                      "singular basis after 7 pivots"),
            ("primal face", LPOutcome(SolveStatus.UNBOUNDED),
             f"primal face solve ended with status unbounded: {BREAKDOWN}"),
            ("joint face", SINGULAR, "joint face solve ended with status iteration_limit: "
                                     "singular basis after 7 pivots"),
            ("maximal-element", CAP_9, "maximal-element solve ended with status iteration_limit: "
                                       "iteration cap of 9 reached"),
            ("maximal-element", LPOutcome(SolveStatus.UNBOUNDED),
             f"maximal-element solve ended with status unbounded: {BREAKDOWN}"),
            ("maximal-element", LPOutcome(SolveStatus.INFEASIBLE),
             f"maximal-element solve ended with status infeasible: {BREAKDOWN}"),
        ],
        ids=["denominator-iteration_limit", "stage_1-iteration_limit", "primal_face-iteration_limit",
             "primal_face-unbounded", "joint_face-iteration_limit", "maximal_element-iteration_limit",
             "maximal_element-unbounded", "maximal_element-infeasible"],
    )
    def test_a_breakdown_names_its_lp(self, golden, monkeypatch, lp_records, label, outcome, message):
        call = labelled_entry_points(golden)[label]
        monkeypatch.setattr(lp_module, "solve_lp", lambda lp, opts: outcome)
        with pytest.raises(IterationLimitError) as raised:
            call()
        assert str(raised.value) == message
        # The solve logs its record before its verdict raises.
        records = lp_records()
        assert [record.lp for record in records] == [label]
        assert records[0].outcome is outcome

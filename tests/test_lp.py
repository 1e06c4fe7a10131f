import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lfpkit.lp as lp_module
from lfpkit import (
    LinearProgram,
    Sense,
    SolveStatus,
    SolverOptions,
    build_transformed_lp,
    solve_lp,
)

from helpers import enumerate_vertices, lp_inequalities, random_box_lp


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
        # A budget of one pivot per phase stops phase 2 before it reaches the optimum.
        run_simplex = lp_module._run_simplex

        def one_pivot(A, b, cost, lo, hi, basis, stat, opts, iter_budget, **kwargs):
            return run_simplex(A, b, cost, lo, hi, basis, stat, opts, 1, **kwargs)

        monkeypatch.setattr(lp_module, "_run_simplex", one_pivot)
        lp = LinearProgram(
            Sense.MAXIMIZE,
            [1.0, 2.0, 3.0],
            A_ub=[[1.0, 1.0, 1.0], [1.0, 2.0, 0.5]],
            b_ub=[1.0, 2.0],
        )
        out = solve_lp(lp)
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.point is None and out.objective is None
        assert out.detail == f"iteration cap of {50 * (2 + 3)} reached"

    def test_default_iteration_cap(self, monkeypatch):
        # 50 * (rows + cols): two inequality rows and three variables.
        monkeypatch.setattr(
            lp_module, "_run_simplex", lambda *args, **kwargs: ("iteration_limit", None, 0)
        )
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
        # The fourth solve is the first of the second pivot, after one pivot.
        real_solve, calls = np.linalg.solve, []

        def solve_once_singular(a, b):
            calls.append(None)
            if len(calls) == 4:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(lp_module.np.linalg, "solve", solve_once_singular)
        lp = LinearProgram(
            Sense.MAXIMIZE,
            [1.0, 2.0, 3.0],
            A_ub=[[1.0, 1.0, 1.0], [1.0, 2.0, 0.5]],
            b_ub=[1.0, 2.0],
        )
        out = solve_lp(lp)
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.point is None and out.objective is None
        assert out.detail == "singular basis after 1 pivots"

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
        # Bounds alone decide these; the basis is empty, so every solve with B is 0 x 0.
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
        ],
    )
    def test_rejects_bad_input(self, change, message):
        LinearProgram(Sense.MAXIMIZE, **VALID_LP)
        with pytest.raises(ValueError, match=message):
            LinearProgram(Sense.MAXIMIZE, **{**VALID_LP, **change})

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


# Scan-in-index-order versions of the pivoting kernels, kept as the reference
# the vectorized ones in lfpkit.lp must match choice for choice.
_AT_LOWER, _AT_UPPER, _AT_ZERO, _BASIC = 0, 1, 2, 3
_PIVOT_TOL = lp_module._PIVOT_TOL


def reference_choose_entering(reduced, stat, lo, hi, opt_tol, bland):
    best_j, best_dir, best_viol = None, 0, opt_tol
    for j in range(reduced.size):
        s = stat[j]
        if s == _BASIC or hi[j] - lo[j] <= 0.0:
            continue
        r = reduced[j]
        if s == _AT_LOWER:
            viol, direction = -r, 1
        elif s == _AT_UPPER:
            viol, direction = r, -1
        else:  # free at zero: either sign of reduced cost is usable
            viol, direction = abs(r), (1 if r < 0 else -1)
        if viol <= (opt_tol if bland else best_viol):
            continue
        if bland:
            return j, direction
        best_j, best_dir, best_viol = j, direction, viol
    return best_j, best_dir


def reference_ratio_test(x, w, basis, lo, hi, enter, direction, bland):
    own = hi[enter] - lo[enter]  # inf unless the entering variable is boxed
    limits = np.full(basis.size, math.inf)
    targets = np.zeros(basis.size, dtype=np.int8)
    for i in range(basis.size):
        k = basis[i]
        g = direction * w[i]  # rate at which x[k] decreases per unit step
        if g > _PIVOT_TOL:
            if math.isfinite(lo[k]):
                limits[i] = max((x[k] - lo[k]) / g, 0.0)
                targets[i] = _AT_LOWER
        elif g < -_PIVOT_TOL:
            if math.isfinite(hi[k]):
                limits[i] = max((hi[k] - x[k]) / (-g), 0.0)
                targets[i] = _AT_UPPER
    row_min = limits.min() if basis.size else math.inf

    if own <= row_min:
        if math.isinf(own):
            return math.inf, -1, 0
        return own, -1, 0  # entering variable flips to its other bound

    tie = row_min + 1e-11 * (1.0 + row_min)
    candidates = np.nonzero(limits <= tie)[0]
    if bland:
        pos = min(candidates, key=lambda i: basis[i])
    else:
        pos = max(candidates, key=lambda i: (abs(w[i]), -basis[i]))
    return row_min, pos, targets[pos]


def reference_drive_out_artificials(A, lo, hi, basis, stat, n_real):
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
            if stat[j] == _BASIC or hi[j] - lo[j] <= 0.0:
                continue
            if abs(row[j]) > best_mag:
                best, best_mag = j, abs(row[j])
        if best >= 0:
            stat[best] = _BASIC
            stat[basis[pos]] = _AT_LOWER
            basis[pos] = best


# Values drawn from short lists, so that exact ties in violation, ratio and
# |pivot| are common; they include the opt_tol and _PIVOT_TOL thresholds.
OPT_TOL = 1e-9
REDUCED = (-2.0, -1.0, -0.5, -OPT_TOL, -1e-12, -0.0, 0.0, 1e-12, OPT_TOL, 0.5, 1.0, 2.0)
PIVOTS = (-2.0, -1.0, -0.5, -_PIVOT_TOL, -1e-12, 0.0, 1e-12, _PIVOT_TOL, 0.5, 1.0, 2.0)
ROOMS = (-1e-9, -0.0, 0.0, 1e-12, 0.5, 1.0, 2.0)


def random_simplex_state(rng):
    """Bounds, statuses, a basis and a consistent point for a random column set.

    Columns are nonnegative, boxed, fixed, free or bounded above only; each
    nonbasic column sits at one of its finite bounds, or at zero when free.
    """
    n = int(rng.integers(1, 13))
    m = int(rng.integers(0, min(n - 1, 6) + 1))  # one column is left to enter
    kinds = rng.integers(0, 5, size=n)  # indexes the bound pairs below
    lo = np.array([0.0, -1.0, 0.5, -math.inf, -math.inf])[kinds]
    hi = np.array([math.inf, 2.0, 0.5, math.inf, 3.0])[kinds]
    stat = np.where(np.isfinite(lo), _AT_LOWER, np.where(np.isfinite(hi), _AT_UPPER, _AT_ZERO))
    stat = stat.astype(np.int8)
    stat[(kinds == 1) & (rng.random(n) < 0.5)] = _AT_UPPER
    basis = rng.permutation(n)[:m]
    stat[basis] = _BASIC
    x = np.where(stat == _AT_LOWER, lo, np.where(stat == _AT_UPPER, hi, 0.0))
    for k in basis:  # a basic value at a drawn distance inside one of its bounds
        room = rng.choice(ROOMS)
        if math.isfinite(lo[k]) and (not math.isfinite(hi[k]) or rng.random() < 0.5):
            x[k] = room if lo[k] == 0.0 else lo[k] + room  # keeps x = -0.0 at lo = 0
        elif math.isfinite(hi[k]):
            x[k] = hi[k] - room
        else:
            x[k] = rng.choice(REDUCED)
    return lo, hi, stat, basis, x


class TestVectorizedKernelsMatchScans:
    @pytest.mark.parametrize("bland", [False, True])
    def test_choose_entering(self, bland):
        rng = np.random.default_rng(11)
        entered = 0
        for trial in range(3000):
            lo, hi, stat, _, _ = random_simplex_state(rng)
            reduced = rng.choice(REDUCED, size=lo.size)
            want = reference_choose_entering(reduced, stat, lo, hi, OPT_TOL, bland)
            got = lp_module._choose_entering(reduced, stat, hi - lo <= 0.0, OPT_TOL, bland)
            assert got == want, trial
            entered += want[0] is not None
        assert 500 < entered < 2900  # both outcomes are well exercised

    @pytest.mark.parametrize("bland", [False, True])
    def test_ratio_test(self, bland):
        rng = np.random.default_rng(12)
        flips = blocked = unbounded = 0
        for trial in range(4000):
            lo, hi, stat, basis, x = random_simplex_state(rng)
            nonbasic = np.flatnonzero(stat != _BASIC)
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

    def test_drive_out_artificials(self):
        rng = np.random.default_rng(13)
        swaps = 0
        for trial in range(1500):
            lo, hi, stat, _, _ = random_simplex_state(rng)
            n_real = lo.size
            m = int(rng.integers(1, 6))
            A = np.hstack([rng.integers(-2, 3, size=(m, n_real)).astype(float), np.eye(m)])
            lo1 = np.concatenate([lo, np.zeros(m)])
            hi1 = np.concatenate([hi, np.full(m, math.inf)])
            # Artificials basic in some rows, real columns in the others.
            basis = np.arange(n_real, n_real + m)
            stat1 = np.concatenate([stat, np.full(m, _BASIC, dtype=np.int8)])
            stat1[:n_real] = np.where(stat == _BASIC, _AT_LOWER, stat)
            for pos in np.flatnonzero(rng.random(m) < 0.4):
                j = int(rng.integers(0, n_real))
                if stat1[j] != _BASIC:
                    stat1[basis[pos]] = _AT_LOWER
                    stat1[j] = _BASIC
                    basis[pos] = j
            want_basis, want_stat = basis.copy(), stat1.copy()
            reference_drive_out_artificials(A, lo1, hi1, want_basis, want_stat, n_real)
            lp_module._drive_out_artificials(A, lo1, hi1, basis, stat1, n_real)
            assert np.array_equal(basis, want_basis), trial
            assert np.array_equal(stat1, want_stat), trial
            swaps += int(np.sum(want_basis < n_real))
        assert swaps > 1000

    def test_initial_status(self):
        lo = np.array([0.0, -1.0, -math.inf, -math.inf, 0.5])
        hi = np.array([math.inf, 2.0, 3.0, math.inf, 0.5])
        stat = lp_module._initial_status(lo, hi)
        assert stat.dtype == np.int8
        assert stat.tolist() == [_AT_LOWER, _AT_LOWER, _AT_UPPER, _AT_ZERO, _AT_LOWER]

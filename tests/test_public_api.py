import inspect
import logging
import os
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path

import lfpkit

SRC = Path(__file__).resolve().parent.parent / "src"

# Every module's `__all__` plus the six submodules the package imports.
PUBLIC_NAMES = [
    "CscReport", "DegenerateNormalizer", "DegenerateT", "DimensionError", "DualPoint",
    "EmptyPolyhedron", "InfeasibleRegion", "IterationLimitError", "LFPProblem", "LPOutcome",
    "LfpError", "LinearProgram", "MaximalElement", "NonpositiveDenominator", "NumericalWarning",
    "OptimalPartition", "ParseError", "PartitionViolation", "Polyhedron", "PrimalPoint",
    "ScscReport", "Sense", "SolveStatus", "SolverOptions", "StrictComplementarySolution",
    "TransformedPoint", "UnboundedObjective", "UnboundedValidation", "approach_one",
    "approach_two", "build_dual_interior_lp", "build_dual_lp", "build_joint_lp",
    "build_maximal_element_lp", "build_primal_interior_lp", "build_transformed_lp",
    "charnes_cooper_forward", "charnes_cooper_inverse", "complementarity",
    "dual_optimal_face", "duality", "errors", "evaluate_objective",
    "find_relative_interior_point", "interior", "joint_optimal_face", "load_problem", "lp",
    "optimal_partitions", "parse_problem", "primal_optimal_face", "problem",
    "recover_dual_interior", "recover_maximal_element", "recover_primal_interior", "solve_lp",
    "solve_theta_star", "validate_denominator", "verify_csc", "verify_scsc",
]


def in_fresh_interpreter(code):
    """Standard output of `code` run by a new Python that imports lfpkit from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_exports_exactly_the_public_names():
    # A fresh interpreter: importing lfpkit.cli elsewhere in the session adds `cli`.
    code = "import lfpkit; print(*sorted(n for n in dir(lfpkit) if not n.startswith('_')))"
    assert in_fresh_interpreter(code).split() == PUBLIC_NAMES


def test_test_dependencies_stay_out_of_the_runtime():
    # scipy and hypothesis serve the tests only; numpy is the one runtime dependency.
    code = "import sys, lfpkit, lfpkit.cli; print(*sorted({'scipy', 'hypothesis'} & set(sys.modules)))"
    assert in_fresh_interpreter(code).split() == []


def test_importing_leaves_the_lfpkit_logger_unconfigured():
    # A library adds no handler and sets no level: its DEBUG records reach
    # only the handlers an application installs.
    code = ("import logging, lfpkit, lfpkit.cli; logger = logging.getLogger('lfpkit'); "
            "print(len(logger.handlers), logger.level)")
    assert in_fresh_interpreter(code).split() == ["0", str(logging.NOTSET)]


# Parameter names of every public function and dataclass, so that a parameter
# no caller sets is not added back unnoticed.
PARAMETERS = {
    "CscReport": ("primal_inner", "dual_inner", "tol", "ok"),
    "DualPoint": ("y", "z", "v"),
    "LFPProblem": ("A", "b", "c", "d", "alpha", "beta"),
    "LPOutcome": ("status", "point", "objective", "detail", "duals", "runs"),
    "LinearProgram": ("sense", "objective", "A_ub", "b_ub", "A_eq", "b_eq", "lo", "hi"),
    "MaximalElement": ("point", "support"),
    "OptimalPartition": ("sigma_x", "sigma_v", "sigma_u", "sigma_y"),
    "Polyhedron": ("A_eq", "b_eq", "free"),
    "PrimalPoint": ("x", "u"),
    "ScscReport": ("min_primal_sum", "min_dual_sum", "failing_primal", "failing_dual", "tol", "ok"),
    "SolverOptions": ("feas_tol", "opt_tol"),
    "StrictComplementarySolution": ("primal", "t_star", "dual", "theta_star"),
    "TransformedPoint": ("x_bar", "t", "u_bar"),
    "approach_one": ("problem", "stage1"),
    "approach_two": ("problem",),
    "build_dual_interior_lp": ("problem", "theta_star"),
    "build_dual_lp": ("problem",),
    "build_joint_lp": ("problem",),
    "build_maximal_element_lp": ("poly",),
    "build_primal_interior_lp": ("problem", "theta_star"),
    "build_transformed_lp": ("problem",),
    "charnes_cooper_forward": ("problem", "x"),
    "charnes_cooper_inverse": ("tp", "feas_tol"),
    "dual_optimal_face": ("problem", "theta_star"),
    "evaluate_objective": ("problem", "x"),
    "find_relative_interior_point": ("poly",),
    "joint_optimal_face": ("problem",),
    "load_problem": ("path",),
    "optimal_partitions": ("sol", "pos_tol"),
    "parse_problem": ("text",),
    "primal_optimal_face": ("problem", "theta_star"),
    "recover_dual_interior": ("problem", "outcome", "feas_tol"),
    "recover_maximal_element": ("outcome", "poly"),
    "recover_primal_interior": ("problem", "outcome", "feas_tol"),
    "solve_lp": ("lp", "opts"),
    "solve_theta_star": ("problem",),
    "validate_denominator": ("problem", "opts"),
    "verify_csc": ("sol",),
    "verify_scsc": ("sol", "pos_tol"),
}


def test_public_callables_take_exactly_these_parameters():
    # Enums and exceptions are left out: their signatures come from the standard library.
    found = {}
    for name in PUBLIC_NAMES:
        obj = getattr(lfpkit, name)
        if inspect.isfunction(obj) or (inspect.isclass(obj) and is_dataclass(obj)):
            found[name] = tuple(inspect.signature(obj).parameters)
    assert found == PARAMETERS

import inspect
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
    "coordinate_support_oracle", "dual_optimal_face", "duality", "errors", "evaluate_objective",
    "find_relative_interior_point", "interior", "joint_optimal_face", "load_problem", "lp",
    "optimal_partitions", "parse_problem", "primal_optimal_face", "problem",
    "recover_dual_interior", "recover_maximal_element", "recover_primal_interior", "solve_lp",
    "solve_theta_star", "validate_denominator", "verify_csc", "verify_scsc",
]


def test_package_exports_exactly_the_public_names():
    # A fresh interpreter: importing lfpkit.cli elsewhere in the session adds `cli`.
    code = "import lfpkit; print(*sorted(n for n in dir(lfpkit) if not n.startswith('_')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == PUBLIC_NAMES


# Parameter names of every public function and dataclass, so that a parameter
# no caller sets is not added back unnoticed.
PARAMETERS = {
    "CscReport": ("primal_inner", "dual_inner", "tol", "ok"),
    "DualPoint": ("y", "z", "v"),
    "LFPProblem": ("A", "b", "c", "d", "alpha", "beta"),
    "LPOutcome": ("status", "point", "objective", "detail"),
    "LinearProgram": ("sense", "objective", "A_ub", "b_ub", "A_eq", "b_eq", "lo", "hi"),
    "MaximalElement": ("point", "support"),
    "OptimalPartition": ("sigma_x", "sigma_v", "sigma_u", "sigma_y"),
    "Polyhedron": ("A_eq", "b_eq", "free"),
    "PrimalPoint": ("x", "u"),
    "ScscReport": ("min_primal_sum", "min_dual_sum", "failing_primal", "failing_dual", "tol", "ok"),
    "SolverOptions": ("feas_tol", "opt_tol"),
    "StrictComplementarySolution": ("primal", "t_star", "dual", "theta_star"),
    "TransformedPoint": ("x_bar", "t", "u_bar"),
    "approach_one": ("problem", "opts", "theta_star"),
    "approach_two": ("problem", "opts"),
    "build_dual_interior_lp": ("problem", "theta_star"),
    "build_dual_lp": ("problem",),
    "build_joint_lp": ("problem",),
    "build_maximal_element_lp": ("poly",),
    "build_primal_interior_lp": ("problem", "theta_star"),
    "build_transformed_lp": ("problem",),
    "charnes_cooper_forward": ("problem", "x"),
    "charnes_cooper_inverse": ("tp", "feas_tol"),
    "coordinate_support_oracle": ("poly",),
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
    "solve_theta_star": ("problem", "opts"),
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

import os
import subprocess
import sys
from pathlib import Path

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

"""Linear fractional programming toolkit.

Solves max (c.x + alpha)/(d.x + beta) over {Ax <= b, x >= 0}, builds the LP
dual through the Charnes-Cooper scaling, computes strict complementary
primal-dual solutions by two LP-based procedures, and extracts the unique
optimal partition of the index sets.  A generic relative-interior-point
finder for standard-form polyhedra underpins both procedures and is exposed
on its own.
"""

from .complementarity import (
    CscReport,
    OptimalPartition,
    ScscReport,
    StrictComplementarySolution,
    approach_one,
    approach_two,
    build_dual_interior_lp,
    build_joint_lp,
    build_primal_interior_lp,
    dual_optimal_face,
    joint_optimal_face,
    optimal_partitions,
    primal_optimal_face,
    recover_dual_interior,
    recover_primal_interior,
    verify_csc,
    verify_scsc,
)
from .duality import (
    TransformedPoint,
    build_dual_lp,
    build_transformed_lp,
    charnes_cooper_forward,
    charnes_cooper_inverse,
    solve_theta_star,
)
from .errors import (
    DegenerateNormalizer,
    DegenerateT,
    DimensionError,
    EmptyPolyhedron,
    InfeasibleRegion,
    IterationLimitError,
    LfpError,
    NonpositiveDenominator,
    NumericalWarning,
    ParseError,
    PartitionViolation,
    UnboundedObjective,
    UnboundedValidation,
)
from .interior import (
    MaximalElement,
    Polyhedron,
    build_maximal_element_lp,
    coordinate_support_oracle,
    find_relative_interior_point,
    recover_maximal_element,
)
from .lp import (
    LinearProgram,
    LPOutcome,
    Sense,
    SolveStatus,
    SolverOptions,
    solve_lp,
)
from .problem import (
    DualPoint,
    LFPProblem,
    PrimalPoint,
    evaluate_objective,
    load_problem,
    parse_problem,
    validate_denominator,
)

__version__ = "0.1.0"

"""Exception types shared across the package."""


class LfpError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(LfpError):
    """Problem file is not a well-formed problem document."""


class DimensionError(LfpError):
    """Problem data with mutually inconsistent shapes."""


class NonpositiveDenominator(LfpError):
    """The ratio objective was evaluated where its denominator is not positive."""


class InfeasibleRegion(LfpError):
    """The feasible region is empty (or admits no point with a positive denominator)."""


class UnboundedObjective(LfpError):
    """The objective grows without bound over the feasible region."""


class UnboundedValidation(LfpError):
    """The denominator can be driven to -inf, so no global minimum exists."""


class DegenerateT(LfpError):
    """The scaling variable of a transformed point is (numerically) zero, so the
    point cannot be mapped back to the original variables."""


class EmptyPolyhedron(LfpError):
    """A maximal-element computation certified that the polyhedron is empty."""


class DegenerateNormalizer(LfpError):
    """An interior-point recovery found a zero normalizer even though the target
    face should be non-empty; this signals numerical trouble, not bad input."""


class PartitionViolation(LfpError):
    """The four support sets do not partition the index sets, i.e. the solution
    they came from is not strictly complementary at the given threshold."""


class IterationLimitError(LfpError):
    """An internal LP solve stopped without a verdict: it hit its iteration cap,
    met a singular basis, or otherwise broke down numerically."""

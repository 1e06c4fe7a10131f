"""Linear fractional programming toolkit.

Solves max (c.x + alpha)/(d.x + beta) over {Ax <= b, x >= 0}, builds the LP
dual through the Charnes-Cooper scaling, computes strict complementary
primal-dual solutions by two LP-based procedures, and extracts the unique
optimal partition of the index sets.  A generic relative-interior-point
finder for standard-form polyhedra underpins both procedures and is exposed
on its own.
"""

from .complementarity import *
from .duality import *
from .errors import *
from .interior import *
from .lp import *
from .problem import *

__version__ = "0.1.0"

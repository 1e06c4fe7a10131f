"""Find a strict complementary solution of a small ratio-objective problem.

The instance maximizes (6 x1 + 3 x2 + 6) / (5 x1 + 2 x2 + 5) over the
polygon {2 x1 + x2 <= 6, -2 x1 + x2 <= 2, x >= 0}.  Its optimal value is
4/3, attained on a whole edge of the polygon, so most optimal points are
NOT strictly complementary -- only the relative interior of that edge is.
The script exits nonzero if a verdict fails or the two routes disagree.
"""

import numpy as np

from lfpkit import (
    LFPProblem,
    approach_one,
    approach_two,
    optimal_partitions,
    verify_csc,
    verify_scsc,
)

problem = LFPProblem(
    A=np.array([[2.0, 1.0], [-2.0, 1.0]]),
    b=np.array([6.0, 2.0]),
    c=np.array([6.0, 3.0]),
    d=np.array([5.0, 2.0]),
    alpha=6.0,
    beta=5.0,
)

# Route 1: pin the optimal value first, then one interior LP over the primal
# optimal face; the dual point comes from that LP's row duals.
solution = approach_one(problem)
print("route 1 (one LP after the stage-1 solve)")
print("  optimal value :", solution.theta_star)
print("  x =", solution.primal.x, "  u =", solution.primal.u)
print("  y =", solution.dual.y, "  z =", solution.dual.z, "  v =", solution.dual.v)

# Complementarity holds (the inner products vanish) *and* every complementary
# pair has a positive member -- that second part is the strictness.
csc, scsc = verify_csc(solution), verify_scsc(solution)
print("  x.v and y.u   :", csc)
print("  min pair sums :", scsc)

# The supports of (x, v) and (u, y) split the index sets; this partition is
# the same for every strict complementary solution of the instance.
partition = optimal_partitions(solution)
print("  partition     : x", sorted(partition.sigma_x), " v", sorted(partition.sigma_v),
      " u", sorted(partition.sigma_u), " y", sorted(partition.sigma_y))

# Route 2: one joint LP, no stage-1 solve; the optimal value falls out as z.
solution2 = approach_two(problem)
print("\nroute 2 (single joint LP)")
print("  recovered value:", solution2.dual.z)
same = optimal_partitions(solution2) == partition
print("  same partition :", same)
raise SystemExit(0 if csc.ok and scsc.ok and same else 1)

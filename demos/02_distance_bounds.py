"""Two-sided Carnot-Caratheodory distance estimates on Heisenberg.

Horizontal targets are reached by straight lines, so upper and lower
bounds pinch the exact answer.  The vertical direction e^Z is the
interesting one: no horizontal straight line gets there, and the
optimal path is a full circle whose length is sqrt(4 pi) by the
isoperimetric inequality.  The lower bound reads it exactly: a path of
length L encloses at most L^2 / (2 pi) of area with its chord (Dido's
inequality, the certified constant K_2 = 1/(2 pi)), and a closed one at
most half of that, so the vertical target, whose path is already
closed, is at least sqrt(2 |z| / K_2) = sqrt(4 pi) away.
"""

import numpy as np

from carnot import catalog
from carnot.metric import (
    CCSpace,
    OptimizerBudget,
    estimate_distance,
)

space = CCSpace(catalog.heisenberg())
print("certified layer bounds:", space.layer_bounds().as_dict())
print()

origin = np.zeros(3)
for label, target in [
    ("horizontal e^{3X+4Y}", np.array([3.0, 4.0, 0.0])),
    ("vertical   e^Z      ", np.array([0.0, 0.0, 1.0])),
    ("generic             ", np.array([0.5, -1.0, 0.7])),
]:
    est = estimate_distance(space, origin, target,
                            budget=OptimizerBudget(segments=32), seed=2)
    print(f"{label}: d_cc in [{est.lower:.6f}, {est.upper:.6f}]"
          f"  (lower via {est.lower_method})")

print()
print("reference for e^Z: sqrt(4 pi) =", np.sqrt(4 * np.pi))
print("the upper bound comes with a witness path; its endpoint error and")
est = estimate_distance(space, origin, np.array([0.0, 0.0, 1.0]),
                        budget=OptimizerBudget(segments=32), seed=2)
end = est.witness.endpoint(space)
print("length check:",
      np.linalg.norm(end - [0, 0, 1]), "/",
      abs(est.witness.length(space) - est.upper))

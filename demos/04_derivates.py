"""Directional derivates of Lipschitz distances along horizontal flows.

For the CC distance itself the derivate along v is |v| exactly, by
homogeneity.  A Riemannian completion sees the same value in horizontal
directions.  The snowflake sqrt(d_cc) is the negative control: it is
not Lipschitz, and the sampler catches a violating pair.
"""

import numpy as np

from carnot import catalog
from carnot.derivate import (
    cc_distance,
    derivate,
    riemannian_distance,
    snowflake_distance,
)
from carnot.errors import LipschitzViolation
from carnot.metric import CCSpace

space = CCSpace(catalog.heisenberg())
x = np.zeros(3)
v = 2.0 * space.algebra.from_label("X")

for d in (cc_distance(space), riemannian_distance(space)):
    est = derivate(space, d, x, v, samples_per_t=16, seed=2)
    print(f"{d.name:>12}: rho in [{est.rho_lower:.6f}, {est.rho_upper:.6f}]"
          f"  (|v| = {np.linalg.norm(v[:2]):g})")

print()
print("snowflake sqrt(d_cc) declares itself 1-Lipschitz and gets caught:")
try:
    derivate(space, snowflake_distance(space), x, v, samples_per_t=8, seed=3)
except LipschitzViolation as exc:
    print("  LipschitzViolation:", exc)

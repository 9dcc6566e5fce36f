"""Geodesic divergence: the Heisenberg group is not a model space.

Two horizontal rays e^{tX}, e^{tY} separate like t^{1/2}: strictly
faster than bounded, strictly slower than linear.  Euclidean, sphere
and hyperbolic comparison spaces only ever show bounded or linear
divergence, so the fractional exponent is an obstruction to any
bi-Lipschitz embedding into those models.
"""

from carnot import catalog
from carnot.cli import standard_model_battery
from carnot.divergence import (
    GeodesicPair,
    default_t_grid,
    divergence_profile,
    obstruction_report,
)
from carnot.metric import CCSpace

space = CCSpace(catalog.heisenberg())
pair = GeodesicPair(v=space.algebra.from_label("X"),
                    w=space.algebra.from_label("Y"),
                    t_grid=default_t_grid(64.0))
fit = divergence_profile(space, pair, seed=2)

print(f"{'t':>8} {'f_lower':>10} {'f_upper':>10}")
for t, lo, hi in fit.rows[::3]:
    print(f"{t:>8.2f} {lo:>10.4f} {hi:>10.4f}")
print()
print(f"fitted exponent: {fit.exponent:.3f}")
print(f"sandwich: C1 t^{fit.alpha} <= f(t) <= C2 t^{fit.beta}"
      f"  with C1={fit.C1:.3f}, C2={fit.C2:.3f}"
      f"  (holds: {fit.sandwich_holds()})")
print()

models = standard_model_battery()
for m in models:
    print(f"  model {m.label:<22} -> {m.classification}")
print()
print("verdict:", obstruction_report(fit, models)["verdict"])

"""Reference values the benchmark scores carnot's outputs against.

Nothing here calls carnot: these are independent oracles.

* The closed-form Heisenberg CC distance.  A shortest horizontal path to
  (x, y, z) projects to a circular arc over the chord from 0 to (x, y)
  enclosing signed area z (Dido's problem).  With r = |(x, y)| the arc's
  central angle phi solves z / r^2 = (phi - sin phi) / (8 sin^2(phi/2))
  and d = r phi / (2 sin(phi/2)); for r = 0 the arc closes and
  d = sqrt(4 pi |z|).
* The exact volume of the unit Heisenberg ball, by quadrature of that
  closed form over the boundary arc angle.
* The Heisenberg group law in exponential coordinates.
* The stored Engel target set with best-known upper bounds.
"""

import json
from pathlib import Path

import numpy as np
from scipy.integrate import quad

ENGEL_REFERENCE = Path(__file__).resolve().parent / "engel_reference.json"
HEISENBERG_UNIT_BALL_VOLUME = 0.825876  # to the 6 digits the quadrature is checked at


def _area_ratio(phi):
    """(phi - sin phi) / (8 sin^2(phi/2)): enclosed area over chord^2."""
    return (phi - np.sin(phi)) / (8.0 * np.sin(phi / 2.0) ** 2)


def heisenberg_distance(points):
    """Exact CC distance from the identity to each row (x, y, z)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(p[:, 0], p[:, 1])
    z = np.abs(p[:, 2])
    out = np.sqrt(4.0 * np.pi * z)
    planar = r > 0
    q = z[planar] / r[planar] ** 2
    lo = np.zeros_like(q)
    hi = np.full_like(q, 2.0 * np.pi)
    for _ in range(200):  # bisection: the area ratio increases on (0, 2 pi)
        mid = 0.5 * (lo + hi)
        above = np.where(mid > 0, _area_ratio(np.where(mid > 0, mid, 1.0)), 0.0) > q
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    phi = 0.5 * (lo + hi)
    half_sin = np.sin(phi / 2.0)
    chord_factor = np.where(phi > 1e-12, phi / (2.0 * np.where(phi > 1e-12, half_sin, 1.0)), 1.0)
    out[planar] = r[planar] * chord_factor
    return out


def heisenberg_sphere_points(count, rng):
    """Points at exact CC distance 1, from the boundary arc angle phi."""
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    sign = rng.choice([-1.0, 1.0], count)
    r = 2.0 * np.sin(phi / 2.0) / phi
    z = (phi - np.sin(phi)) / (2.0 * phi**2)
    return np.stack([r * np.cos(theta), r * np.sin(theta), sign * z], axis=1)


def heisenberg_unit_ball_volume():
    """vol(B(1)) = 4 pi * integral_0^1 r z_max(r) dr, over the arc angle."""

    def integrand(phi):
        r = 2.0 * np.sin(phi / 2.0) / phi
        z = (phi - np.sin(phi)) / (2.0 * phi**2)
        dr = (phi * np.cos(phi / 2.0) - 2.0 * np.sin(phi / 2.0)) / phi**2
        return -r * z * dr

    value, _ = quad(integrand, 0.0, 2.0 * np.pi, epsabs=1e-13, epsrel=1e-12)
    return 4.0 * np.pi * value


def heisenberg_product(a, b):
    """e^a e^b in exponential coordinates of the Heisenberg group."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    z = a[..., 2] + b[..., 2] + 0.5 * (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
    return np.stack([a[..., 0] + b[..., 0], a[..., 1] + b[..., 1], z], axis=-1)


def self_check():
    """Failures of the oracles against their limiting cases (empty if none)."""
    failures = []
    vertical = heisenberg_distance([[0.0, 0.0, 2.0], [0.0, 0.0, -0.5]])
    expect = np.sqrt(4.0 * np.pi * np.array([2.0, 0.5]))
    if np.max(np.abs(vertical / expect - 1.0)) > 1e-12:
        failures.append(f"vertical distance {vertical} != sqrt(4 pi |z|) {expect}")
    near_vertical = heisenberg_distance([[1e-7, 0.0, 2.0]])[0]
    if abs(near_vertical / expect[0] - 1.0) > 1e-6:
        failures.append(f"near-vertical distance {near_vertical} != {expect[0]}")
    horizontal = heisenberg_distance([[3.0, 4.0, 0.0], [-0.3, 0.1, 0.0]])
    expect_h = np.array([5.0, np.hypot(0.3, 0.1)])
    if np.max(np.abs(horizontal / expect_h - 1.0)) > 1e-12:
        failures.append(f"horizontal distance {horizontal} != |(x, y)| {expect_h}")
    sphere = heisenberg_distance(heisenberg_sphere_points(64, np.random.default_rng(0)))
    if np.max(np.abs(sphere - 1.0)) > 1e-9:
        failures.append(f"sphere points off the unit sphere by {np.max(np.abs(sphere - 1.0))}")
    volume = heisenberg_unit_ball_volume()
    if abs(volume - HEISENBERG_UNIT_BALL_VOLUME) > 1e-6:
        failures.append(f"unit-ball volume {volume} != {HEISENBERG_UNIT_BALL_VOLUME}")
    return failures


def load_engel_reference():
    """(targets (T, 4), best-known upper bounds (T,)) from the stored run."""
    doc = json.loads(ENGEL_REFERENCE.read_text())
    return np.array(doc["targets"], dtype=float), np.array(doc["best_upper"], dtype=float)

"""Volume growth and Hausdorff dimension experiments.

The reference measure is Lebesgue measure in exponential coordinates,
which is a Haar measure for a simply connected nilpotent group.  CC-ball
volumes are Monte-Carlo estimates over an enclosing coordinate box built
from the certified per-layer constants (or from a calibrated ball-box
constant when one is passed); samples whose certified lower bound
exceeds the radius are decided without the optimizer, membership uses
the certified upper bound, and the lower bound brackets the
misclassification band.  Every sample that reaches the path optimizer
runs the one ``MEMBERSHIP_BUDGET``, and stops, by itself, as soon as it
has a path no longer than the radius, so a member's upper bound is
certified but not minimal.

Also here: the End sampler, which draws the end set of a box (an end
set flowed along a radial geodesic) for the spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GradedAlgebra
from .errors import InputError
from .metric import (
    BallBoxConstant,
    CCSpace,
    OptimizerBudget,
    cc_upper_batch,
    certified_upper_cheap,
    lower_bounds_batch,
)

# Default budget for membership tests: cheap, certified via ladder closure.
MEMBERSHIP_BUDGET = OptimizerBudget(
    segments=8,
    starts=1,
    penalty_init=1e4,
    max_iter=120,
)


def homogeneous_dimension(a: GradedAlgebra) -> int:
    """Q = sum_i i * dim(layer i); the Hausdorff dimension of d_cc."""
    return int(sum((i + 1) * d for i, d in enumerate(a.layer_dims)))


@dataclass
class VolumeEstimate:
    """Monte-Carlo Lebesgue measure of one CC ball."""

    radius: float
    volume: float
    stderr: float
    samples: int
    seed: int
    band_fraction: float  # samples with lower <= r < upper, per ball sample
    # samples decided by the lower bound (non-members), by the ladder bound
    # (members) and by the path optimizer
    decided_lower: int
    decided_ladder: int
    decided_optimizer: int

    def as_row(self):
        return [self.radius, self.volume, self.stderr, self.samples, self.seed]


@dataclass
class DimensionFit:
    """Least-squares log-log fit of volume against radius."""

    slope: float
    intercept: float
    r_squared: float
    radii: tuple  # (min, max)

    def as_dict(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "radius_min": self.radii[0],
            "radius_max": self.radii[1],
        }


def enclosing_box_halfwidths(space: CCSpace, ballbox: BallBoxConstant | None,
                             r):
    """Per-coordinate half-widths of a box containing B_cc(e^0, r).

    d_cc <= r forces the layer-i norm below K_i r^i for i >= 2, with the
    certified constants of ``space.layer_bounds()``, or below (A r)^i
    when a calibrated ``BallBoxConstant`` is given (valid as far as the
    calibration is); layer 1 is bounded by r itself through the exact
    abelianization bound, with the metric norm converted to coordinate
    bounds via its smallest eigenvalue.
    """
    a = space.algebra
    half = np.empty(a.dim)
    half[a.layer_slice(1)] = r / np.sqrt(space.metric.min_eig)
    for i, K in enumerate(space.layer_bounds().K, start=2):
        half[a.layer_slice(i)] = (K * r**i if ballbox is None
                                  else (ballbox.A * r) ** i)
    return half


def ball_volume(space: CCSpace, ballbox: BallBoxConstant | None, r, samples,
                seed=0) -> VolumeEstimate:
    """Monte-Carlo Lebesgue volume of the CC ball of radius r at identity.

    ``ballbox`` is an optional calibrated constant; without one the box
    and the lower bound rest on the certified per-layer constants alone.
    A sample is a member when a certified upper bound is at most r: the
    straight-segment ladder bound, else ``cc_upper_batch`` at the fixed
    ``MEMBERSHIP_BUDGET`` with ``radius=r``, which stops the sample's
    optimization once it has a path no longer than r.  ``r`` must be
    positive and finite.
    """
    samples = int(samples)
    if samples <= 0:
        raise InputError("sample budget must be positive")
    r = float(r)
    if not (np.isfinite(r) and r > 0):
        raise InputError(f"radius must be positive and finite, got {r}")
    rng = np.random.default_rng(seed)
    half = enclosing_box_halfwidths(space, ballbox, r)
    box_vol = float(np.prod(2 * half))
    pts = rng.uniform(-1.0, 1.0, (samples, space.algebra.dim)) * half

    lower = lower_bounds_batch(space, pts, ballbox)
    upper = np.full(samples, np.inf)
    undecided = lower <= r
    need = np.zeros(samples, dtype=bool)
    if np.any(undecided):
        cheap = certified_upper_cheap(space, pts[undecided])
        upper[undecided] = cheap
        need[undecided] = cheap > r
        if np.any(need):
            opt, _ = cc_upper_batch(
                space, pts[need], budget=MEMBERSHIP_BUDGET,
                seed=int(rng.integers(2**32)), radius=r,
            )
            upper[need] = np.minimum(upper[need], opt)
    member = upper <= r
    p = float(np.mean(member))
    volume = box_vol * p
    stderr = box_vol * float(np.sqrt(max(p * (1 - p), 0.0) / samples))
    n_member = int(np.sum(member))
    band = int(np.sum((lower <= r) & (upper > r)))
    band_fraction = band / n_member if n_member else np.inf
    return VolumeEstimate(
        radius=r,
        volume=volume,
        stderr=stderr,
        samples=samples,
        seed=seed,
        band_fraction=band_fraction,
        decided_lower=samples - int(np.sum(undecided)),
        decided_ladder=int(np.sum(undecided & ~need)),
        decided_optimizer=int(np.sum(need)),
    )


def fit_dimension(estimates) -> DimensionFit:
    """Slope of log(volume) against log(radius): the empirical dimension."""
    estimates = list(estimates)
    if len(estimates) < 3:
        raise InputError("dimension fit needs at least 3 radii")
    radii = np.array([e.radius for e in estimates])
    vols = np.array([e.volume for e in estimates])
    if np.max(radii) / np.min(radii) < 4.0 - 1e-9:
        raise InputError("dimension fit needs radii spanning a factor >= 4")
    if np.any(vols <= 0):
        raise InputError("dimension fit needs positive volume estimates")
    x = np.log(radii)
    y = np.log(vols)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DimensionFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=max(0.0, min(1.0, r2)),
        radii=(float(np.min(radii)), float(np.max(radii))),
    )


def dimension_experiment(space: CCSpace, ballbox, radii, samples_per_radius,
                         seed=0):
    """Ball volumes across a radius sweep plus the dimension fit."""
    rows = [ball_volume(space, ballbox, r, samples_per_radius, seed=seed + idx)
            for idx, r in enumerate(radii)]
    return rows, fit_dimension(rows)


# -- End sampler ----------------------------------------------------------


@dataclass
class BoxSpec:
    """The box construction: an end set flowed along a radial geodesic.

    End(x, v, epsilon): points x e^w with w_1 perpendicular to v in the
    horizontal metric, |w_1| < epsilon, and |w_j| < epsilon^j per layer.
    Box(x, v, epsilon): end points flowed along s -> (.) h_s e^v, s in
    [0, 1].  The height enters through v itself (direction t*v, radius
    t*epsilon gives the height-t box).
    """

    center: np.ndarray
    direction: np.ndarray  # layer-1 vector, full coordinates
    epsilon: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        if self.epsilon <= 0:
            raise InputError("box epsilon must be positive")


def _end_frame(space, v):
    """Orthonormal basis (rows) of the orthocomplement of v in layer 1."""
    d1 = space.d1
    v1 = np.asarray(v, dtype=float)[:d1]
    nv = float(space.metric.norm(v1))
    if nv == 0:
        raise InputError("box direction must be a nonzero layer-1 vector")
    basis = [v1 / nv]
    for e in np.eye(d1):
        w = e.copy()
        for b in basis:
            w = w - space.metric.inner(b, w) * b
        n = float(space.metric.norm(w))
        if n > 1e-10:
            basis.append(w / n)
        if len(basis) == d1:
            break
    return np.array(basis[1:])


def _ball_point(rng, count, dim, radius):
    """Uniform samples in a Euclidean ball (dim may be 0)."""
    if dim == 0:
        return np.zeros((count, 0))
    g = rng.standard_normal((count, dim))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    u = rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / dim)
    return radius * g * u


def sample_end(space: CCSpace, spec: BoxSpec, count, rng):
    """Uniform samples from End(center, direction, epsilon), (B, n)."""
    a = space.algebra
    if np.any(np.abs(spec.direction[space.d1:]) > 0):
        raise InputError("box direction must lie in layer 1")
    frame = _end_frame(space, spec.direction)
    w = np.zeros((count, a.dim))
    w[:, : space.d1] = _ball_point(rng, count, space.d1 - 1,
                                   spec.epsilon) @ frame
    for i in range(2, a.num_layers + 1):
        sl = a.layer_slice(i)
        w[:, sl] = _ball_point(rng, count, a.layer_dims[i - 1],
                               spec.epsilon**i)
    return space.group.bch(spec.center, w)

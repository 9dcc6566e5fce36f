"""Lower and upper derivates of distances Lipschitz with respect to d_cc.

The derivate of d at x along a layer-1 direction v is the limiting
behaviour of the quotients d(y, y h_t e^v)/t over y near x.  The limits
are realized as sampled extremes over certified CC balls on a geometric
t-grid, extrapolated by a tail fit; reports carry both the raw per-t
data and the fit so the estimator is auditable.

Also here: the certified ball sampler and the spread estimate
quantifying how a box's end stays together under the flow, on the End
sampler of ``measure``.

Each lab draws all of its samples first and evaluates the distance
once on the whole set, so the path solver's and the ladder's fixed
costs are paid once per call.  The derivate samples every level in one
ball-sampler call: the levels take their candidates from one stream of
uniform tries, drawn in blocks, and the ladder runs only on those that
the certified lower bound and the ladder's closed-form floor keep.  The
samples are those of a per-level loop drawing and testing one try at a
time.  Certified bounds decide rows before the path solver: d_cc sends
to it only the pairs whose bracket the ladder leaves open, and the
spread only the samples whose ladder bound can still reach their
cell's maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, LipschitzViolation
from .metric import (
    CEILING_SLACK,
    CCSpace,
    cc_upper_batch,
    cc_upper_max,
    ladder_floor,
    lower_bounds_batch,
    riemannian_upper_batch,
)
from .measure import (
    MEMBERSHIP_BUDGET,
    BoxSpec,
    certified_upper_cheap,
    enclosing_box_halfwidths,
    sample_end,
)


# -- Lipschitz distance functions ------------------------------------------


@dataclass
class LipschitzDistance:
    """A two-point distance function declared L-Lipschitz against d_cc.

    ``evaluator`` maps two (B, n) coordinate arrays to (B,) nonnegative
    reals and must be pure.  The declared constant is a contract checked
    during derivate sampling, not a derived fact.
    """

    name: str
    evaluator: object
    L: float
    tol: float = 1e-9

    def __call__(self, xs, ys):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        return np.asarray(self.evaluator(xs, ys), dtype=float)


def _canonical_deltas(space, xs, ys):
    """Displacements x^{-1}y, sign-canonicalized so d(x,y) = d(y,x)."""
    deltas = space.group.bch(-np.atleast_2d(xs), np.atleast_2d(ys))
    # flip by the sign of the first coordinate of largest magnitude so
    # delta and its inverse -delta evaluate identically
    lead = np.take_along_axis(
        deltas, np.argmax(np.abs(deltas), axis=-1)[:, None], axis=-1
    )[:, 0]
    sign = np.where(lead < 0, -1.0, 1.0)
    return deltas * sign[:, None]


def cc_distance(space: CCSpace, ballbox=None, seed=0) -> LipschitzDistance:
    """d_cc itself as a LipschitzDistance (L = 1), named "cc-midpoint".

    Reports the midpoint of the certified bracket: the combined lower
    bound, and the smaller of the cheap ladder bound and the path
    solver's bound with ``MEMBERSHIP_BUDGET``.  Only the pairs whose
    ladder bound exceeds the lower bound by more than ``CEILING_SLACK``,
    relative, go to the solver, in one batch; on a radial pair the two
    meet to roundoff, and the ladder bound is its upper bound.
    """

    def evaluator(xs, ys):
        deltas = _canonical_deltas(space, xs, ys)
        lower = lower_bounds_batch(space, deltas, ballbox)
        upper = certified_upper_cheap(space, deltas)
        undecided = upper > lower * (1.0 + CEILING_SLACK)
        if np.any(undecided):
            solved, _ = cc_upper_batch(space, deltas[undecided],
                                       budget=MEMBERSHIP_BUDGET, seed=seed)
            upper[undecided] = np.minimum(upper[undecided], solved)
        return 0.5 * (np.minimum(lower, upper) + upper)

    return LipschitzDistance(name="cc-midpoint", evaluator=evaluator, L=1.0,
                             tol=1e-6)


def riemannian_distance(space: CCSpace) -> LipschitzDistance:
    """Distance of the left-invariant Riemannian completion (L = 1).

    Approximate from above by optimized broken paths, with the fixed
    budget of ``riemannian_upper_batch`` (8 segments, 1 start, 120
    iterations); 1-Lipschitz against d_cc since horizontal paths keep
    their length in the completion.
    """

    def evaluator(xs, ys):
        deltas = _canonical_deltas(space, xs, ys)
        return riemannian_upper_batch(space, deltas)

    return LipschitzDistance(name="riemannian", evaluator=evaluator, L=1.0,
                             tol=1e-6)


def snowflake_distance(space: CCSpace, ballbox=None,
                       seed=0) -> LipschitzDistance:
    """Negative control: sqrt of d_cc with a (false) declared L = 1.

    A snowflaked metric is not Lipschitz against d_cc at small scales;
    derivate sampling detects this and raises.
    """
    base = cc_distance(space, ballbox=ballbox, seed=seed)

    def evaluator(xs, ys):
        return np.sqrt(base.evaluator(xs, ys))

    return LipschitzDistance(name="snowflake", evaluator=evaluator, L=1.0,
                             tol=1e-6)


def abelianized_distance(space: CCSpace) -> LipschitzDistance:
    """Pullback of the Euclidean distance through abelianization (L = 1).

    A degenerate but genuinely 1-Lipschitz pseudo-distance; its derivate
    along horizontal v is |v| exactly.
    """

    def evaluator(xs, ys):
        deltas = space.group.bch(-np.atleast_2d(xs), np.atleast_2d(ys))
        return space.metric.norm(deltas[..., : space.d1])

    return LipschitzDistance(name="abelianized", evaluator=evaluator, L=1.0)


# -- certified ball sampler ------------------------------------------------


def sample_ball(space: CCSpace, center, radii, count, rng, ballbox,
                max_tries=200):
    """Rejection samples from the certified CC balls B(center, r), r in radii.

    ``radii`` is a radius or a sequence of them; ``count`` points are
    returned per radius, in the order of ``radii``.  Candidates are
    uniform in the ball's enclosing box (of the certified per-layer
    constants, or of ``ballbox`` when one is given) and accepted when
    the cheap certified upper bound is at most the radius, so every
    returned point genuinely lies in its ball (the sample leans inward).
    A try is max(4 count, 256) uniform points of [-1, 1)^n; a radius
    takes its candidates from at most ``max_tries`` tries, scaled by its
    box's half-widths.

    Every radius takes its tries from one stream, drawn in blocks with
    one ``rng.uniform`` call.  A radius tests a block of the stream's
    next tries; the tries after the one that completes its count are
    tested again, scaled by the next radius's box.  A block doubles while
    nothing has been accepted, then is sized from the acceptance rate so
    far: every box and ball is a dilation of the first, so the rate is
    the same at every radius.  Only candidates whose certified lower
    bound and closed-form ladder floor (``ladder_floor``) are within the
    radius reach the ladder; both are below the cheap upper bound, the
    floor provably so as computed, so this rejects no member.  The
    generator is rewound once, at the end, to the end of the last try
    used, so the points, a starved radius's error and ``rng``'s state
    afterwards are those of drawing and testing one try at a time, radius
    after radius.
    """
    center = space.algebra.vector(center)
    per_try, dim = max(4 * count, 256), space.algebra.dim
    pool = np.empty((0, dim))  # the stream's drawn tries not yet used
    marks = []  # (tries drawn before, generator state) per draw
    drawn = used = accepted = 0
    block = 1
    out = []
    try:
        for radius in np.atleast_1d(np.asarray(radii, dtype=float)):
            half = enclosing_box_halfwidths(space, ballbox, radius)
            have = tries = 0
            while have < count and tries < max_tries:
                if accepted:
                    block = math.ceil(1.5 * (count - have) * used / accepted)
                block = min(block, max_tries - tries)
                if len(pool) < block * per_try:
                    marks.append((drawn, rng.bit_generator.state))
                    more = block - len(pool) // per_try
                    pool = np.concatenate(
                        [pool, rng.uniform(-1.0, 1.0, (more * per_try, dim))])
                    drawn += more
                cand = pool[: block * per_try] * half
                rows = np.flatnonzero(lower_bounds_batch(space, cand)
                                      <= radius)
                rows = rows[ladder_floor(space, cand[rows]) <= radius]
                rows = rows[certified_upper_cheap(space, cand[rows]) <= radius]
                rows = rows[: count - have]
                out.append(cand[rows])
                have += len(rows)
                took = (block if have < count
                        else int(rows[-1]) // per_try + 1)
                pool = pool[took * per_try:]
                tries += took
                used += took
                accepted += len(rows)
                block *= 2  # kept only while nothing has been accepted
            if have < count:
                raise InputError(
                    f"ball rejection sampling starved at radius {radius}")
    finally:
        if drawn > used:  # rewind to the end of the last try used
            first, state = next(m for m in reversed(marks) if m[0] <= used)
            rng.bit_generator.state = state
            rng.uniform(-1.0, 1.0, ((used - first) * per_try, dim))
    return space.group.bch(center, np.concatenate(out, axis=0))


# -- derivates -------------------------------------------------------------


@dataclass
class DerivateEstimate:
    """Sampled difference quotients of d along v, with tail extrapolation."""

    x: np.ndarray
    v: np.ndarray
    rows: list  # (t, inf_quotient, sup_quotient, samples)
    rho_lower: float
    rho_upper: float
    fit_stderr_lower: float
    fit_stderr_upper: float
    distance_name: str = ""

    def as_dict(self):
        return {
            "distance": self.distance_name,
            "x": self.x.tolist(),
            "v": self.v.tolist(),
            "rows": [list(r) for r in self.rows],
            "rho_lower": self.rho_lower,
            "rho_upper": self.rho_upper,
            "fit_stderr_lower": self.fit_stderr_lower,
            "fit_stderr_upper": self.fit_stderr_upper,
        }


def default_t_grid(levels=10, t_max=1.0):
    """Geometric grid of ratio 0.5, decreasing, floored at 1e-5."""
    grid = t_max * 0.5 ** np.arange(levels)
    grid = grid[np.isfinite(grid) & (grid >= 1e-5)]
    if not len(grid):
        raise InputError(f"levels={levels!r} and t_max={t_max!r} give no "
                         f"finite t >= 1e-5")
    return grid


def _tail_fit(ts, qs):
    """Intercept of a linear tail fit q = rho + b t over the smallest ts."""
    ts = np.asarray(ts, dtype=float)
    qs = np.asarray(qs, dtype=float)
    order = np.argsort(ts)
    k = max(3, len(ts) // 2)
    ts, qs = ts[order][:k], qs[order][:k]
    A = np.stack([np.ones_like(ts), ts], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, qs, rcond=None)
    dof = max(len(ts) - 2, 1)
    sigma2 = float(res[0]) / dof if len(res) else 0.0
    cov = sigma2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(np.sqrt(max(cov[0, 0], 0.0)))


def derivate(space: CCSpace, d: LipschitzDistance, x, v, t_grid=None,
             samples_per_t=64, seed=0, ballbox=None) -> DerivateEstimate:
    """Sampled lower/upper derivate of d at x along the layer-1 vector v.

    Per t: y is drawn from the certified ball B(x, t) and the quotient
    d(y, y h_t e^v)/t recorded; extremes per level, tail-extrapolated.
    The radial geodesic gives d_cc(y, y h_t e^v) = t |v| exactly, so the
    declared Lipschitz constant is enforced on every sampled pair.
    The grid needs at least 2 levels, each at least 1e-5.
    Every level is sampled first, in descending t, by one
    ``sample_ball`` call, and d is evaluated once on all the pairs; the
    Lipschitz check then runs level by level, so the first violation
    found is at the largest violating t.
    """
    x = space.algebra.vector(x)
    v = space.algebra.vector(v)
    if np.any(np.abs(v[space.d1:]) > 0):
        raise InputError("derivate direction must lie in layer 1")
    if samples_per_t < 1:
        raise InputError(
            f"samples per t must be positive, got {samples_per_t!r}")
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(sorted(t_grid, reverse=True), dtype=float)
    if len(t_grid) < 2 or np.any(t_grid < 1e-5):
        raise InputError(f"t grid needs at least 2 levels, each at least "
                         f"1e-5, for the tail fit; got {t_grid.tolist()}")
    vnorm = float(space.metric.norm(v[: space.d1]))
    rng = np.random.default_rng(seed)
    ys = sample_ball(space, x, t_grid, samples_per_t, rng, ballbox)
    level_t = np.repeat(t_grid, samples_per_t)
    ys2 = space.group.bch(ys, level_t[:, None] * v[None, :])
    qs = (d(ys, ys2) / level_t).reshape(len(t_grid), samples_per_t)
    rows = []
    for level, (t, q) in enumerate(zip(t_grid, qs)):
        limit = d.L * vnorm + d.tol / t
        if np.any(q > limit):
            j = int(np.argmax(q))
            i = level * samples_per_t + j
            raise LipschitzViolation(
                f"{d.name}: quotient {q[j]:.6g} exceeds L*|v| = "
                f"{d.L * vnorm:.6g} at t={t:.3g}",
                pair=(ys[i], ys2[i]),
            )
        rows.append((float(t), float(np.min(q)), float(np.max(q)),
                     int(samples_per_t)))
    ts = [r[0] for r in rows]
    rho_lo, se_lo = _tail_fit(ts, [r[1] for r in rows])
    rho_hi, se_hi = _tail_fit(ts, [r[2] for r in rows])
    if vnorm == 0:
        rho_lo = rho_hi = 0.0
    return DerivateEstimate(
        x=x, v=v, rows=rows,
        rho_lower=rho_lo, rho_upper=rho_hi,
        fit_stderr_lower=se_lo, fit_stderr_upper=se_hi,
        distance_name=d.name,
    )


# -- spread ----------------------------------------------------------------


@dataclass
class SpreadReport:
    """Empirical sup of the flowed end-set spread, per (epsilon, t).

    ``rows_to_end`` samples ran the path solver to the end and
    ``rows_floored`` stopped at their cell's floor (``cc_upper_max``).
    """

    rows: list  # (epsilon, t, sup_distance, sup_over_t)
    samples: int
    seed: int
    rows_to_end: int
    rows_floored: int

    def c_of_epsilon(self):
        """Mean of sup/t across the t-grid, per epsilon (decreasing)."""
        eps = sorted({r[0] for r in self.rows}, reverse=True)
        return [(e, float(np.mean([r[3] for r in self.rows if r[0] == e])))
                for e in eps]


def spread_estimate(space: CCSpace, v, epsilon_grid, t_grid, samples=64,
                    seed=0) -> SpreadReport:
    """sup over z in End(y, tv, t eps) of d_cc(y h_t e^v, z h_t e^v) / t.

    By left invariance the base y drops out; the distance reduces to
    d_cc(e^0, (h_t e^v)^{-1} z' h_t e^v) with z' the end displacement, so
    each cell is a batch of certified upper bounds on conjugated points.
    The cells' ends are drawn in (epsilon, t) order from one generator
    and their suprema are taken in one ``cc_upper_max`` call with
    ``MEMBERSHIP_BUDGET``: a branch and bound that runs the path solver to
    the end only on the samples that can still set their cell's supremum,
    and decides by the ladder bound those whose ladder bound is below the
    cell's floor.  On step-2 groups the suprema have the bits of bounding
    every sample by min(``cc_upper_batch``, ``certified_upper_cheap``), the
    former in one batch, and taking each cell's maximum.
    """
    v = space.algebra.vector(v)
    if np.any(np.abs(v[space.d1:]) > 0):
        raise InputError("spread direction must lie in layer 1")
    if samples < 1:
        raise InputError(f"samples must be positive, got {samples!r}")
    rng = np.random.default_rng(seed)
    cells = [(eps, t) for eps in epsilon_grid for t in t_grid]
    if not cells:
        raise InputError("epsilon and t grids must be nonempty")
    ends = np.concatenate([
        sample_end(space, BoxSpec(center=np.zeros(space.algebra.dim),
                                  direction=t * v, epsilon=t * eps),
                   samples, rng)
        for eps, t in cells
    ])
    legs = np.repeat([float(t) for _, t in cells], samples)[:, None] * v
    points = space.group.conjugate(legs, ends)
    sups, floored = cc_upper_max(space, points.reshape(len(cells), samples, -1),
                                 budget=MEMBERSHIP_BUDGET, seed=seed + 1)
    rows = [(float(eps), float(t), float(sup), float(sup) / float(t))
            for (eps, t), sup in zip(cells, sups)]
    stopped = int(np.sum(floored))
    return SpreadReport(rows=rows, samples=samples, seed=seed,
                        rows_to_end=floored.size - stopped,
                        rows_floored=stopped)

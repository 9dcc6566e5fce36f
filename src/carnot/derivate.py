"""Lower and upper derivates of distances Lipschitz with respect to d_cc.

The derivate of d at x along a layer-1 direction v is the limiting
behaviour of the quotients d(y, y h_t e^v)/t over y near x.  The limits
are realized as sampled extremes over certified CC balls on a geometric
t-grid, extrapolated by a tail fit; reports carry both the raw per-t
data and the fit so the estimator is auditable.

Also here: the certified ball sampler and the spread estimate
quantifying how a box's end stays together under the flow.  The End/Box
samplers live in ``measure`` and are re-exported here.

Each lab draws all of its samples first, in the order of a per-level
loop, and evaluates the distance once on the whole set, so the path
solver's and the ladder's fixed costs are paid once per call.  The ball
sampler draws its candidates in blocks of tries and runs the ladder only
on those the certified lower bound keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, LipschitzViolation
from .metric import (
    CCSpace,
    cc_upper_batch,
    lower_bounds_batch,
    riemannian_upper_batch,
)
from .measure import (
    MEMBERSHIP_BUDGET,
    BoxSpec,
    certified_upper_cheap,
    enclosing_box_halfwidths,
    sample_box,
    sample_end,
)


# -- Lipschitz distance functions ------------------------------------------


@dataclass
class LipschitzDistance:
    """A two-point distance function declared L-Lipschitz against d_cc.

    ``evaluator`` maps two (B, n) coordinate arrays to (B,) nonnegative
    reals and must be pure.  The declared constant is a contract checked
    by ``validate`` and during derivate sampling, not a derived fact.
    """

    name: str
    evaluator: object
    L: float
    tol: float = 1e-9

    def __call__(self, xs, ys):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        return np.asarray(self.evaluator(xs, ys), dtype=float)

    def validate(self, space: CCSpace, samples=64, seed=0, scale=1.0):
        """Check symmetry, triangle inequality, Lipschitz bound on samples.

        Raises LipschitzViolation naming the first offending pair.
        """
        rng = np.random.default_rng(seed)
        n = space.algebra.dim
        xs = scale * rng.standard_normal((samples, n))
        ys = scale * rng.standard_normal((samples, n))
        zs = scale * rng.standard_normal((samples, n))
        dxy = self(xs, ys)
        dyx = self(ys, xs)
        bad = np.abs(dxy - dyx) > self.tol * (1 + np.abs(dxy))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise LipschitzViolation(
                f"{self.name}: symmetry violated, d(x,y)={dxy[i]} "
                f"d(y,x)={dyx[i]}", pair=(xs[i], ys[i]),
            )
        dxz = self(xs, zs)
        dzy = self(zs, ys)
        bad = dxy > dxz + dzy + 1e-9 * (1 + dxy)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise LipschitzViolation(
                f"{self.name}: triangle inequality violated by "
                f"{dxy[i] - dxz[i] - dzy[i]}", pair=(xs[i], ys[i]),
            )
        deltas = space.group.bch(-xs, ys)
        cc_up = certified_upper_cheap(space, deltas)
        bad = dxy > self.L * cc_up + self.tol
        if np.any(bad):
            i = int(np.argmax(bad))
            raise LipschitzViolation(
                f"{self.name}: Lipschitz bound violated, d={dxy[i]} > "
                f"{self.L} * {cc_up[i]}", pair=(xs[i], ys[i]),
            )
        return True


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


def cc_distance(space: CCSpace, ballbox=None, budget=None, seed=0,
                use="midpoint") -> LipschitzDistance:
    """d_cc itself as a LipschitzDistance (L = 1).

    ``use`` picks the reported value from the certified bracket:
    "midpoint" (default), "upper", or "lower".
    """
    if budget is None:
        budget = MEMBERSHIP_BUDGET
    if use not in ("midpoint", "upper", "lower"):
        raise InputError(f"unknown cc_distance mode {use!r}")

    def evaluator(xs, ys):
        deltas = _canonical_deltas(space, xs, ys)
        lower, _ = lower_bounds_batch(space, deltas, ballbox)
        if use == "lower":
            return lower
        upper, _ = cc_upper_batch(space, deltas, budget=budget, seed=seed)
        upper = np.minimum(upper, certified_upper_cheap(space, deltas))
        if use == "upper":
            return upper
        return 0.5 * (np.minimum(lower, upper) + upper)

    return LipschitzDistance(name=f"cc-{use}", evaluator=evaluator, L=1.0,
                             tol=1e-6)


def riemannian_distance(space: CCSpace, budget=None) -> LipschitzDistance:
    """Distance of the left-invariant Riemannian completion (L = 1).

    Approximate from above by optimized broken paths; 1-Lipschitz against
    d_cc since horizontal paths keep their length in the completion.
    """

    def evaluator(xs, ys):
        deltas = _canonical_deltas(space, xs, ys)
        return riemannian_upper_batch(space, deltas, budget=budget)

    return LipschitzDistance(name="riemannian", evaluator=evaluator, L=1.0,
                             tol=1e-6)


def snowflake_distance(space: CCSpace, ballbox=None, budget=None,
                       seed=0) -> LipschitzDistance:
    """Negative control: sqrt of d_cc with a (false) declared L = 1.

    A snowflaked metric is not Lipschitz against d_cc at small scales;
    validation and derivate sampling detect this and raise.
    """
    base = cc_distance(space, ballbox=ballbox, budget=budget, seed=seed)

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


def sample_ball(space: CCSpace, center, radius, count, rng, ballbox,
                max_tries=200):
    """Rejection samples from the certified CC ball B(center, radius).

    Candidates are uniform in the enclosing box (of the certified
    per-layer constants, or of ``ballbox`` when one is given) and
    accepted when the cheap certified upper bound is below the radius,
    so every returned point genuinely lies in the ball (the sample leans
    inward).  A try draws max(4 count, 256) candidates; at most
    ``max_tries`` tries are made.

    Tries are drawn in blocks with one ``rng.uniform`` call: the block
    doubles while nothing is accepted, then is sized from the acceptance
    rate so far.  Only candidates whose certified lower bound is within
    the radius reach the ladder; the lower bound is below the cheap upper
    one, so this rejects no member.  Points are taken in try order and
    the generator is rewound to the end of the last try used, so both
    the points and ``rng``'s state afterwards are those of drawing and
    testing one try at a time.
    """
    center = space.algebra.vector(center)
    half = enclosing_box_halfwidths(space, ballbox, radius)
    per_try, dim = max(4 * count, 256), space.algebra.dim
    out = []
    have = tries = 0
    block = 1
    while have < count and tries < max_tries:
        block = min(block, max_tries - tries)
        state = rng.bit_generator.state
        cand = rng.uniform(-1.0, 1.0, (block * per_try, dim)) * half
        rows = np.flatnonzero(lower_bounds_batch(space, cand)[0] <= radius)
        rows = rows[certified_upper_cheap(space, cand[rows]) <= radius]
        rows = rows[: count - have]
        out.append(cand[rows])
        have += len(rows)
        used = block if have < count else int(rows[-1]) // per_try + 1
        if used < block:  # rewind to the end of the last try used
            rng.bit_generator.state = state
            rng.uniform(-1.0, 1.0, (used * per_try, dim))
        tries += used
        block = (2 * block if not have
                 else math.ceil(1.5 * (count - have) * tries / have))
    if have < count:
        raise InputError(
            f"ball rejection sampling starved at radius {radius}"
        )
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
    return grid[grid >= 1e-5]


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
    Every level is sampled first, in descending t from one generator,
    and d is evaluated once on all the pairs; the Lipschitz check then
    runs level by level, so the first violation found is at the largest
    violating t.
    """
    x = space.algebra.vector(x)
    v = space.algebra.vector(v)
    if np.any(np.abs(v[space.d1:]) > 0):
        raise InputError("derivate direction must lie in layer 1")
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(sorted(t_grid, reverse=True), dtype=float)
    if np.any(t_grid < 1e-5):
        raise InputError("t grid entries must stay above 1e-5")
    vnorm = float(space.metric.norm(v[: space.d1]))
    rng = np.random.default_rng(seed)
    ys = np.concatenate([sample_ball(space, x, t, samples_per_t, rng, ballbox)
                         for t in t_grid])
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


def check_homogeneity(base: DerivateEstimate, scaled: dict) -> dict:
    """Residuals of rho(x, tau v) = |tau| rho(x, v) across a tau map.

    ``scaled`` maps tau to the DerivateEstimate for direction tau*v.
    Also reports the symmetry residual at tau = -1 when present.
    """
    rho_base = 0.5 * (base.rho_lower + base.rho_upper)
    report = {"base_rho": rho_base, "residuals": {}}
    for tau, est in scaled.items():
        rho = 0.5 * (est.rho_lower + est.rho_upper)
        report["residuals"][tau] = abs(rho - abs(tau) * rho_base)
    if -1 in scaled:
        est = scaled[-1]
        rho = 0.5 * (est.rho_lower + est.rho_upper)
        report["symmetry_residual"] = abs(rho - rho_base)
    return report


# -- spread ----------------------------------------------------------------


@dataclass
class SpreadReport:
    """Empirical sup of the flowed end-set spread, per (epsilon, t)."""

    rows: list  # (epsilon, t, sup_distance, sup_over_t)
    samples: int
    seed: int

    def sup_over_t(self, epsilon):
        return [(t, s) for e, t, _, s in self.rows if e == epsilon]

    def c_of_epsilon(self):
        """Mean of sup/t across the t-grid, per epsilon (decreasing)."""
        eps = sorted({r[0] for r in self.rows}, reverse=True)
        return [(e, float(np.mean([r[3] for r in self.rows if r[0] == e])))
                for e in eps]


def spread_estimate(space: CCSpace, v, epsilon_grid, t_grid, samples=64,
                    seed=0, budget=None) -> SpreadReport:
    """sup over z in End(y, tv, t eps) of d_cc(y h_t e^v, z h_t e^v) / t.

    By left invariance the base y drops out; the distance reduces to
    d_cc(e^0, (h_t e^v)^{-1} z' h_t e^v) with z' the end displacement, so
    each cell is a batch of certified upper bounds on conjugated points.
    The cells' ends are drawn in (epsilon, t) order from one generator
    and bounded together in one ``cc_upper_batch`` call.
    """
    v = space.algebra.vector(v)
    if np.any(np.abs(v[space.d1:]) > 0):
        raise InputError("spread direction must lie in layer 1")
    if budget is None:
        budget = MEMBERSHIP_BUDGET
    rng = np.random.default_rng(seed)
    cells = [(eps, t) for eps in epsilon_grid for t in t_grid]
    ends = np.concatenate([
        sample_end(space, BoxSpec(center=np.zeros(space.algebra.dim),
                                  direction=t * v, epsilon=t * eps),
                   samples, rng)
        for eps, t in cells
    ])
    legs = np.repeat([float(t) for _, t in cells], samples)[:, None] * v
    upper, _ = cc_upper_batch(space, space.group.conjugate(legs, ends),
                              budget=budget, seed=seed + 1)
    sups = np.max(upper.reshape(len(cells), samples), axis=1)
    rows = [(float(eps), float(t), float(sup), float(sup) / float(t))
            for (eps, t), sup in zip(cells, sups)]
    return SpreadReport(rows=rows, samples=samples, seed=seed)

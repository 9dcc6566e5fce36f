"""Divergence of radial-geodesic pairs versus curvature model spaces.

A pair of radial geodesics gamma_1(t) = h_t e^v and gamma_2(t) =
e^w h_t e^v in a Carnot group diverges like t^alpha with 0 < alpha < 1
whenever [v, w] != 0; in a CAT(0) or CBB(0) space, geodesic pairs either
stay bounded or diverge linearly.  Witnessing a strictly fractional
exponent therefore obstructs embeddings that send radial geodesics to
geodesics.  The measured profile carries certified two-sided distance
bounds; model spaces use closed-form distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, OptimizerFailure
from .metric import CCSpace, OptimizerBudget, cc_upper_batch, lower_bounds_batch


def default_t_grid(t_max=128.0):
    """Geometric grid of ratio sqrt(2) from 1 up to t_max."""
    if not 2 <= t_max < np.inf:
        raise InputError("divergence grid needs a finite t_max >= 2")
    levels = int(np.floor(2 * np.log2(t_max))) + 1
    return np.sqrt(2.0) ** np.arange(levels)


@dataclass
class GeodesicPair:
    """The pair gamma_1(t) = h_t e^v, gamma_2(t) = e^w h_t e^v."""

    v: np.ndarray  # layer-1 direction, full coordinates
    w: np.ndarray  # any algebra vector
    t_grid: np.ndarray = None

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.t_grid is None:
            self.t_grid = default_t_grid()
        self.t_grid = np.asarray(sorted(self.t_grid), dtype=float)
        if np.any(np.abs(self.t_grid) < 1.0):
            raise InputError("divergence times need |t| >= 1")


def displacement(space: CCSpace, pair: GeodesicPair, t):
    """(h_t e^v)^{-1} (e^w h_t e^v), exactly, via the group law."""
    g = space.group
    leg = g.dilate(t, pair.v)
    return g.bch(g.bch(-leg, pair.w), leg)


@dataclass
class DivergenceFit:
    """Bracketed divergence profile with exponent fit and sandwich check."""

    rows: list  # (t, f_lower, f_upper)
    exponent: float
    alpha: float = None
    beta: float = None
    C1: float = None
    C2: float = None
    classification: str = "power"
    complete: bool = True
    label: str = ""

    def sandwich_holds(self):
        """Pointwise C1 t^alpha <= f_lower and f_upper <= C2 t^beta."""
        if self.alpha is None or self.beta is None:
            return False
        for t, lo, hi in self.rows:
            if self.C1 * t**self.alpha > lo * (1 + 1e-12):
                return False
            if hi > self.C2 * t**self.beta * (1 + 1e-12):
                return False
        return True

    def as_dict(self):
        return {
            "label": self.label,
            "rows": [list(r) for r in self.rows],
            "exponent": self.exponent,
            "alpha": self.alpha,
            "beta": self.beta,
            "C1": self.C1,
            "C2": self.C2,
            "classification": self.classification,
            "complete": self.complete,
        }


def _fit_exponent(ts, mids):
    slope, _ = np.polyfit(np.log(ts), np.log(mids), 1)
    return float(slope)


def _sandwich(rows, exponent):
    """Largest alpha and smallest beta in (0,1) bracketing the exponent.

    Both are multiples of 0.01.  Constants follow the grid-relative
    min/max convention: C1 = min f_lower / t^alpha, C2 = max f_upper /
    t^beta.
    """
    candidates = np.round(np.arange(0.01, 1.0, 0.01), 10)
    alphas = candidates[candidates < exponent]
    betas = candidates[candidates > exponent]
    if len(alphas) == 0 or len(betas) == 0:
        return None, None, None, None
    alpha = float(alphas[-1])
    beta = float(betas[0])
    ts = np.array([r[0] for r in rows])
    lo = np.array([r[1] for r in rows])
    hi = np.array([r[2] for r in rows])
    if np.any(lo <= 0):
        return None, None, None, None
    C1 = float(np.min(lo / ts**alpha))
    C2 = float(np.max(hi / ts**beta))
    return alpha, beta, C1, C2


def divergence_profile(space: CCSpace, pair: GeodesicPair, budget=None,
                       ballbox=None, seed=0) -> DivergenceFit:
    """Certified-bracket divergence profile of a radial geodesic pair.

    f(t) = d_cc(gamma_1(t), gamma_2(t)) is bracketed per grid time by the
    combined lower bound and ``cc_upper_batch``'s certified upper bound of
    the exactly reduced displacement, never above its straight segment's;
    the exponent fits the bracket midpoints.
    """
    if budget is None:
        budget = OptimizerBudget(segments=12, starts=2)
    # h_t scales layer k by t^k, so t^step must be finite on the grid
    step = space.algebra.num_layers
    if np.max(np.abs(pair.t_grid)) > np.finfo(float).max ** (1.0 / step):
        raise InputError(f"divergence times need a finite |t|^{step}")
    disp = np.stack([displacement(space, pair, t) for t in pair.t_grid])
    lower = lower_bounds_batch(space, disp, ballbox)
    try:
        upper, _ = cc_upper_batch(space, disp, budget=budget, seed=seed)
    except OptimizerFailure:
        upper = np.full(len(pair.t_grid), np.inf)
    rows = [(float(t), float(lo), float(hi))
            for t, lo, hi in zip(pair.t_grid, lower, upper)]
    if np.any(~np.isfinite(upper)):
        return DivergenceFit(rows=rows, exponent=np.nan, complete=False,
                             label="carnot")
    mids = 0.5 * (np.minimum(lower, upper) + upper)
    if np.any(mids <= 0):
        exponent = 0.0
    else:
        exponent = _fit_exponent(pair.t_grid, mids)
    alpha, beta, C1, C2 = _sandwich(rows, exponent)
    classification = "power"
    if exponent <= 0.05:
        classification = "bounded"
    elif exponent >= 0.95:
        classification = "linear"
    return DivergenceFit(rows=rows, exponent=exponent, alpha=alpha,
                         beta=beta, C1=C1, C2=C2,
                         classification=classification, complete=True,
                         label="carnot")


# -- model spaces ----------------------------------------------------------


class ModelSpace:
    """Two-dimensional (or Euclidean n-dim) constant-curvature model.

    Distances and geodesics are closed forms; curvature kappa < 0 gives
    the hyperboloid model, kappa > 0 the round sphere of radius
    1/sqrt(kappa), kappa = 0 Euclidean space.
    """

    def __init__(self, kind, dim=2, kappa=0.0):
        if kind not in ("euclidean", "hyperbolic", "sphere"):
            raise InputError(f"unknown model space kind {kind!r}")
        if kind == "hyperbolic" and kappa >= 0:
            raise InputError("hyperbolic model needs kappa < 0")
        if kind == "sphere" and kappa <= 0:
            raise InputError("sphere model needs kappa > 0")
        if kind != "euclidean":
            dim = 2
        self.kind = kind
        self.dim = dim
        self.kappa = float(kappa)

    def origin(self):
        if self.kind == "euclidean":
            return np.zeros(self.dim)
        if self.kind == "hyperbolic":
            return np.array([1.0, 0.0, 0.0])  # hyperboloid apex
        return np.array([1.0, 0.0, 0.0])  # sphere, unit-radius chart

    def geodesic(self, base, direction, t):
        """Unit-speed geodesic from base with initial direction, at time t."""
        base = np.asarray(base, dtype=float)
        u = np.asarray(direction, dtype=float)
        t = np.asarray(t, dtype=float)[..., None]
        if self.kind == "euclidean":
            u = u / np.linalg.norm(u)
            return base + t * u
        if self.kind == "hyperbolic":
            s = np.sqrt(-self.kappa)
            # u tangent at base in Minkowski sense, normalized; extended
            # precision keeps cosh from overflowing on long rays
            u = u / np.sqrt(max(self._mink(u, u), 1e-300))
            t = t.astype(np.longdouble)
            return (np.cosh(s * t) * base.astype(np.longdouble)
                    + np.sinh(s * t) * u.astype(np.longdouble))
        s = np.sqrt(self.kappa)
        u = u / np.linalg.norm(u)
        return np.cos(s * t) * base + np.sin(s * t) * u

    @staticmethod
    def _mink(a, b):
        return -a[..., 0] * b[..., 0] + np.sum(a[..., 1:] * b[..., 1:],
                                               axis=-1)

    def distance(self, p, q):
        # keep extended precision if the caller supplied it (hyperbolic)
        p = np.asarray(p)
        q = np.asarray(q)
        if self.kind == "euclidean":
            return np.linalg.norm(p - q, axis=-1)
        if self.kind == "hyperbolic":
            s = np.sqrt(-self.kappa)
            p = p.astype(np.longdouble)
            q = q.astype(np.longdouble)
            c = np.clip(-self._mink(p, q), 1.0, None)
            # arccosh(c) = log(2c) up to 1/(4c^2) once c is large
            big = c > 1e18
            out = np.where(
                big, np.log(2.0 * c), np.arccosh(np.where(big, 2.0, c))
            )
            return (out / s).astype(float)
        s = np.sqrt(self.kappa)
        c = np.clip(np.sum(p * q, axis=-1), -1.0, 1.0)
        return np.arccos(c) / s


@dataclass
class ModelLine:
    """A geodesic line in a model space: basepoint plus direction."""

    basepoint: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        self.basepoint = np.asarray(self.basepoint, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)


def model_divergence(model: ModelSpace, line1: ModelLine,
                     line2: ModelLine) -> DivergenceFit:
    """Exact divergence of two model-space geodesics, classified.

    Classification compares the tail slope of f(t)/t against the
    threshold 0.01: above it the pair diverges linearly, otherwise it is
    bounded, which is the full dichotomy in the flat and curved models
    used here.  Closed forms are free to evaluate, so the grid is
    ``default_t_grid(t_max=1024.0)``, far enough that bounded pairs fall
    under the threshold.
    """
    t_grid = default_t_grid(t_max=1024.0)
    p1 = model.geodesic(line1.basepoint, line1.direction, t_grid)
    p2 = model.geodesic(line2.basepoint, line2.direction, t_grid)
    f = model.distance(p1, p2)
    rows = [(float(t), float(d), float(d)) for t, d in zip(t_grid, f)]
    # tail slope f(t)/t averaged over the last quarter of the grid
    k = max(2, len(t_grid) // 4)
    slope = float(np.mean(f[-k:] / t_grid[-k:]))
    classification = "linear" if slope > 0.01 else "bounded"
    exponent = 1.0 if classification == "linear" else 0.0
    fit = DivergenceFit(rows=rows, exponent=exponent,
                        classification=classification, complete=True,
                        label=f"model-{model.kind}")
    return fit


def obstruction_report(carnot_fit: DivergenceFit, model_fits,
                       margin=0.1) -> dict:
    """Verdict on the embedding obstruction.

    "obstruction witnessed" requires the Carnot exponent strictly inside
    (margin, 1 - margin) with a verified sandwich, and every model fit
    classified bounded or linear; anything else is "inconclusive".
    """
    diagnostics = {
        "carnot_exponent": carnot_fit.exponent,
        "carnot_complete": carnot_fit.complete,
        "margin": margin,
        "models": {
            f.label: f.classification for f in model_fits
        },
    }
    if not carnot_fit.complete or not np.isfinite(carnot_fit.exponent):
        return {"verdict": "inconclusive",
                "reason": "carnot profile incomplete", **diagnostics}
    if not (margin < carnot_fit.exponent < 1 - margin):
        return {"verdict": "inconclusive",
                "reason": "carnot exponent not strictly fractional",
                **diagnostics}
    if not carnot_fit.sandwich_holds():
        return {"verdict": "inconclusive",
                "reason": "sandwich bounds not verified", **diagnostics}
    bad = [f.label for f in model_fits
           if f.classification not in ("bounded", "linear")]
    if bad:
        return {"verdict": "inconclusive",
                "reason": f"model fits outside dichotomy: {bad}",
                **diagnostics}
    return {"verdict": "obstruction witnessed", **diagnostics}

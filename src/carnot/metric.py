"""Carnot-Caratheodory distance estimation with certified two-sided bounds.

Upper bounds come from optimized horizontal paths with piecewise-constant
left-invariant controls; a piecewise-constant path integrates exactly
through the group product, so the only approximation is the optimizer's
endpoint defect, which an explicit commutator-ladder path closes exactly,
its length added to the bound.  The optimizer minimizes path energy
subject to reaching the target: on groups of step >= 3 a short L-BFGS-B
warm stage on energy plus a penalty on the endpoint misfit, then on every
group Gauss-Newton projection onto the endpoint constraint and feasible
SQP per row, whose stationary rows are the discrete normal extremals.
The misfit's gradient and the endpoint's Jacobian are pulled back layer
by layer: a covector with no content above layer 2 pulls back in closed
form, against the layer-2 structure constants, and only the others go
through the closed-form derivative of the product (``group.row_series``),
so on a step-2 group none does.  A row with no feasible optimized start
falls back to the straight segment plus its ladder closure.  Stopping is
a rule per row: the closure moves only the rows still off their targets,
and given a radius a row stops as soon as it has a projected path no
longer than it, which is all that ball membership asks.  The path's
prefix products are formed layer by layer: layers 1 and 2 telescope into
prefix sums, higher layers come from one product call per block of steps.

Lower bounds come from the 1-Lipschitz abelianization quotient (exact)
and from certified per-layer constants K_k with |layer_k| <= K_k d_cc^k
(``LayerBounds``): Dido's inequality on the step-2 quotient for layer 2,
the factorial decay of a path's signature for layers >= 3.  An
empirically calibrated ball-box constant can be passed on top; it is
labelled "calibrated" wherever it is reported.  The calibration is a
branch and bound over its samples: a sample's ratio is at most its
ceiling against the certified lower bound, and only the samples whose
ceiling exceeds the best ratio so far are optimized, each from the start
the whole batch draws for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .algebra import GradedAlgebra
from .errors import CalibrationError, InputError, OptimizerFailure, UnreachableError
from .group import CarnotGroup, row_series

# Coordinate residual below which an endpoint counts as exact.
EXACT_TOL = 1e-12
# Targets optimized together in one batch.
CHUNK = 32768
# Rows of one ``bch`` call forming the prefix products of a 3-layer
# group.  Blocks of every step (q = m) against this cap, Engel at
# m = 12, 1 BLAS thread, A/A spread <= 3%: the prefix products take 0.99x
# the cap's time at B = 2 and 32 and 0.70x at B = 100, but 1.26x at
# B = 300 and 2.42x at B = 1000; the endpoint Jacobian 0.98x, 1.01x,
# 0.92x, 1.02x and 1.16x.
BLOCK_ROWS = 512
# The path optimizer: iterations of the warm penalty stage (groups of step
# >= 3 only), the projection onto the endpoint constraint (tolerance
# relative to 1 + |target|, and Gauss-Newton steps allowed), and the SQP's
# stopping and line-search constants (``_sqp``).
WARM_ITER = 30
PROJECT_TOL = 1e-13
PROJECT_STEPS = 20
TRIAL_STEPS = 4
HALVINGS = 8
ARMIJO = 1e-4
DECREASE_TOL = 1e-14
# A calibration sample is left unbounded only once its ceiling is below the
# best ratio by more than this, relative.  Ratio and ceiling share their
# numerator, and a computed upper bound may read below an exact lower bound
# (|z_1| on the abelian group, where every ceiling is 1) by roundoff or by
# the residual a path is accepted at, 1e-9 (1 + |target|) at unit scale.
CEILING_SLACK = 1e-8


class HorizontalMetric:
    """Inner product on the layer-1 coordinates."""

    def __init__(self, gram):
        gram = np.array(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise InputError("gram matrix must be square")
        if np.max(np.abs(gram - gram.T)) > 1e-12 * max(1.0, np.max(np.abs(gram))):
            raise InputError("gram matrix must be symmetric")
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 0:
            raise InputError("gram matrix must be positive definite")
        self.gram = gram
        self.gram.setflags(write=False)
        self.min_eig = float(eigs[0])

    @classmethod
    def standard(cls, d1):
        return cls(np.eye(d1))

    @property
    def d1(self):
        return self.gram.shape[0]

    def norm(self, u):
        u = np.asarray(u, dtype=float)
        return np.sqrt(self.inner(u, u))

    def inner(self, u, v):
        return np.einsum("...i,...i->...", u @ self.gram, v)


def _euclid(v):
    return np.linalg.norm(v, axis=-1)


def _unsquared(norm, v):
    """norm(v) per row; a finite row whose squares overflow is scaled by
    its largest coordinate first, and the others keep their bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(norm(v))
    big = np.isinf(out)
    if np.any(big):  # the finite rows among them, looked for only then
        big = big & np.all(np.isfinite(v), axis=-1)
    if np.any(big):
        scale = np.max(np.abs(v[big]), axis=-1, keepdims=True)
        out[big] = scale[:, 0] * norm(v[big] / scale)
    return out


class CCSpace:
    """A Carnot group together with a horizontal metric."""

    def __init__(self, algebra, metric=None):
        if isinstance(algebra, CarnotGroup):
            self.group = algebra
        elif isinstance(algebra, GradedAlgebra):
            self.group = CarnotGroup(algebra)
        else:
            raise InputError(f"expected GradedAlgebra or CarnotGroup, got {algebra!r}")
        self.algebra = self.group.algebra
        d1 = self.algebra.layer_dims[0]
        if metric is None:
            metric = HorizontalMetric.standard(d1)
        if metric.d1 != d1:
            raise InputError(
                f"metric dimension {metric.d1} != layer-1 dimension {d1}"
            )
        self.metric = metric
        self._ladder = None
        self._layer_bounds = None

    @property
    def d1(self):
        return self.algebra.layer_dims[0]

    def embed_horizontal(self, u):
        """Lift layer-1 coordinates to full exponential coordinates."""
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1] + (self.algebra.dim,))
        out[..., : self.d1] = u
        return out

    def horizontal_part(self, x):
        return self.algebra.vector(x)[..., : self.d1]

    def layer_norms(self, x):
        """Per-layer norms (metric norm on layer 1, Euclidean above)."""
        x, a = self.algebra.vector(x), self.algebra
        return np.stack([_unsquared(_euclid if i > 1 else self.metric.norm,
                                    x[..., a.layer_slice(i)])
                         for i in range(1, a.num_layers + 1)], axis=-1)

    def homogeneous_norm(self, x):
        """sum_i |x_i|^(1/i), the layer-weighted coordinate norm."""
        norms = self.layer_norms(x)
        exps = 1.0 / np.arange(1, self.algebra.num_layers + 1)
        return np.sum(norms ** exps, axis=-1)

    def ladder(self):
        if self._ladder is None:
            self._ladder = LadderPlan(self)
        return self._ladder

    def layer_bounds(self):
        if self._layer_bounds is None:
            self._layer_bounds = LayerBounds.of(self)
        return self._layer_bounds


# -- horizontal paths ------------------------------------------------------


@dataclass
class ControlPath:
    """Piecewise-constant horizontal control sequence.

    Segment j flows for ``durations[j]`` along the left-invariant field
    with layer-1 value ``controls[j]``; the endpoint is the basepoint
    left-multiplied by the exact product of the segment exponentials.
    """

    durations: np.ndarray  # (m,)
    controls: np.ndarray   # (m, d1)
    basepoint: np.ndarray  # (n,)

    def __post_init__(self):
        self.durations = np.atleast_1d(np.asarray(self.durations, dtype=float))
        controls = np.asarray(self.controls, dtype=float)
        if len(self.durations) == 0:
            controls = controls.reshape(0, controls.shape[-1]
                                        if controls.ndim else 0)
        else:
            controls = controls.reshape(len(self.durations), -1)
        self.controls = controls
        self.basepoint = np.asarray(self.basepoint, dtype=float)
        if np.any(self.durations < 0):
            raise InputError("segment durations must be positive")

    @property
    def num_segments(self):
        return len(self.durations)

    def length(self, space: CCSpace):
        if self.num_segments == 0:
            return 0.0
        return float(np.sum(self.durations * space.metric.norm(self.controls)))

    def endpoint(self, space: CCSpace):
        if self.num_segments == 0:
            return np.array(self.basepoint, dtype=float)
        disp = (self.durations[:, None] * self.controls)[None]
        return space.group.bch(self.basepoint,
                               path_endpoints_batch(space.group, disp)[0])

    def constant_speed(self):
        """Reparametrize to constant speed; endpoint and length unchanged.

        Each segment only depends on duration * control, so fixing the
        product and equalizing the speeds is a pure reparametrization.
        """
        if self.num_segments == 0:
            return self
        disp = self.durations[:, None] * self.controls
        sizes = np.linalg.norm(disp, axis=1)
        total = np.sum(sizes)
        if total == 0:
            return self
        new_dur = sizes / total * np.sum(self.durations)
        speeds = np.where(new_dur > 0, 1.0 / np.where(new_dur > 0, new_dur, 1.0), 0.0)
        new_controls = disp * speeds[:, None]
        keep = new_dur > 0
        return ControlPath(new_dur[keep], new_controls[keep], self.basepoint)

# -- certified lower bounds ------------------------------------------------


def cc_lower_abelian(space: CCSpace, x, y):
    """|pi_1(x^{-1} y)|: exact lower bound from the 1-Lipschitz quotient."""
    delta = space.group.difference(x, y)
    return float(space.metric.norm(space.horizontal_part(delta)))


@dataclass
class BallBoxConstant:
    """Empirically calibrated constant A with sum_i |v_i|^{1/i} <= A d_cc.

    Calibrated against optimizer upper bounds, so only the safety margin
    keeps it valid; it is reported with the source "calibrated".
    """

    A: float
    samples: int
    seed: int
    safety: float
    max_ratio: float  # raw calibration maximum before the safety margin

    def as_dict(self):
        return {
            "A": self.A,
            "samples": self.samples,
            "seed": self.seed,
            "safety": self.safety,
            "max_ratio": self.max_ratio,
            "source": "calibrated",
        }


def cc_lower_ballbox(space: CCSpace, x, y, c: BallBoxConstant):
    """(1/A) sum_i |v_i|^{1/i} for v = x^{-1} y; empirically certified."""
    delta = space.group.difference(x, y)
    return float(space.homogeneous_norm(delta)) / c.A


def _log_signature_coeff(k):
    """[x^k] of -log(2 - e^x) = 2 a(k-1) / k!, a the ordered Bell numbers."""
    bell = [1]
    for n in range(1, k):
        bell.append(sum(math.comb(n, j) * bell[n - j]
                        for j in range(1, n + 1)))
    return 2 * bell[k - 1] / math.factorial(k)


@dataclass(frozen=True)
class LayerBounds:
    """Certified constants with |layer_k(g)| <= K_k d_cc(e^0, g)^k, k >= 2.

    Layer 2 ("dido"): the quotient by layers >= 3 is 1-Lipschitz and keeps
    layers 1 and 2, where <w, z_2> is the J_w-weighted area between the
    path and its chord, so Dido's inequality gives |z_2| <= max_w |J_w|
    L^2 / (2 pi), J_w = sum_l w_l c[:d1, :d1, l]; the flattened structure
    constants' spectral norm bounds max_w |J_w| (equal when d2 = 1).
    Layers k >= 3 ("signature"): the path's signature has levels of norm
    <= L^j / j!, so its log has level k of norm <= c_k L^k with
    c_k = [x^k](-log(2 - e^x)), and the endpoint's layer k is T_k of that
    level, T_k(e_w) = (1/k) [X_w1, [..., X_wk]].  Euclidean lengths are at
    most CC lengths over sqrt(min_eig), hence the factor min_eig^(-k/2).
    """

    K: tuple        # K[i] bounds layer i + 2
    sources: tuple  # "dido" or "signature", per layer

    @classmethod
    def of(cls, space: CCSpace):
        a, d1 = space.algebra, space.d1
        K, sources = [], []
        for k in range(2, a.num_layers + 1):
            sl = a.layer_slice(k)
            if k == 2:
                flat = a.structure[:d1, :d1, sl].reshape(d1, -1)
                const, source = np.linalg.norm(flat, 2) / (2 * np.pi), "dido"
            else:
                cols = [_left_normed_bracket(a, w)[sl] / k
                        for w in np.ndindex(*([d1] * k))]
                const = (np.linalg.norm(np.array(cols).T, 2)
                         * _log_signature_coeff(k))
                source = "signature"
            K.append(float(const) / space.metric.min_eig ** (k / 2))
            sources.append(source)
        return cls(tuple(K), tuple(sources))

    def as_dict(self):
        return {f"layer{k}": {"K": K, "source": source}
                for k, (K, source) in enumerate(zip(self.K, self.sources),
                                                start=2)}


def lower_bounds_batch(space: CCSpace, deltas, ballbox=None):
    """Lower bounds of d_cc(e^0, delta) for displacement coords (B, n).

    The largest of the abelianization bound, the certified per-layer
    bounds (|z_k| / K_k)^(1/k) and, when a calibrated constant is given,
    (1/A) sum_k |z_k|^(1/k).  ``method`` names the largest per row:
    "abelianization", "dido", "signature" or "ball-box".
    """
    norms = space.layer_norms(deltas)
    bounds = space.layer_bounds()
    terms, labels = [norms[..., 0]], ["abelianization"]
    for k, (K, source) in enumerate(zip(bounds.K, bounds.sources), start=2):
        if K > 0:
            terms.append((norms[..., k - 1] / K) ** (1.0 / k))
            labels.append(source)
    if ballbox is not None:
        terms.append(space.homogeneous_norm(deltas) / ballbox.A)
        labels.append("ball-box")
    terms = np.stack(terms, axis=-1)
    best = np.argmax(terms, axis=-1)
    lower = np.take_along_axis(terms, best[..., None], axis=-1)[..., 0]
    return lower, np.array(labels)[best]


# -- commutator-ladder closure --------------------------------------------


def _left_normed_bracket(algebra, word):
    val = algebra.basis_vector(word[-1])
    for i in word[-2::-1]:
        val = algebra.bracket(algebra.basis_vector(i), val)
    return val


def _loop_letters(word):
    """Flatten a nested group commutator for a left-normed bracket word.

    Returns a list of (letter, sign, outer) triples; ``outer`` marks the
    two segments whose sign is flipped to negate the realized bracket.
    """
    if len(word) == 1:
        return [(word[0], 1.0, True)]
    inner = _loop_letters(word[1:])
    head = [(word[0], 1.0, True)]
    inv = lambda seq: [(l, -s, o) for l, s, o in reversed(seq)]
    inner_fixed = [(l, s, False) for l, s, _ in inner]
    return (
        head
        + inner_fixed
        + inv(head)
        + inv(inner_fixed)
    )


class LadderPlan:
    """Precomputed horizontal loop recipes closing each layer exactly.

    For layer p >= 2, a spanning set of left-normed bracket words of
    layer-1 basis directions is selected and pseudo-inverted, so any
    layer-p defect decomposes into word coefficients; each word is
    realized by a nested group-commutator loop at per-defect scale.
    """

    def __init__(self, space: CCSpace):
        algebra = space.algebra
        d1 = space.d1
        self.space = space
        self.layers = {}
        for p in range(2, algebra.num_layers + 1):
            dp = algebra.layer_dims[p - 1]
            sl = algebra.layer_slice(p)
            words, columns = [], []
            rank = 0
            for word in np.ndindex(*([d1] * p)):
                vec = _left_normed_bracket(algebra, word)[sl]
                if np.max(np.abs(vec)) < 1e-12:
                    continue
                trial = columns + [vec]
                new_rank = np.linalg.matrix_rank(np.array(trial), tol=1e-10)
                if new_rank > rank:
                    words.append(tuple(int(i) for i in word))
                    columns.append(vec)
                    rank = new_rank
                if rank == dp:
                    break
            if rank < dp:
                raise UnreachableError(
                    f"{algebra.name}: layer {p} is not spanned by brackets of "
                    f"layer-1 basis directions"
                )
            mat = np.array(columns).T  # (dp, nwords)
            self.layers[p] = {
                "words": words,
                "pinv": np.linalg.pinv(mat),
                "letters": [_loop_letters(w) for w in words],
            }

    def loop_batch(self, p, coeffs):
        """Batched closing moves for layer-p defect coefficients (B, dp).

        Returns (controls, lengths): ``controls`` is a list of (B, d1)
        horizontal control displacements to append in order; ``lengths``
        the per-problem metric length added.
        """
        info = self.layers[p]
        lam = np.einsum("wd,...d->...w", info["pinv"], coeffs)
        scale = np.abs(lam) ** (1.0 / p)
        sign = np.sign(lam)
        sign[sign == 0] = 1.0
        controls = []
        batch = lam.shape[:-1]
        lengths = np.zeros(batch)
        d1 = self.space.d1
        for wi, letters in enumerate(info["letters"]):
            s = scale[..., wi]
            sg = sign[..., wi]
            for letter, base_sign, outer in letters:
                u = np.zeros(batch + (d1,))
                factor = s * base_sign * (sg if outer else 1.0)
                u[..., letter] = factor
                controls.append(u)
                lengths += s * float(
                    self.space.metric.norm(np.eye(d1)[letter])
                )
        return controls, lengths


def close_defect_batch(space: CCSpace, endpoints, targets, collect=False):
    """Exactly close endpoint defects with commutator-ladder moves, per row.

    ``endpoints`` and ``targets`` are (B, n) coordinate arrays.  Returns
    (extra_length, final_endpoints, residual, segments) where segments is
    the ordered list of appended (B, d1) control displacements (only if
    ``collect``).  A row is moved only while its residual exceeds
    ``EXACT_TOL`` (1 + |target|), for at most 60 passes: a row that
    meets it leaves with its residual and no added length, and its
    segments are zero from then on.  Moves are folded through the exact
    group product, so the remaining residual contracts superlinearly;
    for groups of step <= 3 a single pass is already exact up to
    roundoff.
    """
    group = space.group
    algebra = space.algebra
    endpoints = np.array(endpoints, dtype=float, ndmin=2)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    B = endpoints.shape[0]
    extra = np.zeros(B)
    segs = [] if collect else None
    plan = space.ladder()
    off = EXACT_TOL * (1.0 + _unsquared(_euclid, targets))
    defect = group.bch(-endpoints, targets)
    residual = _unsquared(_euclid, defect)
    live = np.flatnonzero(residual > off)
    for _ in range(60):
        if not len(live):
            break
        every = len(live) == B  # then no gather and no scatter
        rows = slice(None) if every else live
        ends, tg = endpoints[rows], targets[rows]
        moves = []
        # layer 1: one straight segment
        u1 = defect[rows, : space.d1]
        if np.any(u1):
            ends = group.bch(ends, space.embed_horizontal(u1))
            extra[rows] += space.metric.norm(u1)
            moves.append(u1)
        for p in range(2, algebra.num_layers + 1):
            coeffs = group.bch(-ends, tg)[:, algebra.layer_slice(p)]
            if not np.any(coeffs):
                continue
            controls, lengths = plan.loop_batch(p, coeffs)
            for u in controls:
                ends = group.bch(ends, space.embed_horizontal(u))
            extra[rows] += lengths
            moves.extend(controls)
        # the end-of-pass defect is the next pass's layer-1 move
        left = group.bch(-ends, tg)
        if every:
            endpoints, defect = ends, left
            residual = _unsquared(_euclid, left)
        else:
            endpoints[live], defect[live] = ends, left
            residual[live] = _unsquared(_euclid, left)
        if collect and every:
            segs.extend(moves)
        elif collect:
            for u in moves:
                segs.append(np.zeros((B, space.d1)))
                segs[-1][live] = u
        live = live[residual[live] > off[live]]
    return extra, endpoints, residual, segs


# -- the upper-bound optimizer --------------------------------------------


@dataclass
class OptimizerBudget:
    """Budget and tolerances for the horizontal path optimizer."""

    segments: int = 16
    starts: int = 4
    max_iter: int = 250
    penalty_init: float = 1e2
    gtol: float = 1e-12
    ftol: float = 1e-15

    def __post_init__(self):
        for name in ("segments", "starts", "max_iter"):
            if getattr(self, name) < 1:
                raise InputError(
                    f"{name} must be positive, got {getattr(self, name)!r}")

    def replace(self, **kw):
        d = self.__dict__.copy()
        d.update(kw)
        return OptimizerBudget(**d)


def _prefix_endpoints(group, controls):
    """Prefix products z_0 = 0, ..., z_m of a (B, m, d) control stack.

    Returns (B, m + 1, n); the controls drive the first d coordinates of
    the steps s_j.  The product is triangular in the layers, so each
    layer of every prefix can be formed from the layers below it: layer 1
    is the prefix sum of the s_{j,1}, layer 2 the telescoped sum of
    s_{j,2} + 1/2 [z_{j-1,1}, s_{j,1}], and layers >= 3 come from one
    ``bch`` call per block of q steps.  Layer 3 of a product needs only
    layers 1 and 2 of its factors, so on 3-layer groups a block spans up
    to ``BLOCK_ROWS`` rows; above that each step needs the complete
    previous prefix, and q = 1.  A block of one step forms every layer
    of its product, so with q = 1 nothing is telescoped.
    """
    B, m, d = controls.shape
    algebra = group.algebra
    dims, n = algebra.layer_dims, group.dim
    d1, top = dims[0], sum(dims[:2])  # layers 1 and 2 end at top
    # the block calls form the coordinates from `low` up, the telescoped
    # sums those below it
    if len(dims) < 3:
        q, low = m, n
    else:
        q = 1 if len(dims) > 3 else min(max(BLOCK_ROWS // B, 1), m)
        low = top if q > 1 else 0
    z = np.zeros((B, m + 1, n))
    cum = np.add.accumulate(controls[..., :low], axis=1)
    z[:, 1:, : cum.shape[-1]] = cum
    if low > d1:
        u = controls[..., :d1].reshape(-1, d1)
        kernel = group.table.layer2
        brackets = kernel.bracket(
            kernel.factor(cum[..., :d1].reshape(-1, d1) - u), u)
        layer2 = 0.5 * np.add.accumulate(brackets.reshape(B, m, -1), axis=1)
        if d > d1:
            layer2 += cum[..., d1:]
        z[:, 1:, d1:top] = layer2
    if low < n:
        steps = np.zeros((B, q, n))
        for j0 in range(0, m, q):
            k = min(q, m - j0)
            steps[:, :k, :d] = controls[:, j0:j0 + k]
            # the block's rows after z_{j0} hold no layers >= 3 yet, so
            # the layers >= 3 of their products are increments that add up
            ends = group.bch(z[:, j0:j0 + k].reshape(-1, n),
                             steps[:, :k].reshape(-1, n))
            if k > 1:
                np.add.accumulate(ends.reshape(B, k, n)[..., low:], axis=1,
                                  out=z[:, j0 + 1:j0 + k + 1, low:])
            else:
                z[:, j0 + 1, low:] = ends[:, low:]
    return z


def path_endpoints_batch(group, controls):
    """Endpoint coordinates for a (B, m, d) control stack from identity."""
    return _prefix_endpoints(group, controls)[:, -1]


def _pullback(group, z, controls, covectors, layered=0):
    """Covectors (B, r, n) at the endpoint pulled back to the controls.

    ``z`` holds the prefix products of the (B, m, d) ``controls``; an
    (r, n) stack of ``covectors`` serves every path.  Returns
    (B, r, m * d), row k of path b being covectors[b, k] dz_m/du.

    The first ``layered`` covectors, and on a group of at most two layers
    every covector, have no content above layer 2.  Layers 1 and 2 of z_m
    are the sum of the s_{j,1} and the telescoped sum of
    s_{j,2} + 1/2 [z_{j-1,1}, s_{j,1}], so such a covector w = w_1 + w_2
    pulls back at step j to w_1 + w_2 + w_2 1/2 [a_j, .] with
    a_j = z_{j-1,1} + z_{j,1} - z_{m,1}: one matmul against the layer-2
    structure constants (``BchTable.bracket_rows``).  The other
    covectors go through dz_m/ds_j = psi(-ad z_m) exp(ad z_{j-1})
    phi(-ad s_j), all j at once, on 2-D stacks of rows, one row per
    (path, covector, step).
    """
    B, m, d = controls.shape
    r, n = covectors.shape[-2:]
    algebra, table, kernel = group.algebra, group.table, group.algebra.kernel
    d1, top = algebra.layer_dims[0], sum(algebra.layer_dims[:2])
    if top == n:
        layered = r
    parts = []
    if layered:
        # such a covector is 0 above layer 2, so its first d coordinates
        # are its part w_1 + w_2 at every step
        ident = np.repeat(covectors[..., :layered, None, :d], m, axis=-2)
        if top > d1:
            z1 = z[..., :d1]
            a = z1[:, :-1] + z1[:, 1:] - z1[:, -1:]
            # w_2 against the structure constants first, then a_j
            # against the resulting (d1, d) matrix per covector
            wk = covectors[..., :layered, d1:top] @ table.bracket_rows(d)
            low = a[:, None] @ wk.reshape(wk.shape[:-1] + (d1, d))
            low += ident
        else:
            low = np.broadcast_to(ident, (B, layered, m, d))
        parts.append(low.reshape(B, layered, m * d))
    if layered < r:
        high = covectors[..., layered:, :]
        h = r - layered
        if high.ndim == 2:
            high = np.repeat(high[None], B, axis=0)

        def per_row(factors):  # a (path, step) factor per (path, k, step)
            if h == 1:
                return factors
            return np.repeat(factors.reshape(B, m, -1), h, axis=0).reshape(
                B * h * m, -1)

        zm = kernel.factor(-z[:, -1])
        rows = row_series(kernel, high.reshape(-1, n),
                          zm if h == 1 else np.repeat(zm, h, axis=0),
                          table.psi)
        rows = row_series(kernel, np.repeat(rows, m, axis=0),
                          per_row(kernel.factor(z[:, :-1].reshape(-1, n))),
                          table.exp)
        rows = row_series(kernel, rows,
                          per_row(kernel.factor(-controls.reshape(-1, d))),
                          table.phi)
        parts.append(rows[:, :d].reshape(B, h, m * d))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _penalty_value_grad(group, gram, controls, targets, mu):
    """Energy + mu * endpoint misfit, with gradient, fully batched.

    ``gram`` is the metric on the controls, which drive the first
    ``gram.shape[0]`` coordinates of the steps s_j.  The misfit gradient
    pulls cbar = 2 mu (z_m - target) back to the controls (``_pullback``):
    in closed form on a group of at most two layers, through the series
    above.
    """
    z = _prefix_endpoints(group, controls)
    gu = controls @ gram
    energy = np.einsum("bmi,bmi->b", controls, gu)
    diff = z[:, -1] - targets
    value = float(np.sum(energy) + mu * np.sum(diff * diff))
    pulled = _pullback(group, z, controls, 2.0 * mu * diff[:, None])
    return value, 2.0 * gu + pulled.reshape(controls.shape)


def _endpoint_jacobian(group, controls):
    """Endpoints z_m (B, n) of a (B, m, d) control stack and J = dz_m/du.

    J is (B, n, m * d): the pullback of each path's n unit covectors,
    the rows of layers 1 and 2 in closed form and only the rows above
    them through the series (``_pullback``).
    """
    z = _prefix_endpoints(group, controls)
    return z[:, -1], _pullback(group, z, controls, np.eye(group.dim),
                               sum(group.algebra.layer_dims[:2]))


def _solve(a, b):
    """Batched a x = b for (B, k, k) a and (B, k) b; pinv if one is singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.einsum("bij,bj->bi", np.linalg.pinv(a), b)


def _project(group, controls, targets, tol, steps):
    """Gauss-Newton steps u <- u - J^T (J J^T)^-1 c onto z_m(u) = target.

    ``controls`` is (B, m, d); a row takes at most ``steps`` steps and
    stops once |c| <= tol.  Returns (controls, c, J, ok): c = z_m - target
    and J at the returned controls, and the rows that met ``tol``.
    """
    B, m, d = controls.shape
    u = controls.reshape(B, m * d).copy()
    c = np.empty(targets.shape)
    J = np.empty(targets.shape + (m * d,))
    ok = np.zeros(B, dtype=bool)
    live = np.arange(B)
    for k in range(steps + 1):
        z, J[live] = _endpoint_jacobian(group, u[live].reshape(-1, m, d))
        c[live] = z - targets[live]
        res = np.linalg.norm(c[live], axis=-1)
        met = res <= tol[live]
        ok[live[met]] = True
        live = live[~met & np.isfinite(res)]
        if k == steps or not len(live):
            break
        Jl = J[live]
        u[live] -= np.einsum("bij,bi->bj", Jl,
                             _solve(Jl @ Jl.transpose(0, 2, 1), c[live]))
    return u.reshape(B, m, d), c, J, ok


def _bfgs_inverse_update(M, s, y):
    """Dual-Powell-damped BFGS update of inverse Hessians M (B, N, N), in place.

    Where s^T y < 0.2 y^T M y, s is moved towards M y until s^T y is
    0.2 y^T M y, which keeps M positive definite; then
    M <- (I - rho s y^T) M (I - rho y s^T) + rho s s^T with rho = 1 / s^T y,
    added as two outer products so that one (B, N, N) temporary is alive.
    """
    My = np.einsum("bij,bj->bi", M, y)
    yMy = np.einsum("bi,bi->b", y, My)
    sy = np.einsum("bi,bi->b", s, y)
    damp = sy < 0.2 * yMy
    theta = np.ones_like(sy)
    theta[damp] = 0.8 * yMy[damp] / (yMy[damp] - sy[damp])
    s = theta[:, None] * s + (1.0 - theta[:, None]) * My
    sy = theta * sy + (1.0 - theta) * yMy
    rho = np.zeros_like(sy)
    np.divide(1.0, sy, out=rho, where=sy > 0)
    M += s[:, :, None] * ((rho * rho * yMy + rho)[:, None] * s
                          - rho[:, None] * My)[:, None, :]
    M -= (rho[:, None] * My)[:, :, None] * s[:, None, :]


def _short(gram, radius, controls, ok, rows):
    """The rows of ``ok`` whose (B, m, d) ``controls`` are no longer than r.

    ``radius`` is (r, scale) or None (no row is short); row k's length is
    multiplied by ``scale[rows[k]]``, which makes it the bound that
    ``_shortest_paths`` returns for a path that needs no closure.
    """
    if radius is None:
        return np.zeros_like(ok)
    r, scale = radius
    length = np.sum(np.sqrt(np.einsum("...i,...i->...", controls @ gram,
                                      controls)), axis=-1)
    return ok & (length * scale[rows] <= r)


def _sqp(group, gram, targets, tol, controls, c, J, max_iter, radius=None):
    """Feasible SQP on the energy subject to z_m(u) = target, per row.

    Starts from (B, m, d) ``controls`` that meet ``tol``, with their
    residuals c and Jacobians J.  Each row keeps an inverse Lagrangian
    Hessian M, started at blockdiag((2G)^-1); it takes the multipliers
    from (J M J^T) lam = c - J M g and the step p = -M (g + J^T lam),
    backtracks on the energy by Armijo (at most ``HALVINGS`` halvings,
    each trial re-projected by at most ``TRIAL_STEPS`` Gauss-Newton
    steps), and updates M from y = grad L(u+, lam) - grad L(u, lam).  A
    row stops, keeping its last feasible iterate, once its predicted
    decrease -g^T p is at most ``DECREASE_TOL`` (1 + E), when no trial is
    accepted, after ``max_iter`` iterations, or, given a ``radius``
    (r, scale) with a scale per row, once its iterate's length times its
    scale is at most r (``_short``); the stopped rows leave the working
    arrays.
    """
    B, m, d = controls.shape
    N = m * d

    def energy_grad(v):
        gv = (v.reshape(-1, m, d) @ gram).reshape(-1, N)
        return np.einsum("bi,bi->b", v, gv), 2.0 * gv

    out = controls.copy()
    rows = np.arange(B)
    u = controls.reshape(B, N)
    E, g = energy_grad(u)
    M = np.empty((B, N, N))
    M[:] = np.kron(np.eye(m), np.linalg.inv(2.0 * gram))
    for it in range(max_iter):
        MJt = M @ J.transpose(0, 2, 1)
        Mg = np.einsum("bij,bj->bi", M, g)
        lam = _solve(J @ MJt, c - np.einsum("bij,bj->bi", J, Mg))
        p = -(Mg + np.einsum("bij,bj->bi", MJt, lam))
        dec = -np.einsum("bi,bi->b", g, p)
        trying = np.flatnonzero(dec > DECREASE_TOL * (1.0 + E))
        un, cn, Jn, En = u.copy(), c.copy(), J.copy(), E.copy()
        moved = np.zeros(len(u), dtype=bool)
        for h in range(HALVINGS + 1):
            if not len(trying):
                break
            alpha = 0.5 ** h
            tu, tc, tJ, ok = _project(
                group, (u[trying] + alpha * p[trying]).reshape(-1, m, d),
                targets[rows[trying]], tol[trying], TRIAL_STEPS)
            tu = tu.reshape(-1, N)
            tE = energy_grad(tu)[0]
            ok &= tE <= E[trying] - ARMIJO * alpha * dec[trying]
            hit = trying[ok]
            un[hit], cn[hit], Jn[hit], En[hit] = tu[ok], tc[ok], tJ[ok], tE[ok]
            moved[hit] = True
            trying = trying[~ok]
        # un is u on the rows that did not move; every row but the moved
        # ones before the cap stops here
        keep = moved if it + 1 < max_iter else np.zeros_like(moved)
        keep &= ~_short(gram, radius, un.reshape(-1, m, d), moved, rows)
        out[rows[~keep]] = un[~keep].reshape(-1, m, d)
        if not np.any(keep):
            break
        if not np.all(keep):
            rows, tol, M, lam = rows[keep], tol[keep], M[keep], lam[keep]
            u, g, J, un, cn, Jn, En = (a[keep] for a in
                                       (u, g, J, un, cn, Jn, En))
        gn = energy_grad(un)[1]
        y = gn - g + np.einsum("bij,bi->bj", Jn - J, lam)
        _bfgs_inverse_update(M, un - u, y)
        u, c, J, E, g = un, cn, Jn, En, gn
    return out


def _optimize_controls(group, gram, targets, controls0, budget, radius=None):
    """Minimum-energy controls reaching the targets, per row.

    targets: (B, n); controls0: (B, m, d) with d = gram.shape[0].  On a
    group of step >= 3 a warm L-BFGS-B stage minimizes energy +
    penalty_init * |z_m - target|^2 over the flattened batch (at most
    ``WARM_ITER`` iterations); elsewhere the warm point is ``controls0``.
    Each row is projected once from its warm point onto z_m(u) = target
    by Gauss-Newton steps, and the projected rows descend by feasible SQP
    (``_sqp``).  A row whose projection fails keeps its warm point, with
    its defect; the callers close the defect.  Returns the (B, m, d)
    controls.

    ``radius`` is None or (r, scale), a scale per row.  Given one, a row
    stops with the first projected path whose length times its scale is
    at most r (``_short``): its projected warm point, then each SQP
    iterate.
    """
    B, m, d = controls0.shape
    tol = PROJECT_TOL * (1.0 + np.linalg.norm(targets, axis=-1))
    warm = controls0
    # On step-2 groups (Heisenberg, free2-d, abelian: 3,000 rows at three
    # budgets; 200 rows of the Heisenberg completion) the warm stage moved
    # no bound by more than 1e-12 relative and took about 30% of a
    # Heisenberg solve.  Without it the worst of 48 Engel bounds at the
    # (12, 2, max_iter 30) budget went from 2.0% to 21.5% above the
    # best-known ones.
    if group.algebra.num_layers > 2:
        def fun(flat):
            v, g = _penalty_value_grad(group, gram, flat.reshape(B, m, d),
                                       targets, budget.penalty_init)
            return v, g.ravel()

        # the result's curvature pairs are not kept
        warm = minimize(fun, controls0.ravel(), jac=True, method="L-BFGS-B",
                        options={"maxiter": min(budget.max_iter, WARM_ITER),
                                 "ftol": budget.ftol, "gtol": budget.gtol},
                        ).x.reshape(B, m, d)
    controls, c, J, ok = _project(group, warm, targets, tol, PROJECT_STEPS)
    controls[~ok] = warm[~ok]
    live = np.flatnonzero(ok & ~_short(gram, radius, controls, ok,
                                       np.arange(B)))
    if len(live):
        controls[live] = _sqp(
            group, gram, targets[live], tol[live], controls[live], c[live],
            J[live], budget.max_iter,
            None if radius is None else (radius[0], radius[1][live]))
    return controls


def _initial_controls(space, targets, budget, rng):
    """Straight-line start plus randomized perturbations, (S, B, m, d1)."""
    B = targets.shape[0]
    m, S = budget.segments, budget.starts
    straight = np.repeat(
        (targets[:, : space.d1] / m)[:, None, :], m, axis=1
    )  # (B, m, d1)
    scale = (space.homogeneous_norm(targets) + 1.0) / m
    # the straight start is a saddle for targets with higher-layer content;
    # nudge those rows off it
    vertical = np.any(np.abs(targets[:, space.d1:]) > 0, axis=-1)
    jitter = rng.standard_normal((B, m, space.d1)) * scale[:, None, None]
    straight = straight + 0.1 * jitter * vertical[:, None, None]
    inits = [straight]
    for _ in range(S - 1):
        noise = rng.standard_normal((B, m, space.d1)) * scale[:, None, None]
        inits.append(straight + noise)
    return np.stack(inits, axis=0)


@dataclass
class _Starts:
    """A batch of targets at unit scale and the optimizer starts drawn for it."""

    targets: np.ndarray  # (B, n) as given
    scales: np.ndarray   # (B,) homogeneous norms
    unit: np.ndarray     # (B, n) targets dilated to unit homogeneous norm
    chunks: list         # per chunk of CHUNK rows: its nonzero targets' rows
                         # and their (S, len(rows), m, d1) starts
    budget: OptimizerBudget


def _draw_starts(space: CCSpace, targets, budget, seed):
    """Normalize a batch of targets and draw its starts, once.

    A dilation maps witness paths to witness paths and scales lengths
    exactly, so every target is bounded at unit homogeneous norm and the
    bound is exactly dilation covariant.  The starts are drawn from one
    generator seeded by ``seed``, chunk by chunk and for the nonzero
    targets of a chunk only, so a row bounded in any subset of its chunk
    (``_bound_rows``) starts where it starts in the whole batch.
    """
    targets = np.atleast_2d(space.algebra.vector(targets))
    scales = space.homogeneous_norm(targets)
    if not np.all(np.isfinite(scales)):  # a non-finite or too large target
        raise InputError("targets and their homogeneous norms must be finite")
    B = targets.shape[0]
    live = scales > 0
    weights = np.ones_like(targets)
    weights[live] = (
        1.0 / scales[live, None]
    ) ** space.algebra.layer_of.astype(float)[None, :]
    unit = targets * weights
    rng = np.random.default_rng(seed)
    chunks = []
    for first in range(0, B, CHUNK):
        idx = np.arange(first, min(first + CHUNK, B))
        idx = idx[live[idx]]
        if len(idx):
            chunks.append((idx, _initial_controls(space, unit[idx], budget,
                                                  rng)))
    return _Starts(targets, scales, unit, chunks, budget)


def _bound_rows(space: CCSpace, starts: _Starts, chunk, pick=slice(None),
                radius=None):
    """Bound the rows ``pick`` of chunk ``chunk`` of ``starts`` in one batch.

    Per row the shortest start whose ladder closure is feasible is kept;
    a row with no feasible start gets the straight segment plus its
    ladder closure instead (``certified_upper_cheap``).  Returns (upper,
    residual, kept) for those rows: ``upper`` is the kept path's length,
    inf where even that is infeasible, and ``kept`` the kept paths as
    unit-duration control displacements, (len(rows), k, d1).  On a
    group of step 2 a row's bound does not depend on the other rows; on
    step >= 3 the warm stage minimizes over the whole batch.
    """
    budget = starts.budget
    rows, inits = starts.chunks[chunk]
    rows, inits = rows[pick], inits[:, pick]
    scales, tg = starts.scales[rows], starts.unit[rows]
    S, b = budget.starts, len(rows)
    stacked = np.tile(tg, (S, 1))
    controls = _optimize_controls(
        space.group, space.metric.gram, stacked,
        inits.reshape(S * b, budget.segments, -1), budget,
        None if radius is None else (radius, np.tile(scales, S)),
    )
    endpoint = path_endpoints_batch(space.group, controls)
    lengths = np.sum(space.metric.norm(controls), axis=-1)
    extra, _, res, segs = close_defect_batch(space, endpoint, stacked,
                                             collect=True)
    total = (lengths + extra).reshape(S, b)
    res = res.reshape(S, b)
    total = np.where(res <= 1e-9 * (1 + np.linalg.norm(tg, axis=-1)),
                     total, np.inf)
    best = np.argmin(total, axis=0)
    cols = np.arange(b)
    upper = total[best, cols] * scales
    residual = res[best, cols]
    kept = [controls.reshape(S, b, budget.segments, -1)[best, cols]]
    kept += [u.reshape(S, b, 1, -1)[best, cols] for u in segs]
    kept = scales[:, None, None] * np.concatenate(kept, axis=1)
    failed = ~np.isfinite(upper)
    if np.any(failed):
        upper[failed], residual[failed], straight = _straight_ladder(
            space, starts.targets[rows[failed]], collect=True)
        width = max(kept.shape[1], straight.shape[1])
        kept = np.pad(kept, ((0, 0), (0, width - kept.shape[1]), (0, 0)))
        kept[failed] = np.pad(
            straight, ((0, 0), (0, width - straight.shape[1]), (0, 0)))
    return upper, residual, kept


def _shortest_paths(space: CCSpace, targets, budget, seed, radius=None):
    """Shortest optimized and ladder-closed path from e^0 to each target.

    Draws the starts (``_draw_starts``) and bounds each chunk of nonzero
    targets as one batch (``_bound_rows``).  Returns (upper, residual,
    paths): ``upper`` is 0 for a zero target, and ``paths`` lists (rows,
    kept paths) per chunk.  With a ``radius`` the optimizer stops each
    start once it has a projected path whose returned length is at most
    the radius (``_optimize_controls``); that path meets the target
    within ``PROJECT_TOL``, below the closure's ``EXACT_TOL``, so its
    closure adds nothing.
    """
    if radius is not None and not (np.isfinite(radius) and radius > 0):
        raise InputError(f"radius must be positive and finite, got {radius!r}")
    starts = _draw_starts(space, targets, budget, seed)
    upper = np.zeros(len(starts.scales))
    residual = np.zeros(len(starts.scales))
    paths = []
    for chunk, (idx, _) in enumerate(starts.chunks):
        upper[idx], residual[idx], kept = _bound_rows(
            space, starts, chunk, radius=radius)
        paths.append((idx, kept))
    return upper, residual, paths


def _straight_ladder(space: CCSpace, points, collect=False):
    """The straight segment to each point plus its ladder closure.

    Returns (upper, residual, path): the path's length, inf where the
    closure is infeasible or its residual is not finite (a point too
    large to square), the closure's residual and, if ``collect``,
    the path as (B, k, d1) unit-duration control displacements.
    """
    u1 = points[:, : space.d1]
    start = space.embed_horizontal(u1)
    extra, _, res, segs = close_defect_batch(space, start, points,
                                             collect=collect)
    upper = _unsquared(space.metric.norm, u1) + extra
    missed = res > 1e-9 * (1 + _unsquared(_euclid, points))
    upper[missed | ~np.isfinite(res)] = np.inf
    return upper, res, np.stack([u1] + segs, axis=1) if collect else None


def certified_upper_cheap(space: CCSpace, points):
    """Vectorized certified upper bound: straight segment plus ladder loops."""
    points = np.atleast_2d(space.algebra.vector(points))
    return _straight_ladder(space, points)[0]


def cc_upper_batch(space: CCSpace, targets, budget=None, seed=0,
                   radius=None):
    """Certified upper bounds d_cc(e^0, target) for a batch of targets.

    Returns (upper, residual): ``upper`` is the exact length of a feasible
    witness (optimized path plus exact ladder closure of the remaining
    defect, or for a row with no feasible start the straight segment plus
    its closure); ``residual`` the final coordinate mismatch, ~1e-12.
    Raises OptimizerFailure only for rows where both are infeasible, and
    InputError for a non-finite target.

    With a ``radius`` (positive, finite) each start of a row stops as
    soon as it has a path no longer than the radius, and the row keeps
    its shortest start: a decided row's bound is at most the radius and
    is certified, but it is not the minimum the full optimization would
    reach.  A start that never gets that short runs the whole solver and
    ends where it ends without a radius.
    """
    if budget is None:
        budget = OptimizerBudget()
    upper, residual, _ = _shortest_paths(space, targets, budget, seed,
                                         radius)
    if np.any(~np.isfinite(upper)):
        bad = int(np.sum(~np.isfinite(upper)))
        raise OptimizerFailure(
            f"{bad} of {len(upper)} targets failed to reach endpoint tolerance",
            residual=residual,
        )
    return upper, residual


def cc_upper(space: CCSpace, x, y, budget=None, seed=0):
    """Optimized feasible path from x to y and its exact length.

    Returns a DistanceEstimate carrying only the upper bound and witness;
    raises OptimizerFailure (with the best infeasible path attached) if
    the endpoint tolerance cannot be met.
    """
    if budget is None:
        budget = OptimizerBudget()
    x = space.algebra.vector(x)
    y = space.algebra.vector(y)
    upper, residual, paths = _shortest_paths(
        space, space.group.difference(x, y), budget, seed
    )
    if not paths:  # x == y
        return DistanceEstimate(
            lower=0.0,
            upper=0.0,
            witness=ControlPath(np.zeros(0), np.zeros((0, space.d1)), x),
            lower_method="none",
            upper_method="trivial",
            endpoint_residual=0.0,
            seed=seed,
        )
    _, kept = paths[0]
    controls = kept[0]
    keep = np.linalg.norm(controls, axis=1) > 0
    witness = ControlPath(
        np.ones(int(np.sum(keep))), controls[keep], x
    ).constant_speed()
    if not np.isfinite(upper[0]):
        raise OptimizerFailure(
            "endpoint tolerance not reached",
            best_path=witness,
            residual=float(residual[0]),
        )
    return DistanceEstimate(
        lower=0.0,
        upper=witness.length(space),
        witness=witness,
        lower_method="none",
        upper_method=f"path-optimizer(m={budget.segments},starts={budget.starts})",
        endpoint_residual=float(residual[0]),
        seed=seed,
    )


def riemannian_upper_batch(space: CCSpace, targets):
    """Upper bounds on the Riemannian completion's distance from identity.

    The completion's metric is the horizontal Gram matrix on layer 1 and
    the identity above it.  Its paths are optimized like horizontal ones,
    with controls in every coordinate, from the straight start with the
    budget ``OptimizerBudget(segments=8, starts=1, max_iter=120)``; the
    final defect is closed by a single straight segment, so the bound is
    the exact length of a feasible broken path.
    """
    budget = OptimizerBudget(segments=8, starts=1, max_iter=120)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    gram = np.eye(space.algebra.dim)
    gram[: space.d1, : space.d1] = space.metric.gram
    completion = HorizontalMetric(gram)
    m = budget.segments
    straight = np.repeat((targets / m)[:, None, :], m, axis=1)
    controls = _optimize_controls(space.group, completion.gram, targets,
                                  straight, budget)
    endpoints = path_endpoints_batch(space.group, controls)
    defect = space.group.bch(-endpoints, targets)
    lengths = np.sum(completion.norm(controls), axis=-1)
    return lengths + completion.norm(defect)


# -- combined estimates ----------------------------------------------------


@dataclass
class DistanceEstimate:
    """A CC distance bracketed by certified bounds and their methods."""

    lower: float
    upper: float
    witness: ControlPath | None
    lower_method: str
    upper_method: str
    endpoint_residual: float
    seed: int = 0

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise InputError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)

    def as_dict(self, pair=None):
        doc = {
            "lower": self.lower,
            "lower_method": self.lower_method,
            "upper": self.upper,
            "upper_method": self.upper_method,
            "witness_segments": (
                None
                if self.witness is None
                else {
                    "durations": self.witness.durations.tolist(),
                    "controls": self.witness.controls.tolist(),
                    "basepoint": self.witness.basepoint.tolist(),
                }
            ),
            "endpoint_residual": self.endpoint_residual,
            "seed": self.seed,
        }
        if pair is not None:
            doc["pair"] = pair
        return doc


def estimate_distance(space: CCSpace, x, y, budget=None, ballbox=None, seed=0):
    """Two-sided certified estimate of d_cc(x, y)."""
    est = cc_upper(space, x, y, budget=budget, seed=seed)
    delta = space.group.difference(x, y)
    lower, method = lower_bounds_batch(space, delta[None, :], ballbox)
    return DistanceEstimate(
        lower=float(min(lower[0], est.upper)),
        upper=est.upper,
        witness=est.witness,
        lower_method=str(method[0]),
        upper_method=est.upper_method,
        endpoint_residual=est.endpoint_residual,
        seed=seed,
    )


def calibrate_ballbox(space: CCSpace, samples=1000, seed=0):
    """Estimate the ball-box constant A on unit-scale random directions.

    A is the maximum of (sum_i |v_i|^{1/i}) / upper(d_cc(e^0, e^v)) over
    the samples, upper bounds taken with ``OptimizerBudget(segments=12,
    starts=2)`` as ``cc_upper_batch`` takes them for the whole batch,
    inflated by a safety factor of 1.05 as holdout headroom; dilation
    invariance of the ratio means unit-scale sampling suffices.

    The maximum is found by branch and bound.  A sample's ratio is at
    most its ceiling sum_i |v_i|^{1/i} / lower, with the certified lower
    bound of ``lower_bounds_batch``.  The n samples of a chunk of
    ``CHUNK`` are bounded in rounds in decreasing ceiling order, first
    ceil(sqrt(n)) of them, then twice as many each round, and a sample
    goes to the optimizer only while its ceiling exceeds the best ratio
    so far (less ``CEILING_SLACK``, relative).  The others are certified
    not to raise the maximum, so ``max_ratio`` is the maximum over every
    sample and only the bounded samples can raise ``CalibrationError``.
    """
    samples = int(samples)
    if samples < 100:
        raise InputError("ball-box calibration needs at least 100 samples")
    safety = 1.05
    rng = np.random.default_rng(seed)
    n = space.algebra.dim
    raw = rng.standard_normal((samples, n))
    # include a pure horizontal direction so max_ratio >= 1 up to optimizer slack
    raw[0] = space.embed_horizontal(np.ones(space.d1))
    hnorm = space.homogeneous_norm(raw)
    weights = (1.0 / hnorm)[:, None] ** space.algebra.layer_of.astype(float)[None, :]
    vs = raw * weights
    starts = _draw_starts(space, vs, OptimizerBudget(segments=12, starts=2),
                          int(rng.integers(2**32)))
    hnorm = starts.scales  # the homogeneous norms of vs
    ceiling = hnorm / lower_bounds_batch(space, vs)[0]
    max_ratio = -np.inf
    for chunk, (rows, _) in enumerate(starts.chunks):
        order = np.argsort(-ceiling[rows], kind="stable")
        first, size = 0, math.ceil(math.sqrt(len(rows)))
        while first < len(rows):
            pick = order[first:first + size]
            # a prefix of the round, since the ceilings decrease along it
            pick = pick[ceiling[rows[pick]] > max_ratio * (1.0 - CEILING_SLACK)]
            if not len(pick):
                break
            upper = _bound_rows(space, starts, chunk, pick)[0]
            if not np.all(np.isfinite(upper)):
                raise CalibrationError(
                    "upper-bound optimization failed during calibration",
                    failed_samples=rows[pick[~np.isfinite(upper)]].tolist(),
                )
            max_ratio = max(max_ratio,
                            float(np.max(hnorm[rows[pick]] / upper)))
            first, size = first + size, 2 * size
    A = max(max_ratio * safety, 1.0)
    return BallBoxConstant(
        A=A, samples=samples, seed=seed, safety=safety, max_ratio=max_ratio
    )

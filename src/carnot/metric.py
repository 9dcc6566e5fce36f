"""Carnot-Caratheodory distance estimation with certified two-sided bounds.

Upper bounds come from optimized horizontal paths with piecewise-constant
left-invariant controls; a piecewise-constant path integrates exactly
through the group product, so the only approximation is the optimizer's
endpoint defect, which an explicit commutator-ladder path closes exactly,
its length added to the bound.  The optimizer minimizes path energy
subject to reaching the target: on groups of step >= 3 a short damped
Gauss-Newton warm stage on energy plus a penalty on the endpoint misfit,
then on every group Gauss-Newton projection onto the endpoint constraint
and feasible SQP, whose stationary rows are the discrete normal
extremals.  Each stage keeps only its step rule: the three share one
bookkeeping of the rows still iterating (``_Live``), and the warm stage
and the SQP one Armijo line search (``_backtrack``).  Every stage works
per row, so a row's bound has the same bits in any batch that draws it
the same starts, except where the prefix products are formed in blocks
of rows (``BLOCK_ROWS``).
On a group of step <= 3 a path's endpoint is a polynomial of degree <= 3
in its controls, whose coefficients are formed once per group, step
count and control dimension; the endpoint and its Jacobian are
evaluated from them.  Elsewhere (step >= 4, or more than
``POLY_CONTROLS`` controls) the Jacobian's rows are pulled back layer by
layer: a covector with no content above layer 2 pulls back in closed
form, against the layer-2 structure constants, and only the others go
through the closed-form derivative of the product
(``group.row_series``).  Every candidate path, optimized or straight,
is bounded at unit homogeneous norm, through one certify step
(``_certify``), and dilated back; a row keeps the shorter of its best
optimized path and its straight segment (``_bound_rows``).
Stopping is a rule per row: the closure moves only the rows still off
their targets, and the solver has two optional rules (``_Stop``).  Given
a radius a row stops as soon as it has a projected path no longer than
it, which is all that ball membership asks.  Given a floor a row stops
as soon as its energy certifies that it cannot reach the floor, which is
all that a maximum over rows asks (``cc_upper_max``).  Where no
polynomial serves, the path's prefix products are formed layer by
layer: layers 1 and 2 telescope into prefix sums, higher layers come
from one product call per block of steps.

Lower bounds come from the 1-Lipschitz abelianization quotient (exact)
and from certified per-layer constants K_k with |layer_k| <= K_k d_cc^k
(``LayerBounds``): Dido's inequality on the step-2 quotient for layer 2,
over the path's chord and, with half the constant, on the path closed
along -z_1; the factorial decay of a path's signature for layers >= 3.  An
empirically calibrated ball-box constant can be passed on top; it is
labelled "calibrated" wherever it is reported.  The calibration is a
branch and bound over its samples: a sample's ratio is at most its
ceiling against the certified lower bound, and only the samples whose
ceiling exceeds the best ratio so far are optimized, each from the start
the whole batch draws for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import GradedAlgebra
from .errors import CalibrationError, InputError, OptimizerFailure, UnreachableError
from .group import CarnotGroup, row_series

# Coordinate residual below which an endpoint counts as exact.
EXACT_TOL = 1e-12
# Closed residual, relative to 1 + |target| at unit homogeneous norm, up to
# which a candidate path is accepted (``_certify``).
ACCEPT_TOL = 1e-9
# Targets optimized together in one batch.
CHUNK = 32768
# Rows of one ``bch`` call forming the prefix products of a 3-layer
# group.  Blocks of every step (q = m) against this cap, Engel at
# m = 12, 1 BLAS thread, A/A spread <= 3%: the prefix products take 0.99x
# the cap's time at B = 2 and 32 and 0.70x at B = 100, but 1.26x at
# B = 300 and 2.42x at B = 1000; the endpoint Jacobian 0.98x, 1.01x,
# 0.92x, 1.02x and 1.16x.
BLOCK_ROWS = 512
# Controls N = m d up to which the endpoint of a path on a group of step
# <= 3 is its cached polynomial (``_EndpointPolynomial``); longer paths
# take the fold.  A row of the polynomial costs O(N^3) on 3-layer groups
# and O(N^2) on 2-layer ones, against the fold's O(N), and its
# coefficients grow alike: a closure path of 841 moves would need GiBs.
# The endpoint Jacobian, polynomial over fold, 1 BLAS thread, the two
# alternating, at B = 200 and 768: Engel 0.39x and 0.63x at N = 24,
# 0.71x and 1.10x at 32, 1.00x and 1.48x at 40; free2-4 0.62x at 32 and
# 1.3x at 48; Heisenberg under 0.35x up to 48.  A 400-row Engel
# ``cc_upper_batch`` at N = 32 took 0.84x the fold's time.
POLY_CONTROLS = 32
# The path optimizer: iterations of the warm penalty stage (groups of step
# >= 3 only, ``_optimize_controls`` says why 8), the projection onto the
# endpoint constraint (tolerance relative to 1 + |target|, and
# Gauss-Newton steps allowed, in all and per SQP trial), and the
# stopping and line-search constants that the warm stage and the SQP
# share through ``_backtrack``.
WARM_ITER = 8
PROJECT_TOL = 1e-13
PROJECT_STEPS = 20
TRIAL_STEPS = 4
HALVINGS = 8
ARMIJO = 1e-4
DECREASE_TOL = 1e-14
# A calibration sample is left unbounded only once its ceiling is below the
# best ratio by more than this, relative, and a solver row stops at its
# floor only once its length is certified below the floor by as much.
# Ratio and ceiling share their numerator, and a computed upper bound may
# read below an exact lower bound (|z_1| on the abelian group, where every
# ceiling is 1) by roundoff or by the residual a path is accepted at,
# ``ACCEPT_TOL`` (1 + |target|) at unit homogeneous norm.
CEILING_SLACK = 1e-8
# Relative margin by which ``_unit_floor`` stays below the straight
# segment's bound: it covers the roundoff of a few hundred operations, far
# more than either side takes.
FLOOR_SLACK = 2.0 ** -40


def __getattr__(name):
    # ``metric.minimize`` is not called here: perfbench/spans.py traces the
    # solver by patching it, and a traced run fails without it.  Looked up
    # only then, so importing carnot does not load scipy.optimize.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        return _unsquared(lambda v: np.sqrt(self.inner(v, v)),
                          np.asarray(u, dtype=float))

    def inner(self, u, v):
        return np.einsum("...i,...i->...", u @ self.gram, v)


def _euclid(v):
    return np.linalg.norm(v, axis=-1)


# Norms below this come from sums of squares that lost bits to underflow.
_UNDERFLOW_NORM = math.sqrt(np.finfo(float).tiny)


def _unsquared(norm, v):
    """norm(v) per row; a finite nonzero row whose squares overflow or
    underflow is scaled by its largest coordinate first, a row with an
    infinite coordinate and no nan is inf (where the norm's inf * 0 reads
    nan), and the others, exact zeros included, keep their bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(norm(v))
    if out.size and out.max() < np.inf and (
            _UNDERFLOW_NORM <= out.min()
            or not np.any(v[out < _UNDERFLOW_NORM])):
        return out
    finite = np.all(np.isfinite(v), axis=-1)
    odd = ~(out >= _UNDERFLOW_NORM) | np.isinf(out)
    odd &= finite & np.any(v != 0, axis=-1)
    if np.any(odd):
        scale = np.max(np.abs(v[odd]), axis=-1, keepdims=True)
        out[odd] = scale[:, 0] * norm(v[odd] / scale)
    if not finite.all():
        out[~finite & ~np.any(np.isnan(v), axis=-1)] = np.inf
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
        return np.stack([_unsquared(_euclid, x[..., a.layer_slice(i)])
                         if i > 1 else self.metric.norm(x[..., : self.d1])
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
    constants' spectral norm bounds max_w |J_w| (equal when d2 = 1).  On a
    closed curve the J_w-weighted area is at most |J_w| L^2 / (4 pi): it is
    sum_p s_p A_p over the invariant planes p of J_w, with s_p <= |J_w|,
    A_p the area of the curve's projection to p, |A_p| <= L_p^2 / (4 pi)
    for its length L_p, and sum_p L_p^2 <= L^2.  So |z_2| <= (K_2 / 2) L^2
    on a loop, which ``lower_bounds_batch`` applies to the path closed
    along -z_1.
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


def _root_quotient(norm, K, k):
    """(norm / K)^(1/k) per row.  A row whose quotient overflows takes
    norm^(1/k) / K^(1/k) instead; the other rows keep their bits."""
    with np.errstate(over="ignore"):
        out = np.asarray((norm / K) ** (1.0 / k))
    far = np.isinf(out)
    out[far] = norm[far] ** (1.0 / k) / K ** (1.0 / k)
    return out


def _lower_terms(space: CCSpace, deltas, ballbox):
    """(label, bound) per lower bound of ``lower_bounds_batch``.

    Layer k >= 2 gives (|z_k| / K_k)^(1/k) (``LayerBounds``).  Layer 2
    also gives the closed-loop form sqrt(2 |z_2| / K_2) - |z_1|: the path
    to g followed by the segment to g exp(-z_1) is a loop of length at
    most d + |z_1| whose step-2 quotient ends at z_2, and a closed curve
    encloses half the area Dido allows a curve over its chord.  Its label
    is the chord form's, "dido".
    """
    norms = space.layer_norms(deltas)
    bounds = space.layer_bounds()
    horizontal = norms[..., 0]
    terms = [("abelianization", horizontal)]
    for k, (K, source) in enumerate(zip(bounds.K, bounds.sources), start=2):
        if K > 0:
            bound = _root_quotient(norms[..., k - 1], K, k)
            if k == 2:  # sqrt(2 |z_2| / K_2) is sqrt 2 times the chord form
                # (inf - inf, on a row infinite in layers 1 and 2, leaves it)
                with np.errstate(invalid="ignore"):
                    bound = np.fmax(bound, math.sqrt(2) * bound - horizontal)
            terms.append((source, bound))
    if ballbox is not None:
        terms.append(("ball-box", space.homogeneous_norm(deltas) / ballbox.A))
    return terms


def lower_bounds_batch(space: CCSpace, deltas, ballbox=None):
    """Lower bounds of d_cc(e^0, delta) for displacement coords (B, n).

    The largest of the abelianization bound |z_1|, the certified
    per-layer bounds (|z_k| / K_k)^(1/k), the closed-loop layer-2 bound
    sqrt(2 |z_2| / K_2) - |z_1| and, when a calibrated constant is given,
    (1/A) sum_k |z_k|^(1/k).  ``estimate_distance`` names the largest.
    """
    return functools.reduce(np.maximum, [
        bound for _, bound in _lower_terms(space, deltas, ballbox)])


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
        # each layer-1 basis direction's metric length
        self.letter_lengths = [float(space.metric.norm(e))
                               for e in np.eye(d1)]
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
            letters = [_loop_letters(w) for w in words]
            self.layers[p] = {
                "words": words,
                "pinv": np.linalg.pinv(mat),
                "letters": letters,
                # each word's loop length per unit of its scale
                "lengths": np.array([sum(self.letter_lengths[letter]
                                         for letter, _, _ in word)
                                     for word in letters]),
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
                lengths += s * self.letter_lengths[letter]
        return controls, lengths

    def layer2_floor(self, unit):
        """Per row of ``unit`` (B, n), at most the layer-2 length that the
        first pass of ``close_defect_batch`` adds to the straight segment's
        endpoint (x_1, 0, ...), roundoff included.

        The pass moves a row only if its defect exceeds ``EXACT_TOL``
        (1 + |x|), and the row's layer-2 defect is x_2 + [-x_1, x_1] / 2 as
        computed: the bracket is 0 but for roundoff, at most (K + 2) u
        |x_1|^T |c^l| |x_1| in coordinate l for the K nonzero structure
        constants and u = 2^-53, and the sum adds u |x_2|.  A row counts
        only if |x_2| exceeds the tolerance by more than that roundoff.
        Then each word's |lambda_w| = |pinv_w x_2| is lowered by |pinv_w|
        against 8x the roundoff bound, which also covers the products with
        the pseudo-inverse, and the word's loop adds at least the square
        root of that times its loop length.
        """
        space, info = self.space, self.layers[2]
        x1 = np.abs(unit[:, : space.d1])
        x2 = unit[:, space.algebra.layer_slice(2)]
        kernel = space.group.table.layer2
        spread = np.dot(kernel.factor(x1) * np.dot(x1, kernel.sj),
                        np.abs(kernel.rl))
        terms = len(space.algebra.kernel.rl)  # K
        roundoff = 2.0 ** -50 * ((x2.shape[-1] + 2) * np.abs(x2)
                                 + (terms + 2) * spread)
        off = EXACT_TOL * (1.0 + _unsquared(_euclid, unit))
        moved = (_euclid(x2) * (1.0 - FLOOR_SLACK) - np.sum(roundoff, axis=-1)
                 > off * (1.0 + FLOOR_SLACK))
        lam = np.abs(np.einsum("wd,...d->...w", info["pinv"], x2))
        lam -= (1.0 + FLOOR_SLACK) * (roundoff @ np.abs(info["pinv"]).T)
        loops = np.sqrt(np.maximum(lam, 0.0)) @ info["lengths"]
        return np.where(moved, loops, 0.0)


def close_defect_batch(space: CCSpace, endpoints, targets, collect=False):
    """Exactly close endpoint defects with commutator-ladder moves, per row.

    ``endpoints`` and ``targets`` are (B, n) coordinate arrays.  Returns
    (extra_length, final_endpoints, residual, segments) where segments is
    the ordered list of appended (B, d1) control displacements (only if
    ``collect``).  A row is moved only while its residual exceeds
    ``EXACT_TOL`` (1 + |target|), for at most 60 passes: a row that
    meets it leaves with its residual and no added length, a row whose
    residual a pass did not shrink leaves after that pass, and the
    segments of a row that left are zero.  Moves are folded through the
    exact group product, so the remaining residual contracts
    superlinearly; for groups of step <= 3 a single pass is already exact
    up to roundoff, and a residual that stops shrinking is roundoff or a
    closure that cannot converge at the point's scale; ``_certify``
    closes every path at unit homogeneous norm.
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
        before = residual[live]
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
        now = residual[live]
        live = live[(now > off[live]) & (now < before)]
    return extra, endpoints, residual, segs


# -- the upper-bound optimizer --------------------------------------------


@dataclass
class OptimizerBudget:
    """Budget and tolerances for the horizontal path optimizer."""

    segments: int = 16
    starts: int = 4
    max_iter: int = 250
    penalty_init: float = 1e2

    def __post_init__(self):
        for name in ("segments", "starts", "max_iter"):
            if getattr(self, name) < 1:
                raise InputError(
                    f"{name} must be positive, got {getattr(self, name)!r}")


def _prefix_endpoints(group, controls):
    """Prefix products z_0 = 0, ..., z_m of a (B, m, d) control stack.

    Returns (B, m + 1, n); the controls drive the first d coordinates of
    the steps s_j.  The path solver forms endpoints with it only where
    there is no cached polynomial (``_endpoint_polynomial``): on groups
    of step >= 4 and above ``POLY_CONTROLS`` controls; it also serves the
    Jacobians that the polynomial is read off.

    The product is triangular in the layers, so each
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
    """Endpoint coordinates for a (B, m, d) control stack from identity.

    Up to ``POLY_CONTROLS`` controls on a group of step <= 3 they are the
    cached endpoint polynomial's (``_EndpointPolynomial``), with the bits
    of the solver's endpoint; otherwise the last prefix product.
    """
    B, m, d = controls.shape
    poly = _endpoint_polynomial(group, m, d)
    if poly is None:
        return _prefix_endpoints(group, controls)[:, -1]
    return poly(controls.reshape(B, m * d))[0]


def _pullback(group, z, controls, covectors, layered=0):
    """Covectors (B, r, n) at the endpoint pulled back to the controls.

    ``z`` holds the prefix products of the (B, m, d) ``controls``; an
    (r, n) stack of ``covectors`` serves every path.  Returns
    (B, r, m * d), row k of path b being covectors[b, k] dz_m/du.  The
    path solver pulls back with it where ``_prefix_endpoints`` forms the
    endpoint.

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


def _endpoint_jacobian(group, controls):
    """Endpoints z_m (B, n) of a (B, m, d) control stack and J = dz_m/du.

    J is (B, n, m * d).  Where the endpoint is a cached polynomial
    (``_endpoint_polynomial``) both come from it; elsewhere from the fold
    (``_fold_jacobian``).
    """
    B, m, d = controls.shape
    poly = _endpoint_polynomial(group, m, d)
    if poly is None:
        return _fold_jacobian(group, controls)
    return poly(controls.reshape(B, m * d))


def _fold_jacobian(group, controls):
    """``_endpoint_jacobian`` from the prefix products.

    J is the pullback of each path's n unit covectors, the rows of layers
    1 and 2 in closed form and only the rows above them through the
    series (``_pullback``).
    """
    z = _prefix_endpoints(group, controls)
    return z[:, -1], _pullback(group, z, controls, np.eye(group.dim),
                               sum(group.algebra.layer_dims[:2]))


class _EndpointPolynomial:
    """The endpoint z_m of m steps of d controls on a group of step <= 3.

    In exponential coordinates the group law is a polynomial and a
    bracket of k steps lies in layers >= k, so on a group of step <= 3
    z_m = z_1 + z_2 + z_3, with z_k homogeneous of degree k in the
    N = m d controls u and 0 below layer k.  Its Jacobian is split by
    degree, J(u) = J0 + L u + Q (u x u), and Euler's identity
    J_k(u) u = k z_k(u) gives

        z_m = J0 u + 1/2 (L u) u + 1/3 (Q (u x u)) u.

    The coefficients are read off the fold's exact Jacobian
    (``_fold_jacobian``) by polarization, in one batched call at 0, at
    +-e_a and, with a layer 3, at e_a + e_b (a < b):
    L e_a = (J(e_a) - J(-e_a)) / 2, Q(e_a, e_a) = (J(e_a) + J(-e_a)) / 2
    - J0 and 2 Q(e_a, e_b) = J(e_a + e_b) - J(e_a) - J(e_b) + J0.  L keeps
    the rows from layer 2 up, (n - d1) N^2 floats, and Q those of layer 3
    on the pairs a <= b where it is not 0, at most d3 N^2 (N + 1) / 2
    floats (Engel: 222 of 300 pairs at N = 24 with horizontal controls).

    A call evaluates it on a (B, N) stack by stacked one-row matmuls,
    each row a BLAS call of its own, so a row's bits do not depend on the
    other rows of its batch; one GEMM over the batch gave some rows
    other bits in other batches.
    """

    def __init__(self, group, m, d):
        dims = group.algebra.layer_dims
        n, N = group.dim, m * d
        self.n, self.low, self.top = n, dims[0], sum(dims[:2])
        eye = np.eye(N)
        a, b = np.triu_indices(N, 1)
        points = [np.zeros((1, N)), eye, -eye]
        if self.top < n:
            points.append(eye[a] + eye[b])
        J = _fold_jacobian(group, np.concatenate(points).reshape(-1, m, d))[1]
        J0, plus, minus = J[0], J[1:N + 1], J[N + 1:2 * N + 1]
        self.J0, self.J0t = J0, np.ascontiguousarray(J0.T)
        # row a of ``linear`` is L e_a, so u @ linear is L u
        self.linear = (0.5 * (plus - minus)[:, self.low:]).reshape(N, -1)
        if self.top < n:
            # row k of ``cubic`` is Q(e_a, e_b) for the k-th pair a <= b,
            # twice over where a < b, so (u_a u_b)_k @ cubic is Q (u x u);
            # the pairs where it is 0 are dropped
            diag = 0.5 * (plus + minus) - J0
            off = J[2 * N + 1:] - plus[a] - plus[b] + J0
            q = np.concatenate([diag, off])[:, self.top:].reshape(
                len(diag) + len(off), -1)
            keep = np.flatnonzero(np.any(q != 0, axis=1))
            self.pairs = (np.concatenate([np.arange(N), a])[keep],
                          np.concatenate([np.arange(N), b])[keep])
            self.cubic = q[keep]

    def __call__(self, u):
        """(z_m, J) at a (B, N) control stack: (B, n) and (B, n, N)."""
        # every stacked operand C-contiguous, so that each row takes the
        # same BLAS call in every batch
        u = np.ascontiguousarray(u)
        B, N = u.shape
        n, low, top = self.n, self.low, self.top
        row, col = u[:, None], u[:, :, None]
        z = (row @ self.J0t)[:, 0]
        J = np.empty((B, n, N))
        J[:] = self.J0
        lin = (row @ self.linear).reshape(B, n - low, N)
        J[:, low:] += lin
        z[:, low:] += 0.5 * (lin @ col)[..., 0]
        if top < n:
            # ``take`` keeps the rows contiguous, where u[:, pairs] may not;
            # unchecked ("clip"), since the pairs are valid columns
            first, second = self.pairs
            uu = (u.take(first, axis=1, mode="clip")
                  * u.take(second, axis=1, mode="clip"))
            cub = (uu[:, None] @ self.cubic).reshape(B, n - top, N)
            J[:, top:] += cub
            z[:, top:] += (cub @ col)[..., 0] / 3.0
        return z, J


def _endpoint_polynomial(group, m, d):
    """The ``_EndpointPolynomial`` of m steps of d controls, or None.

    It is formed once per group table and (m, d).  None where the fold
    forms the endpoint: on groups of step >= 4 and above
    ``POLY_CONTROLS`` controls.
    """
    if group.algebra.num_layers > 3 or m * d > POLY_CONTROLS:
        return None
    cache = group.table.endpoint_polynomials
    if (m, d) not in cache:
        cache[m, d] = _EndpointPolynomial(group, m, d)
    return cache[m, d]


def _solve(a, b):
    """Batched a x = b for (B, k, k) a and (B, k) b.

    A row whose a is singular takes pinv; the others keep the bits that
    ``np.linalg.solve`` gives them alone.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for i in range(len(b)):
            try:
                out[i] = np.linalg.solve(a[i], b[i, :, None])[:, 0]
            except np.linalg.LinAlgError:
                out[i] = np.linalg.pinv(a[i]) @ b[i]
        return out


class _Live:
    """The rows of a batch that a per-row solver stage still iterates.

    A stage's working arrays hold only its live rows, whose places in the
    batch are ``rows``.  The rows that stop are scattered into the
    returned arrays, which are made at the first partial stop; when every
    row stops at once, the stage's own arrays are returned as they are,
    with no copy.
    """

    def __init__(self, size):
        self.size, self.rows, self.out = size, np.arange(size), None

    def settle(self, keep, result, state):
        """(done, state) once the live rows outside ``keep`` stop.

        ``result`` holds the arrays the stage returns and ``state`` its
        working arrays, a row per live row.  ``done`` is the batch's
        result once no row is left, else None; ``state`` is cut to the
        rows of ``keep``.
        """
        if len(keep) and keep.all():  # the usual case, first
            return None, state
        if self.out is None and not keep.any():
            return result, state
        if self.out is None:
            self.out = tuple(np.empty((self.size,) + a.shape[1:], a.dtype)
                             for a in result)
        stop = ~keep
        left = self.rows[stop]
        for a, v in zip(self.out, result):
            a[left] = v[stop]
        if not keep.any():
            return self.out, state
        self.rows = self.rows[keep]
        return None, tuple(a[keep] for a in state)


def _project(group, controls, targets, tol, steps):
    """Gauss-Newton steps u <- u - J^T (J J^T)^-1 c onto z_m(u) = target.

    ``controls`` is (B, m, d); a row takes at most ``steps`` steps and
    stops once |c| <= tol or once its residual is not finite.  Returns
    (controls, c, J, ok): c = z_m - target and J at the returned
    controls, and the rows that met ``tol``.
    """
    B, m, d = controls.shape
    u = controls.reshape(B, m * d).copy()
    live = _Live(B)
    for k in range(steps + 1):
        z, J = _endpoint_jacobian(group, u.reshape(-1, m, d))
        c = z - targets
        res = np.sqrt((c * c).sum(axis=-1))
        met = res <= tol
        go = ~met & np.isfinite(res) if k < steps else np.zeros_like(met)
        done, (u, c, J, targets, tol) = live.settle(
            go, (u, c, J, met), (u, c, J, targets, tol))
        if done:
            u, c, J, ok = done
            return u.reshape(B, m, d), c, J, ok
        u = u - np.einsum("bij,bi->bj", J,
                          _solve(J @ J.transpose(0, 2, 1), c))


def _backtrack(state, q, dec, trial):
    """Armijo backtracking per row along the step -q.

    ``state`` is (u, f, ...): the rows' (B, N) iterates, their objective
    and whatever else the stage carries per row; ``dec`` is the predicted
    decrease g^T q.  A row whose ``dec`` exceeds ``DECREASE_TOL`` (1 + f)
    tries alpha = 1, 1/2, ... (at most ``HALVINGS`` halvings) and takes
    the first trial that is feasible and lowers f by at least ``ARMIJO``
    alpha dec.  ``trial(v, t)`` gives the state of the points v, the
    trials of the rows t, laid out as ``state``, and their feasibility.
    Returns (state, moved): a row that takes no trial keeps its own.  When
    every row takes its first trial (alpha = 1, the usual case) the
    trial's arrays are returned as they come, with no copy.
    """
    u, f = state[:2]
    trying = np.flatnonzero(dec > DECREASE_TOL * (1.0 + f))
    new = None
    moved = np.zeros(len(u), dtype=bool)
    for h in range(HALVINGS + 1):
        if not len(trying):
            break
        alpha = 0.5 ** h
        every = len(trying) == len(u)
        t = slice(None) if every else trying
        values, ok = trial(u[t] - alpha * q[t], t)
        ok = ok & (values[1] <= f[t] - ARMIJO * alpha * dec[t])
        if every and ok.all():
            moved[:] = True
            return values, moved
        if new is None:
            new = tuple(a.copy() for a in state)
        hit = trying[ok]
        for a, v in zip(new, values):
            a[hit] = v[ok]
        moved[hit] = True
        trying = trying[~ok]
    return state if new is None else new, moved


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
    if damp.any():  # elsewhere theta = 1 leaves s and sy as they are
        theta = np.ones_like(sy)
        theta[damp] = 0.8 * yMy[damp] / (yMy[damp] - sy[damp])
        s = theta[:, None] * s + (1.0 - theta[:, None]) * My
        sy = theta * sy + (1.0 - theta) * yMy
    rho = np.zeros_like(sy)
    np.divide(1.0, sy, out=rho, where=sy > 0)
    rMy = rho[:, None] * My
    M += s[:, :, None] * ((rho * rho * yMy + rho)[:, None] * s
                          - rMy)[:, None, :]
    M -= rMy[:, :, None] * s[:, None, :]


class _Stop:
    """The solver's per-row stopping rules, tested on projected rows.

    A row's length and energy E = sum_j u_j^T G u_j are taken at unit
    duration per segment and multiplied by the row's ``scale``, which makes
    the length the bound that ``_shortest_paths`` returns for a path that
    needs no closure.  Given a ``radius``, a row stops once its length is
    at most the radius.  Given a ``floor`` per row, a row stops once
    sqrt(m E) is below its floor by more than ``CEILING_SLACK``: from the
    projection on E never rises, since every accepted SQP step passes an
    Armijo test, and by Cauchy-Schwarz the row's final length is at most
    sqrt(m E), so it cannot reach the floor.  ``floored`` marks the rows
    the floor stopped.
    """

    def __init__(self, scale, radius=None, floor=None):
        self.scale, self.radius, self.floor = scale, radius, floor
        self.floored = np.zeros(len(scale), dtype=bool)

    def __call__(self, gram, controls, ok, rows):
        """The rows of ``ok`` that stop; row k of the (B, m, d) ``controls``
        is row ``rows[k]`` of the rules."""
        squares = np.einsum("...i,...i->...", controls @ gram, controls)
        scale = self.scale[rows]
        stop = np.zeros_like(ok)
        if self.radius is not None:
            stop |= np.sum(np.sqrt(squares), axis=-1) * scale <= self.radius
        if self.floor is not None:
            low = ok & (np.sqrt(controls.shape[1] * np.sum(squares, axis=-1))
                        * scale < self.floor[rows] * (1.0 - CEILING_SLACK))
            self.floored[rows[low]] = True
            stop |= low
        return ok & stop


def _energy(gram, controls):
    """The energy sum_j u_j^T G u_j of each row of (B, m, d) ``controls``
    and its gradient 2 (I_m x G) u: (B,) and (B, m * d)."""
    B, m, d = controls.shape
    gu = (controls @ gram).reshape(B, m * d)
    return np.einsum("bi,bi->b", controls.reshape(B, m * d), gu), 2.0 * gu


def _sqp(group, gram, targets, tol, controls, c, J, ok, max_iter, stop):
    """Feasible SQP on the energy subject to z_m(u) = target, per row.

    Iterates the rows ``ok`` of the (B, m, d) ``controls``, which meet
    ``tol``, from their residuals c and Jacobians J; the other rows are
    returned as they are.  Each row keeps an inverse Lagrangian Hessian
    M, started at blockdiag((2G)^-1); it takes the multipliers from
    (J M J^T) lam = c - J M g and the step p = -M (g + J^T lam),
    backtracks on the energy (``_backtrack``, each trial re-projected by
    at most ``TRIAL_STEPS`` Gauss-Newton steps), and updates M from
    y = grad L(u+, lam) - grad L(u, lam).  A row stops, keeping its last
    feasible iterate, when the line search does not move it, after
    ``max_iter`` iterations, or once a rule of ``stop`` (``_Stop``, or
    None) stops an iterate of it, the projected one included.  Returns
    the (B, m, d) controls.
    """
    B, m, d = controls.shape
    N = m * d
    live = _Live(B)
    if stop is not None:
        ok = ok & ~stop(gram, controls, ok, live.rows)
    u = controls.reshape(B, N)
    done, (targets, tol, u, c, J) = live.settle(ok, (u,),
                                                (targets, tol, u, c, J))
    if done:
        return done[0].reshape(B, m, d)
    E, g = _energy(gram, u.reshape(-1, m, d))
    M = np.empty((len(u), N, N))
    M[:] = np.kron(np.eye(m), np.linalg.inv(2.0 * gram))

    def trial(v, t):  # the live rows' targets and tol when it is called
        tu, tc, tJ, feasible = _project(group, v.reshape(-1, m, d),
                                        targets[t], tol[t], TRIAL_STEPS)
        tE, tg = _energy(gram, tu)
        return (tu.reshape(-1, N), tE, tc, tJ, tg), feasible

    for it in range(max_iter):
        MJt = M @ J.transpose(0, 2, 1)
        Mg = np.einsum("bij,bj->bi", M, g)
        lam = _solve(J @ MJt, c - np.einsum("bij,bj->bi", J, Mg))
        # the step is p = -q, and the predicted decrease -g^T p is g^T q
        q = Mg + np.einsum("bij,bj->bi", MJt, lam)
        dec = np.einsum("bi,bi->b", g, q)
        (un, En, cn, Jn, gn), moved = _backtrack((u, E, c, J, g), q, dec,
                                                 trial)
        # every row but the moved ones before the cap stops here
        keep = moved if it + 1 < max_iter else np.zeros_like(moved)
        if stop is not None:
            keep &= ~stop(gram, un.reshape(-1, m, d), keep, live.rows)
        done, (targets, tol, M, lam, u, g, J, un, cn, Jn, En, gn) = (
            live.settle(keep, (un,), (targets, tol, M, lam, u, g, J, un, cn,
                                      Jn, En, gn)))
        if done:
            return done[0].reshape(B, m, d)
        y = gn - g + np.einsum("bij,bi->bj", Jn - J, lam)
        _bfgs_inverse_update(M, un - u, y)
        u, c, J, E, g = un, cn, Jn, En, gn


def _penalty(group, gram, controls, targets, mu):
    """Energy + mu |z_m - target|^2 per row, its gradient and dz_m/du.

    ``controls`` is (B, m, d), ``gram`` the metric on the d controls.
    Returns (value, grad, J): (B,), (B, m * d) and (B, n, m * d), the
    gradient 2 (I_m x G) u + 2 mu J^T (z_m - target) and J from
    ``_endpoint_jacobian``.
    """
    z, J = _endpoint_jacobian(group, controls)
    energy, grad = _energy(gram, controls)
    diff = z - targets
    grad += (2.0 * mu * diff[:, None] @ J)[:, 0]
    return energy + mu * np.einsum("bi,bi->b", diff, diff), grad, J


def _warm(group, gram, targets, controls, mu, max_iter):
    """Damped Gauss-Newton on the penalty f = energy + mu |z_m - target|^2.

    Each row of the (B, m, d) ``controls`` steps by p = -H^-1 grad f with
    the Gauss-Newton matrix H = 2 (I_m x G) + 2 mu J^T J, positive
    definite since G is, and backtracks on f (``_backtrack``); f, its
    gradient and J come from ``_penalty``.  A row stops, keeping its last
    iterate, when the line search does not move it or after ``max_iter``
    iterations.  Every operation is per row, so a row's iterates have the
    same bits in any batch wherever its endpoint and Jacobian do
    (``BLOCK_ROWS``).  Returns the (B, m, d) controls.
    """
    B, m, d = controls.shape
    N = m * d
    curvature = np.kron(np.eye(m), 2.0 * gram)
    live = _Live(B)
    u = controls.reshape(B, N)
    f, g, J = _penalty(group, gram, controls, targets, mu)

    def trial(v, t):  # the live rows' targets when it is called
        return (v, *_penalty(group, gram, v.reshape(-1, m, d), targets[t],
                             mu)), True

    for it in range(max_iter):
        # the step is p = -q, and the predicted decrease -g^T p is g^T q
        q = _solve(curvature + 2.0 * mu * (J.transpose(0, 2, 1) @ J), g)
        dec = np.einsum("bi,bi->b", g, q)
        (u, f, g, J), moved = _backtrack((u, f, g, J), q, dec, trial)
        keep = moved if it + 1 < max_iter else np.zeros_like(moved)
        done, (targets, u, f, g, J) = live.settle(keep, (u,),
                                                  (targets, u, f, g, J))
        if done:
            return done[0].reshape(B, m, d)


def _optimize_controls(group, gram, targets, controls0, budget, stop=None):
    """Minimum-energy controls reaching the targets, per row.

    targets: (B, n); controls0: (B, m, d) with d = gram.shape[0].  On a
    group of step >= 3 a warm stage of damped Gauss-Newton steps per row
    descends on energy + penalty_init * |z_m - target|^2 (``_warm``, at
    most ``WARM_ITER`` iterations); elsewhere the warm point is
    ``controls0``.
    Each row is projected once from its warm point onto z_m(u) = target
    by Gauss-Newton steps, and the projected rows descend by feasible SQP
    (``_sqp``).  A row whose projection fails keeps its warm point, with
    its defect; the callers close the defect.  Returns the (B, m, d)
    controls.

    ``stop`` is None or the rows' stopping rules (``_Stop``): a row stops
    with the first projected path that a rule stops, its projected warm
    point or an SQP iterate, and ``stop.floored`` marks the rows the floor
    stopped.
    """
    tol = PROJECT_TOL * (1.0 + np.linalg.norm(targets, axis=-1))
    warm = controls0
    # On step-2 groups (Heisenberg and free2-3, 200 rows at the membership
    # and the (12, 2, max_iter 30) budgets) the warm stage moves no bound
    # by more than 1.3e-12 relative and adds 14-29% to the solve.  Without
    # it the worst of 96 Engel bounds (the 16 stored targets of
    # perfbench/engel_reference.json, solver seeds 0-5) at (12, 2, 30)
    # goes from 2.02% to 30.9% above the best-known ones.  Those bounds
    # are the same from a cap of 2 iterations up, and the 96 calls take
    # the least time at 6-8 (8: 0.51 s, 30: 0.66 s, 1 BLAS thread).  At
    # the membership budget 200 random Engel targets read 0.34% above
    # their cap-30 bounds on average at a cap of 2, and 0.00-0.05% at
    # 4-8.
    if group.algebra.num_layers > 2:
        warm = _warm(group, gram, targets, controls0, budget.penalty_init,
                     min(budget.max_iter, WARM_ITER))
    controls, c, J, ok = _project(group, warm, targets, tol, PROJECT_STEPS)
    controls[~ok] = warm[~ok]
    return _sqp(group, gram, targets, tol, controls, c, J, ok,
                budget.max_iter, stop)


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


def _dilated_to_unit(space: CCSpace, points, scales, rows):
    """``points`` with the masked ``rows`` dilated by 1 / ``scales``.

    A row whose weight (1 / scale)^k overflows has its layer k multiplied
    by 1 / scale k times instead; the other rows keep their bits.
    """
    inv = 1.0 / np.where(rows, scales, 1.0)
    layer = space.algebra.layer_of
    with np.errstate(over="ignore"):
        weights = inv[:, None] ** layer.astype(float)
    far = np.isinf(weights[:, -1])  # the top layer's weight overflows first
    if not np.any(far):
        return points * weights
    weights[far] = 1.0
    out = points * weights
    near_unit = points[far]
    for k in range(1, int(layer[-1]) + 1):
        near_unit[:, layer >= k] *= inv[far, None]
    out[far] = near_unit
    return out


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
    unit = _dilated_to_unit(space, targets, scales, live)
    rng = np.random.default_rng(seed)
    chunks = []
    for first in range(0, B, CHUNK):
        idx = np.arange(first, min(first + CHUNK, B))
        idx = idx[live[idx]]
        if len(idx):
            chunks.append((idx, _initial_controls(space, unit[idx], budget,
                                                  rng)))
    return _Starts(targets, scales, unit, chunks, budget)


def _certify(space: CCSpace, paths, ends, targets, collect):
    """Bound candidate paths by their length plus their ladder closure's.

    ``paths`` (B, k, d1) are unit-duration control displacements ending at
    ``ends``, and ``targets`` are at unit homogeneous norm or 0.  A row's
    bound is inf unless its closed residual is finite and within
    ``ACCEPT_TOL`` (1 + |target|).  Returns (upper, residual, closed),
    ``closed`` the paths followed by their closures if ``collect``.
    """
    extra, _, res, segs = close_defect_batch(space, ends, targets, collect)
    upper = np.sum(space.metric.norm(paths), axis=-1) + extra
    accept = np.isfinite(res) & (res <= ACCEPT_TOL * (1.0 + _euclid(targets)))
    upper[~accept] = np.inf
    if not collect:
        return upper, res, None
    return upper, res, np.concatenate([paths] + [u[:, None] for u in segs],
                                      axis=1)


def _bound_rows(space: CCSpace, starts: _Starts, chunk, pick=slice(None),
                radius=None, floor=None):
    """Bound the rows ``pick`` of chunk ``chunk`` of ``starts`` in one batch.

    The one upper-bound rule: per row the shortest path that ``_certify``
    accepts at unit norm is kept, over the optimized starts and, where
    its floor (``_unit_floor``) is below them all, the straight segment
    (``_straight_ladder``).  Returns (upper, residual, kept, floored) for
    those rows: ``upper`` is the kept path's length, inf where none is
    accepted, ``kept`` the kept paths as unit-duration control
    displacements, (len(rows), k, d1), and ``floored`` the rows with a
    start that the ``floor`` (one per row) stopped, whose bound is then
    certified below the floor (``_Stop``).  A row's bound does not
    depend on the other rows up to ``POLY_CONTROLS`` controls; above it
    the block size of the prefix products on 3-layer groups follows the
    batch (``BLOCK_ROWS``).
    """
    budget = starts.budget
    rows, inits = starts.chunks[chunk]
    rows, inits = rows[pick], inits[:, pick]
    scales, tg = starts.scales[rows], starts.unit[rows]
    S, b = budget.starts, len(rows)
    stacked = np.tile(tg, (S, 1))
    stop = None
    if radius is not None or floor is not None:
        stop = _Stop(np.tile(scales, S), radius,
                     None if floor is None else np.tile(floor, S))
    controls = _optimize_controls(
        space.group, space.metric.gram, stacked,
        inits.reshape(S * b, budget.segments, -1), budget, stop)
    ends = path_endpoints_batch(space.group, controls)
    total, res, closed = _certify(space, controls, ends, stacked, True)
    total, res = total.reshape(S, b), res.reshape(S, b)
    best = np.argmin(total, axis=0)
    cols = np.arange(b)
    upper, residual = total[best, cols], res[best, cols]
    kept = closed.reshape(S, b, -1, space.d1)[best, cols]
    gate = np.flatnonzero(_unit_floor(space, tg) < upper)
    upper, kept = upper * scales, scales[:, None, None] * kept
    if len(gate):
        line, line_res, line_path = _straight_ladder(
            space, starts.targets[rows[gate]], collect=True)
        won = line < upper[gate]
        if np.any(won):
            upper[gate[won]], residual[gate[won]] = line[won], line_res[won]
            kept = _merged(kept, gate[won], line_path[won])
    floored = (np.zeros(b, dtype=bool) if floor is None
               else stop.floored.reshape(S, b).any(axis=0))
    return upper, residual, kept, floored


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
        upper[idx], residual[idx], kept, _ = _bound_rows(
            space, starts, chunk, radius=radius)
        paths.append((idx, kept))
    return upper, residual, paths


def _merged(paths, rows, more):
    """(B, k, d1) ``paths`` with the rows ``rows`` replaced by ``more``.

    The shorter of the two stacks is padded with zero controls, which
    move nothing and add no length.
    """
    width = max(paths.shape[1], more.shape[1])
    out = np.pad(paths, ((0, 0), (0, width - paths.shape[1]), (0, 0)))
    out[rows] = np.pad(more, ((0, 0), (0, width - more.shape[1]), (0, 0)))
    return out


def _straight_ladder(space: CCSpace, points, collect=False):
    """The straight segment to each point plus its ladder closure,
    certified at unit homogeneous norm (``_certify``) as every candidate
    path is.  Returns (upper, residual, path): the length dilated back,
    inf where it is not accepted, the residual at unit norm and, if
    ``collect``, the dilated path as (B, k, d1) unit-duration controls.
    """
    unit, dilation = _at_unit(space, points)
    u1 = unit[:, None, : space.d1]
    upper, res, path = _certify(space, u1, space.embed_horizontal(u1[:, 0]),
                                unit, collect)
    upper *= dilation
    if collect:
        path *= dilation[:, None, None]
    return upper, res, path


def _at_unit(space: CCSpace, points):
    """``points`` dilated to unit homogeneous norm, and per row the
    dilation back: its norm, or 1 on a zero or non-finite row."""
    points = np.atleast_2d(space.algebra.vector(points))
    scales = space.homogeneous_norm(points)
    live = np.isfinite(scales) & (scales > 0)
    return (_dilated_to_unit(space, points, scales, live),
            np.where(live, scales, 1.0))


def certified_upper_cheap(space: CCSpace, points):
    """Vectorized certified upper bound: straight segment plus ladder loops."""
    return _straight_ladder(space, points)[0]


def _unit_floor(space: CCSpace, unit):
    """Per row of ``unit``, at unit homogeneous norm or 0, a floor under
    its straight segment's bound that forms no group product: the
    segment's length plus the layer-2 loops of the closure's first pass
    (``LadderPlan.layer2_floor``), less ``FLOOR_SLACK`` relative, since
    every later move only adds length."""
    floor = space.metric.norm(unit[:, : space.d1])
    if space.algebra.num_layers > 1:
        floor = floor + space.ladder().layer2_floor(unit)
    return floor * (1.0 - FLOOR_SLACK)


def ladder_floor(space: CCSpace, points):
    """Per point, ``_unit_floor`` dilated back: a closed-form floor under
    ``certified_upper_cheap``, so a point it puts above a radius skips
    the ladder."""
    unit, dilation = _at_unit(space, points)
    return _unit_floor(space, unit) * dilation


def cc_upper_batch(space: CCSpace, targets, budget=None, seed=0,
                   radius=None):
    """Certified upper bounds d_cc(e^0, target) for a batch of targets.

    Returns (upper, residual): ``upper`` is the exact length of a feasible
    witness, the shorter of the optimized path and the straight segment,
    each plus the exact ladder closure of its defect (``_bound_rows``);
    ``residual`` the final coordinate mismatch at unit homogeneous norm,
    where every row is bounded, ~1e-12.  Raises OptimizerFailure only for
    rows where both are infeasible, and InputError for a non-finite target.

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
    _check_finite(upper, residual)
    return upper, residual


def _check_finite(upper, residual):
    if np.any(~np.isfinite(upper)):
        bad = int(np.sum(~np.isfinite(upper)))
        raise OptimizerFailure(
            f"{bad} of {len(upper)} targets failed to reach endpoint tolerance",
            residual=residual,
        )


def cc_upper_max(space: CCSpace, targets, budget=None, seed=0):
    """Per cell, the largest certified upper bound over the cell's targets.

    ``targets`` is (cells, k, n).  Returns (upper, floored): ``upper``
    (cells,) is ``cc_upper_batch`` on the flattened batch, reshaped to
    (cells, k) and maximized over axis 1, with the same bits up to
    ``POLY_CONTROLS`` controls; above it the block size of the prefix
    products on 3-layer groups follows the live rows (``BLOCK_ROWS``),
    which moves it by roundoff.  ``floored`` (cells, k) marks the rows a
    floor stopped or decided.  Raises OptimizerFailure where ``cc_upper_batch`` does, with
    the flattened batch's residuals (0 on a row the ladder decided).

    The maxima are found by branch and bound over the rows, from the
    starts the flattened batch draws (``_draw_starts``).  A cell's floor
    starts at the largest certified lower bound of its rows, which the
    cell's maximum does not read below by ``CEILING_SLACK``.  Each cell's
    row with the largest lower bound is bounded first, and its bound
    raises the cell's floor.  Then every row gets its ladder bound, and a
    row whose ladder bound is below its cell's floor by more than
    ``CEILING_SLACK`` is decided by it: it cannot set the maximum, and
    reaches no solver.  The other rows are bounded, each stopping as soon
    as its energy certifies that it cannot reach its cell's floor
    (``_Stop``), so only a row that can set the maximum runs the solver to
    the end.
    """
    if budget is None:
        budget = OptimizerBudget()
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 3 or 0 in targets.shape[:2]:
        raise InputError(f"targets must be (cells, k, n) with cells and k "
                         f"positive, got shape {targets.shape}")
    cells, k, _ = targets.shape
    starts = _draw_starts(space, targets.reshape(cells * k, -1), budget, seed)
    lower = lower_bounds_batch(space, starts.targets).reshape(cells, k)
    floor = np.max(lower, axis=1)
    upper = np.zeros(cells * k)
    residual = np.zeros(cells * k)
    floored = np.zeros(cells * k, dtype=bool)
    lead = np.zeros(cells * k, dtype=bool)
    lead[np.argmax(lower, axis=1) + k * np.arange(cells)] = True

    def bound(chosen):
        for chunk, (idx, _) in enumerate(starts.chunks):
            pick = np.flatnonzero(chosen[idx])
            if len(pick):
                rows = idx[pick]
                upper[rows], residual[rows], _, floored[rows] = _bound_rows(
                    space, starts, chunk, pick, floor=floor[rows // k])

    bound(lead)
    ladder = certified_upper_cheap(space, starts.targets)
    floor = np.maximum(floor, np.max(upper.reshape(cells, k), axis=1))
    decided = ~lead & (ladder < np.repeat(floor, k) * (1.0 - CEILING_SLACK))
    upper[decided], floored[decided] = ladder[decided], True
    bound(~lead & ~decided)
    _check_finite(upper, residual)
    return np.max(upper.reshape(cells, k), axis=1), floored.reshape(cells, k)


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
    """Two-sided certified estimate of d_cc(x, y).

    The upper bound is the exact length of the witness, the shorter of
    the shortest optimized path from x to y and the straight segment,
    each with its ladder closure.  Raises OptimizerFailure, with the best
    infeasible path attached, if neither meets the endpoint tolerance.
    The lower bound is ``lower_bounds_batch``'s, at most the upper one,
    and ``lower_method`` names its largest term: "abelianization",
    "dido", "signature" or "ball-box".
    """
    if budget is None:
        budget = OptimizerBudget()
    x = space.algebra.vector(x)
    delta = space.group.difference(x, y)
    upper, residual, paths = _shortest_paths(space, delta, budget, seed)
    if paths:
        controls = paths[0][1][0]
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
        length = witness.length(space)
        upper_method = (f"path-optimizer(m={budget.segments},"
                        f"starts={budget.starts})")
    else:  # x == y
        witness = ControlPath(np.zeros(0), np.zeros((0, space.d1)), x)
        length, upper_method = 0.0, "trivial"
    method, lower = max(_lower_terms(space, delta[None, :], ballbox),
                        key=lambda term: term[1][0])
    return DistanceEstimate(
        lower=float(min(lower[0], length)),
        upper=length,
        witness=witness,
        lower_method=method,
        upper_method=upper_method,
        endpoint_residual=float(residual[0]),
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
    vs = _at_unit(space, raw)[0]
    starts = _draw_starts(space, vs, OptimizerBudget(segments=12, starts=2),
                          int(rng.integers(2**32)))
    hnorm = starts.scales  # the homogeneous norms of vs
    ceiling = hnorm / lower_bounds_batch(space, vs)
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

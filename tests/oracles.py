"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's own group product and path
optimizer:

* ``UEAOracle`` builds the left regular representation of a graded
  nilpotent algebra on its universal enveloping algebra truncated at the
  weighted degree equal to the nilpotency degree.  The representation is
  faithful on the algebra, so log(expm . expm) read off against the unit
  monomial gives the group product with no reference to Baker's integral.
* ``min_loop_length`` solves the planar isoperimetric problem (shortest
  closed loop with prescribed signed area) on polygon vertices, which is
  the Heisenberg vertical-distance oracle.
* ``heisenberg_distance`` is the closed-form Heisenberg CC distance
  (Montgomery, *A Tour of Subriemannian Geometries*, 2002): a shortest
  path to (x, y, z) projects to a circular arc over the chord from 0 to
  (x, y) enclosing signed area z (Dido's problem).

Two checkers of the derivate lab's contracts read the library's results
instead: ``check_lipschitz`` tests a declared ``LipschitzDistance`` on
random pairs against the certified upper bound, and ``check_homogeneity``
compares derivates along tau v with |tau| times the one along v.
"""

import itertools

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from carnot.algebra import nilpotency_degree
from carnot.errors import LipschitzViolation
from carnot.measure import certified_upper_cheap


class UEAOracle:
    def __init__(self, algebra):
        self.algebra = algebra
        self.k = nilpotency_degree(algebra)
        weights = algebra.layer_of
        n = algebra.dim

        # PBW basis: nondecreasing index words with weighted degree <= k
        monos = [()]
        frontier = [()]
        while frontier:
            new = []
            for w in frontier:
                lo = w[-1] if w else 0
                for i in range(lo, n):
                    cand = w + (i,)
                    if sum(weights[j] for j in cand) <= self.k:
                        new.append(cand)
            monos.extend(new)
            frontier = new
        self.monos = monos
        self.index = {w: i for i, w in enumerate(monos)}
        self._wdeg = lambda w: sum(weights[j] for j in w)

        # left multiplication matrices for each basis element
        self.left = []
        for i in range(n):
            mat = np.zeros((len(monos), len(monos)))
            for col, w in enumerate(monos):
                for word, coeff in self._reduce((i,) + w).items():
                    mat[self.index[word], col] += coeff
            self.left.append(mat)

    def _reduce(self, word, coeff=1.0):
        """Normal-order ``word`` into PBW monomials, truncating by weight."""
        if self._wdeg(word) > self.k:
            return {}
        for p in range(len(word) - 1):
            if word[p] > word[p + 1]:
                i, j = word[p + 1], word[p]
                swapped = word[:p] + (i, j) + word[p + 2:]
                out = self._reduce(swapped, coeff)
                br = self.algebra.structure[word[p], word[p + 1]]
                for l in np.nonzero(br)[0]:
                    sub = word[:p] + (int(l),) + word[p + 2:]
                    for mono, c in self._reduce(sub, coeff * br[l]).items():
                        out[mono] = out.get(mono, 0.0) + c
                return out
        return {word: coeff}

    def rep(self, x):
        return sum(xi * mat for xi, mat in zip(x, self.left))

    def _log_unipotent(self, m):
        a = m - np.eye(m.shape[0])
        out = np.zeros_like(m)
        power = np.eye(m.shape[0])
        for p in range(1, len(self.monos) + 1):
            power = power @ a
            if not np.any(power):
                break
            out += ((-1) ** (p + 1) / p) * power
        return out

    def bch(self, x, y):
        """Group product in exponential coordinates via matrix exp/log."""
        prod = expm(self.rep(x)) @ expm(self.rep(y))
        logm = self._log_unipotent(prod)
        # L(z) applied to the unit monomial () recovers z itself
        col = logm[:, self.index[()]]
        z = np.zeros(self.algebra.dim)
        for i in range(self.algebra.dim):
            z[i] = col[self.index[(i,)]]
        return z


def min_loop_length(area, vertices=96, seed=0):
    """Length of the shortest closed planar loop enclosing signed area ``area``.

    Independent oracle for the Heisenberg distance to a purely vertical
    target: optimizes free polygon vertices with an exact area constraint.
    """
    rng = np.random.default_rng(seed)
    th = np.linspace(0.0, 2 * np.pi, vertices, endpoint=False)
    r0 = np.sqrt(abs(area) / np.pi)
    pts0 = np.stack([r0 * np.cos(th), r0 * np.sin(th)], axis=1)
    pts0 += 0.01 * r0 * rng.standard_normal(pts0.shape)

    def perimeter(flat):
        p = flat.reshape(-1, 2)
        d = np.roll(p, -1, axis=0) - p
        return np.sum(np.hypot(d[:, 0], d[:, 1]))

    def perimeter_grad(flat):
        # vertex i ends edge i - 1 and starts edge i
        p = flat.reshape(-1, 2)
        d = np.roll(p, -1, axis=0) - p
        unit = d / np.hypot(d[:, 0], d[:, 1])[:, None]
        return (np.roll(unit, 1, axis=0) - unit).ravel()

    def signed_area(flat):
        p = flat.reshape(-1, 2)
        q = np.roll(p, -1, axis=0)
        return 0.5 * np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]) - area

    def signed_area_grad(flat):
        # d/dx_i = (y_{i+1} - y_{i-1}) / 2, d/dy_i = (x_{i-1} - x_{i+1}) / 2
        p = flat.reshape(-1, 2)
        diff = np.roll(p, -1, axis=0) - np.roll(p, 1, axis=0)
        return 0.5 * np.stack([diff[:, 1], -diff[:, 0]], axis=1).ravel()

    res = minimize(
        perimeter,
        pts0.ravel(),
        jac=perimeter_grad,
        constraints=[{"type": "eq", "fun": signed_area,
                      "jac": signed_area_grad}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    return res.fun


def heisenberg_distance(points):
    """Exact CC distance from the identity to each row (x, y, z).

    With r = |(x, y)| the arc's central angle phi solves
    |z| / r^2 = (phi - sin phi) / (8 sin^2(phi / 2)), increasing on
    (0, 2 pi), and d = r phi / (2 sin(phi / 2)); for r = 0 the arc closes
    into a circle and d = sqrt(4 pi |z|).
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(p[:, 0], p[:, 1])
    z = np.abs(p[:, 2])
    out = np.sqrt(4.0 * np.pi * z)
    planar = r > 0
    ratio = z[planar] / r[planar] ** 2
    lo = np.zeros_like(ratio)
    hi = np.full_like(ratio, 2.0 * np.pi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        safe = np.where(mid > 0, mid, 1.0)
        area = np.where(mid > 0, (safe - np.sin(safe))
                        / (8.0 * np.sin(safe / 2.0) ** 2), 0.0)
        hi = np.where(area > ratio, mid, hi)
        lo = np.where(area > ratio, lo, mid)
    phi = 0.5 * (lo + hi)
    safe = np.where(phi > 1e-12, phi, 1.0)
    out[planar] = r[planar] * np.where(
        phi > 1e-12, safe / (2.0 * np.sin(safe / 2.0)), 1.0)
    return out


def check_lipschitz(d, space, samples, seed, scale=1.0):
    """Check symmetry, triangle inequality, Lipschitz bound on samples.

    ``d`` is a ``LipschitzDistance``; the pairs are standard normal
    coordinates times ``scale``.  Raises LipschitzViolation naming the
    first offending pair.
    """
    rng = np.random.default_rng(seed)
    n = space.algebra.dim
    xs = scale * rng.standard_normal((samples, n))
    ys = scale * rng.standard_normal((samples, n))
    zs = scale * rng.standard_normal((samples, n))
    dxy = d(xs, ys)
    dyx = d(ys, xs)
    bad = np.abs(dxy - dyx) > d.tol * (1 + np.abs(dxy))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise LipschitzViolation(
            f"{d.name}: symmetry violated, d(x,y)={dxy[i]} "
            f"d(y,x)={dyx[i]}", pair=(xs[i], ys[i]),
        )
    dxz = d(xs, zs)
    dzy = d(zs, ys)
    bad = dxy > dxz + dzy + 1e-9 * (1 + dxy)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise LipschitzViolation(
            f"{d.name}: triangle inequality violated by "
            f"{dxy[i] - dxz[i] - dzy[i]}", pair=(xs[i], ys[i]),
        )
    deltas = space.group.bch(-xs, ys)
    cc_up = certified_upper_cheap(space, deltas)
    bad = dxy > d.L * cc_up + d.tol
    if np.any(bad):
        i = int(np.argmax(bad))
        raise LipschitzViolation(
            f"{d.name}: Lipschitz bound violated, d={dxy[i]} > "
            f"{d.L} * {cc_up[i]}", pair=(xs[i], ys[i]),
        )
    return True


def check_homogeneity(base, scaled):
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

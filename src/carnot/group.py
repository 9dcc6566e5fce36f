"""Group arithmetic in exponential coordinates.

Elements of a simply connected nilpotent group are identified with their
exponential coordinates, so an element is just a coefficient vector and
the group product is log(e^x e^y).  It is computed from Baker's integral
form of the BCH formula,

    log(e^x e^y) = x + int_0^1 L(e^{ad x} e^{t ad y}) y dt,
    L(u) = u log u / (u - 1),

where e^{ad x} e^{t ad y} - I is nilpotent, so every series involved is
a finite polynomial and the integrand a polynomial in t that Gauss-
Legendre quadrature integrates exactly.  Truncation at the nilpotency
degree is exact, so products of arbitrarily far apart elements need no
special handling.

Derivatives of the product come in closed form from the derivative of
exp: with psi(A) = A / (1 - e^{-A}) and phi(A) = (1 - e^{-A}) / A, both
truncated at the nilpotency degree, z = bch(x, y) has Jacobians
psi(-ad z) phi(-ad x) and psi(ad z) phi(ad y).  ``horner`` applies such
a matrix series to row vectors; the product, the Jacobians and the path
optimizer's gradient all go through it.
"""

from __future__ import annotations

import numpy as np

from .algebra import GradedAlgebra, nilpotency_degree
from .errors import InputError

MAX_BCH_ORDER = 6

# Taylor coefficients up to A^5, enough for nilpotent arguments of
# degree <= MAX_BCH_ORDER: psi(A) = A / (1 - e^{-A}),
# phi(A) = (1 - e^{-A}) / A, e^A and L(1 + A) = (1 + A) log(1 + A) / A.
PSI = (1.0, 1 / 2, 1 / 12, 0.0, -1 / 720, 0.0)
PHI = (1.0, -1 / 2, 1 / 6, -1 / 24, 1 / 120, -1 / 720)
EXP = (1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120)
LOG = (1.0, 1 / 2, -1 / 6, 1 / 12, -1 / 20, 1 / 30)


class BchTable:
    """Precompiled BCH evaluation plan for one algebra.

    The plan truncates every series at the algebra's nilpotency degree D
    and keeps the max(1, (D - 1) // 2) Gauss-Legendre nodes on [0, 1] that
    integrate Baker's integrand exactly.
    """

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self.degree = nilpotency_degree(algebra)
        if self.degree > MAX_BCH_ORDER:
            raise InputError(
                f"{algebra.name}: nilpotency degree {self.degree} exceeds the "
                f"tabulated BCH order {MAX_BCH_ORDER}"
            )
        # ad is nilpotent of this degree, so the series stop before A^degree
        self.psi = PSI[: self.degree]
        self.phi = PHI[: self.degree]
        self.exp = EXP[: self.degree]
        self.log = LOG[: self.degree]
        # the integrand d/dt log(e^x e^{ty}) has degree <= D - 2 in t: a
        # term with k copies of y also holds an x, so k + 1 <= D.  Its
        # t^{D-2} coefficient is a multiple of the Bernoulli number
        # B_{D-1}, which is 0 for even D, so the degree is at most
        # 2 ((D - 1) // 2) - 1 and (D - 1) // 2 nodes integrate it exactly
        n_nodes = max(1, (self.degree - 1) // 2)
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        self.nodes = (nodes + 1) / 2
        self.weights = weights / 2

    def _check(self, x, y):
        x = self.algebra.vector(x)
        y = self.algebra.vector(y)
        return x, y

    def bch(self, x, y):
        """The product e^x e^y = e^(x ⊛ y), batched over leading axes.

        Baker's formula x ⊛ y = x + int_0^1 L(e^{ad x} e^{t ad y}) y dt,
        integrated exactly by the table's quadrature nodes.
        """
        x, y = self._check(x, y)
        ad = self.algebra.ad
        eye = np.eye(self.algebra.dim)
        ex = horner(eye, ad(x), self.exp)
        ady = ad(y)
        rows = y[..., None, :]
        z = x
        for t, w in zip(self.nodes, self.weights):
            # horner acts on rows, so L(u) y is computed as y^T L(u^T)
            ut = np.swapaxes(horner(ex, t * ady, self.exp) - eye, -1, -2)
            z = z + w * horner(rows, ut, self.log)[..., 0, :]
        return z

    def jacobians(self, x, y):
        """Jacobian matrices (J_x, J_y) of bch(x, y), batched.

        Each is an (..., n, n) array with J[..., l, j] = d z_l / d x_j.
        With z = bch(x, y), J_x = psi(-ad z) phi(-ad x) and
        J_y = psi(ad z) phi(ad y) (derivative of exp).
        """
        x, y = self._check(x, y)
        ad = self.algebra.ad
        adz = ad(self.bch(x, y))
        eye = np.broadcast_to(np.eye(self.algebra.dim), adz.shape)
        jx = horner(horner(eye, -adz, self.psi), ad(-x), self.phi)
        jy = horner(horner(eye, adz, self.psi), ad(y), self.phi)
        return jx, jy


def horner(rows, a, coeffs):
    """rows @ sum_k coeffs[k] a^k by Horner's rule, batched.

    ``rows`` is (..., r, n) and ``a`` is (..., n, n).
    """
    out = coeffs[-1] * rows
    for c in coeffs[-2::-1]:
        out = out @ a + c * rows
    return out


def identity(algebra: GradedAlgebra):
    return np.zeros(algebra.dim)


def inverse(x):
    """Inverse of e^x is e^{-x}."""
    return -np.asarray(x, dtype=float)


def dilate(algebra: GradedAlgebra, t, x):
    """The dilation h_t: layer-i component scaled by t^i.

    Negative t follows the convention h_{-|t|} g = h_{|t|} g^{-1}, which
    is nonstandard; for purely layer-1 coordinates it coincides with
    plain scaling by t.
    """
    x = algebra.vector(x)
    t = float(t)
    if t < 0:
        x = -x
        t = -t
    weights = t ** algebra.layer_of.astype(float)
    return x * weights


def conjugate(table: BchTable, g, x):
    """g^{-1} x g in exponential coordinates."""
    return table.bch(table.bch(inverse(g), x), g)


class CarnotGroup:
    """An algebra bundled with its compiled BCH table.

    Thin convenience wrapper; all operations are pure and the object is
    immutable after construction.
    """

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self.table = BchTable(algebra)

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def name(self):
        return self.algebra.name

    def identity(self):
        return identity(self.algebra)

    def bch(self, x, y):
        return self.table.bch(x, y)

    def bch_many(self, elements):
        """Left-to-right product of a sequence of elements."""
        out = None
        for e in elements:
            out = e if out is None else self.table.bch(out, e)
        if out is None:
            return self.identity()
        return np.asarray(out, dtype=float)

    def inverse(self, x):
        return inverse(self.algebra.vector(x))

    def dilate(self, t, x):
        return dilate(self.algebra, t, x)

    def conjugate(self, g, x):
        return conjugate(self.table, g, x)

    def difference(self, x, y):
        """x^{-1} y: the displacement taking x to y."""
        return self.table.bch(self.inverse(x), y)

    def __repr__(self):
        return f"CarnotGroup({self.algebra.name!r})"

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

No ad matrix is formed.  The integrand is applied to y as a chain of
brackets, and the series act on row vectors through the coadjoint row
action v -> v ad(x); both come from the algebra's ``BracketKernel``,
which touches only the nonzero structure constants.  Derivatives of the
product come in closed form from the derivative of exp: with
psi(A) = A / (1 - e^{-A}) and phi(A) = (1 - e^{-A}) / A, both truncated
at the nilpotency degree, z = bch(x, y) has Jacobians
psi(-ad z) phi(-ad x) and psi(ad z) phi(ad y).  ``row_series`` applies
such a series to rows by Horner's rule; the Jacobians go through it, and
so does the path optimizer's pullback of covectors with content above
layer 2 on groups of step >= 4 and on long paths.  On groups of step
<= 3 the optimizer evaluates a path's endpoint as a polynomial, whose
coefficients it keeps on the table (``BchTable.endpoint_polynomials``).
"""

from __future__ import annotations

import numpy as np

from .algebra import BracketKernel, GradedAlgebra, nilpotency_degree
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

    The plan truncates every series at the algebra's nilpotency degree D,
    keeps the max(1, (D - 1) // 2) Gauss-Legendre nodes on [0, 1] that
    integrate Baker's integrand exactly, and holds the bracket kernel of
    the layer-1 x layer-1 -> layer-2 block for the path prefix sums and,
    per control dimension, the layer-2 structure constants that pull
    covectors back along a path (``bracket_rows``).  The path optimizer
    keeps its endpoint polynomials here too, one per step count and
    control dimension, so they live as long as the group.
    """

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self.degree = nilpotency_degree(algebra)
        if self.degree > MAX_BCH_ORDER:
            raise InputError(
                f"{algebra.name}: nilpotency degree {self.degree} exceeds the "
                f"tabulated BCH order {MAX_BCH_ORDER}"
            )
        # ad is nilpotent of this degree, so the series stop before A^degree;
        # trailing zero coefficients would only cost kernel steps
        self.psi = _trim(PSI[: self.degree])
        self.phi = _trim(PHI[: self.degree])
        self.exp = EXP[: self.degree]
        # L's A^1 term multiplies A y, which is 0 on an abelian algebra
        self.log = LOG[: max(self.degree, 2)]
        # the integrand d/dt log(e^x e^{ty}) has degree <= D - 2 in t: a
        # term with k copies of y also holds an x, so k + 1 <= D.  Its
        # t^{D-2} coefficient is a multiple of the Bernoulli number
        # B_{D-1}, which is 0 for even D, so the degree is at most
        # 2 ((D - 1) // 2) - 1 and (D - 1) // 2 nodes integrate it exactly
        n_nodes = max(1, (self.degree - 1) // 2)
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        self.nodes = (nodes + 1) / 2
        self.weights = weights / 2
        d1 = algebra.layer_dims[0]
        top = sum(algebra.layer_dims[:2])
        self.layer2 = BracketKernel(algebra.structure[:d1, :d1, d1:top])
        self._bracket_rows = {}
        # per (m, d): the endpoint polynomial of m steps of d controls,
        # which the path optimizer forms on first use
        self.endpoint_polynomials = {}

    def bracket_rows(self, d):
        """The (d2, d1 d) matrix K[l, (i, k)] = c[i, k, l] / 2, cached per d.

        i runs over layer 1, l over layer 2 and k over the first d
        coordinates, so a layer-2 covector w pulls the map
        u -> [a, u] / 2 back to the row a (w K) for a layer-1 vector a,
        w K read as a (d1, d) matrix.
        """
        if d not in self._bracket_rows:
            a = self.algebra
            d1 = a.layer_dims[0]
            block = a.structure[:d1, :d, d1:sum(a.layer_dims[:2])]
            self._bracket_rows[d] = 0.5 * np.ascontiguousarray(
                block.transpose(2, 0, 1)).reshape(-1, d1 * d)
        return self._bracket_rows[d]

    def _check(self, x, y):
        x = self.algebra.vector(x)
        y = self.algebra.vector(y)
        return x, y

    def bch(self, x, y):
        """The product e^x e^y = e^(x ⊛ y), batched over leading axes.

        Baker's formula x ⊛ y = x + int_0^1 L(e^{ad x} e^{t ad y}) y dt,
        integrated exactly by the table's quadrature nodes.  With
        A = e^{ad x} e^{t ad y} - I, the powers p_k = A^k y lie in the
        k-th term of the lower central series, so A p_{k-1} needs the
        exponential series only up to ad^(D - k), and e^{t ad y} y = y
        makes A y = (e^{ad x} - I) y the same at every node.
        """
        x, y = self._check(x, y)
        kernel = self.algebra.kernel
        xs, ys = kernel.factor(x), kernel.factor(y)
        ay = _expm1(kernel, xs, y, self.degree - 1)
        z = x
        for t, w in zip(self.nodes, self.weights):
            tys = t * ys
            p = ay
            integrand = y + self.log[1] * ay
            for k in range(2, self.degree):
                g = _expm1(kernel, tys, p, self.degree - k)
                p = _expm1(kernel, xs, p + g, self.degree - k) + g
                integrand = integrand + self.log[k] * p
            z = z + w * integrand
        return z

    def jacobians(self, x, y):
        """Jacobian matrices (J_x, J_y) of bch(x, y), batched.

        Each is an (..., n, n) array with J[..., l, j] = d z_l / d x_j.
        With z = bch(x, y), J_x = psi(-ad z) phi(-ad x) and
        J_y = psi(ad z) phi(ad y) (derivative of exp), formed by the
        row action on the identity's rows.
        """
        x, y = self._check(x, y)
        n = self.algebra.dim
        shape = np.broadcast_shapes(x.shape, y.shape)
        x, y = (np.broadcast_to(v, shape).reshape(-1, n) for v in (x, y))
        kernel = self.algebra.kernel
        # one row of the identity per row of the batch, as a 2-D stack
        eye = np.tile(np.eye(n), (len(x), 1))
        zf = kernel.factor(self.bch(x, y))
        jacs = []
        for v, sign in ((x, -1.0), (y, 1.0)):
            zs = np.repeat(sign * zf, n, axis=0)
            vs = np.repeat(kernel.factor(sign * v), n, axis=0)
            rows = row_series(kernel, row_series(kernel, eye, zs, self.psi),
                              vs, self.phi)
            jacs.append(rows.reshape(shape + (n,)))
        return tuple(jacs)


def _trim(coeffs):
    """``coeffs`` without trailing zeros."""
    while coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _expm1(kernel, xs, p, q):
    """(e^{ad x} - I) p = sum_{r=1}^{q} ad(x)^r p / r! by Horner's rule.

    ``xs`` is x's kernel factor; p is nested q brackets deep at most.
    """
    h = p
    for r in range(q, 1, -1):
        h = p + kernel.bracket(xs, h) / r
    return kernel.bracket(xs, h)


def row_series(kernel, rows, xs, coeffs):
    """rows sum_k coeffs[k] ad(x)^k by Horner's rule, batched.

    ``xs`` is x's kernel factor and broadcasts against ``rows``; a zero
    coefficient costs no add.
    """
    out = coeffs[-1] * rows
    for c in coeffs[-2::-1]:
        out = kernel.coadjoint(xs, out)
        if c:
            out = out + c * rows
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

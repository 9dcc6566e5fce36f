"""Group arithmetic in exponential coordinates.

Elements of a simply connected nilpotent group are identified with their
exponential coordinates, so an element is just a coefficient vector and
the group product is the (finitely truncated) BCH series.  The series is
precompiled per algebra into a flat list of (coefficient, word) terms
where a word is a tuple over {0, 1} (0 = left factor, 1 = right factor)
evaluated as a left-normed nested bracket.  Truncation at the nilpotency
degree is exact, so products of arbitrarily far apart elements need no
special handling.

Derivatives of the product come in closed form from the derivative of
exp: with psi(A) = A / (1 - e^{-A}) and phi(A) = (1 - e^{-A}) / A, both
truncated at the nilpotency degree, z = bch(x, y) has Jacobians
psi(-ad z) phi(-ad x) and psi(ad z) phi(ad y).  ``horner`` applies such
a matrix series to row vectors, which is how the path optimizer pulls
gradients back without forming Jacobians.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import GradedAlgebra, nilpotency_degree
from .errors import InputError

MAX_BCH_ORDER = 6

# Taylor coefficients of the derivative-of-exp series up to A^5, enough
# for ad-nilpotent arguments of degree <= MAX_BCH_ORDER:
# psi(A) = A / (1 - e^{-A}), phi(A) = (1 - e^{-A}) / A and e^A.
PSI = (1.0, 1 / 2, 1 / 12, 0.0, -1 / 720, 0.0)
PHI = (1.0, -1 / 2, 1 / 6, -1 / 24, 1 / 120, -1 / 720)
EXP = (1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120)


@lru_cache(maxsize=None)
def dynkin_word_coefficients(order):
    """Coefficients of the BCH series as left-normed bracket words.

    Returns a dict mapping words (tuples over {0, 1}, 0 = X, 1 = Y) of
    length <= order to exact Fraction coefficients, such that

        log(e^X e^Y) = sum_w  coeff[w] * [w_1, [w_2, [..., w_m]...]]

    modulo brackets of depth > order.  Words whose left-normed bracket
    vanishes identically (repeated trailing letter) are dropped.
    """
    if order > MAX_BCH_ORDER:
        raise InputError(
            f"BCH coefficients only tabulated up to order {MAX_BCH_ORDER}"
        )
    coeffs = {}

    def _fact(m):
        out = 1
        for i in range(2, m + 1):
            out *= i
        return out

    def recurse(blocks, remaining):
        for p in range(remaining + 1):
            for q in range(remaining - p + 1):
                if p + q == 0:
                    continue
                new_blocks = blocks + ((p, q),)
                _emit(new_blocks)
                recurse(new_blocks, remaining - p - q)

    def _emit(blocks):
        word = ()
        denom = 1
        for p, q in blocks:
            word += (0,) * p + (1,) * q
            denom *= _fact(p) * _fact(q)
        n = len(blocks)
        term = Fraction((-1) ** (n - 1), n) * Fraction(1, len(word) * denom)
        coeffs[word] = coeffs.get(word, Fraction(0)) + term

    recurse((), order)

    pruned = {}
    for word, coeff in coeffs.items():
        if coeff == 0:
            continue
        if len(word) >= 2 and word[-1] == word[-2]:
            continue  # innermost bracket [a, a] = 0
        pruned[word] = coeff
    return pruned


class BchTable:
    """Precompiled BCH evaluation plan for one algebra.

    The plan truncates the series at the algebra's nilpotency degree;
    single-letter words are kept separate since they contribute x + y.
    """

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self.degree = nilpotency_degree(algebra)
        order = min(self.degree, MAX_BCH_ORDER)
        if self.degree > MAX_BCH_ORDER:
            raise InputError(
                f"{algebra.name}: nilpotency degree {self.degree} exceeds the "
                f"tabulated BCH order {MAX_BCH_ORDER}"
            )
        all_words = dynkin_word_coefficients(order)
        self.bracket_terms = [
            (float(c), w) for w, c in sorted(all_words.items()) if len(w) >= 2
        ]
        # ad is nilpotent of this degree, so the series stop before A^degree
        self.psi = PSI[: self.degree]
        self.phi = PHI[: self.degree]
        self.exp = EXP[: self.degree]

    def _check(self, x, y):
        x = self.algebra.vector(x)
        y = self.algebra.vector(y)
        return x, y

    def bch(self, x, y):
        """The product e^x e^y = e^(x ⊛ y), batched over leading axes."""
        x, y = self._check(x, y)
        z = x + y
        c_tensor = self.algebra.structure
        vecs = (x, y)
        for coeff, word in self.bracket_terms:
            val = vecs[word[-1]]
            for letter in word[-2::-1]:
                val = np.einsum("...i,...j,ijl->...l", vecs[letter], val, c_tensor)
            z = z + coeff * val
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
        out = np.einsum("...ri,...ij->...rj", out, a) + c * rows
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

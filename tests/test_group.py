"""Group arithmetic against an independent universal-enveloping oracle.

The oracle multiplies exponentials in a faithful truncated-UEA matrix
representation and reads the product's logarithm back off the unit
monomial, with no reference to the Baker integral under test.
"""

import numpy as np
import pytest

from carnot import catalog
from carnot.errors import InputError
from carnot.group import (
    BchTable,
    CarnotGroup,
    conjugate,
    dilate,
    inverse,
)

from oracles import UEAOracle


def test_heisenberg_bch_exact():
    g = CarnotGroup(catalog.heisenberg())
    x = g.algebra.from_label("X")
    y = g.algebra.from_label("Y")
    # frozen: e^X e^Y = e^{X + Y + Z/2}
    assert np.allclose(g.bch(x, y), [1.0, 1.0, 0.5], atol=1e-14)
    assert np.allclose(g.bch(y, x), [1.0, 1.0, -0.5], atol=1e-14)


def test_engel_bch_exact():
    g = CarnotGroup(catalog.engel())
    x1 = g.algebra.from_label("X1")
    x2 = g.algebra.from_label("X2")
    # frozen: e^{X1} e^{X2} = e^{X1 + X2 + X3/2 + X4/12}
    assert np.allclose(g.bch(x1, x2), [1.0, 1.0, 0.5, 1.0 / 12.0],
                       atol=1e-14)


def _filiform_chain(n):
    # [X0, Xi] = X(i+1) for 1 <= i < n - 1: nilpotency degree n - 1
    c = np.zeros((n, n, n))
    for i in range(1, n - 1):
        c[0, i, i + 1] = 1.0
        c[i, 0, i + 1] = -1.0
    return catalog.GradedAlgebra(f"filiform{n}", [2] + [1] * (n - 2), c)


def filiform5():
    # degree 4: the integrand's t^2 term vanishes, so one node is exact
    return _filiform_chain(5)


def filiform6():
    # degree 5: the first case that needs two quadrature nodes
    return _filiform_chain(6)


@pytest.mark.parametrize("maker", [catalog.heisenberg, catalog.engel,
                                   lambda: catalog.free_step2(3), filiform5,
                                   filiform6, "filiform"])
def test_bch_matches_uea_oracle(maker, rng, request):
    if maker == "filiform":
        algebra = request.getfixturevalue("filiform")
    else:
        algebra = maker()
    oracle = UEAOracle(algebra)
    g = CarnotGroup(algebra)
    for _ in range(20):
        x = rng.standard_normal(algebra.dim)
        y = rng.standard_normal(algebra.dim)
        assert np.allclose(g.bch(x, y), oracle.bch(x, y), atol=1e-12)


def test_abelian_bch_is_sum(rng):
    g = CarnotGroup(catalog.abelian(3))
    x, y = rng.standard_normal((2, 3))
    assert np.array_equal(g.bch(x, y), x + y)


def test_conjugation_heisenberg(rng):
    # frozen: (e^{tX})^{-1} e^Y e^{tX} = e^{Y - t Z}
    g = CarnotGroup(catalog.heisenberg())
    x = g.algebra.from_label("X")
    y = g.algebra.from_label("Y")
    for t in (0.5, 2.0, -3.0):
        got = g.conjugate(t * x, y)
        assert np.allclose(got, y - t * g.algebra.from_label("Z"),
                           atol=1e-14)


def test_inverse_and_identity(rng):
    g = CarnotGroup(catalog.engel())
    for _ in range(10):
        x = rng.standard_normal(4)
        assert np.allclose(g.bch(x, inverse(x)), 0.0, atol=1e-12)
        assert np.allclose(g.bch(g.identity(), x), x, atol=1e-14)


def test_dilation_weights():
    a = catalog.engel()
    v = np.array([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(dilate(a, 2.0, v), [2.0, 2.0, 4.0, 8.0])


def test_dilation_negative_convention():
    # h_{-t} g = h_t g^{-1}: reflection through the inverse, which on
    # layer-1 coordinates is plain scaling by t
    a = catalog.engel()
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(dilate(a, -2.0, v), dilate(a, 2.0, -v))
    horizontal = np.array([1.0, 2.0, 0.0, 0.0])
    assert np.allclose(dilate(a, -0.5, horizontal), -0.5 * horizontal)


def test_dilation_automorphism(rng):
    for algebra in (catalog.heisenberg(), catalog.engel()):
        g = CarnotGroup(algebra)
        for t in (0.5, 3.0):
            x = rng.standard_normal(algebra.dim)
            y = rng.standard_normal(algebra.dim)
            lhs = dilate(algebra, t, g.bch(x, y))
            rhs = g.bch(dilate(algebra, t, x), dilate(algebra, t, y))
            assert np.allclose(lhs, rhs, atol=1e-10)
        # negative t composes the automorphism with inversion, which
        # reverses products (an anti-automorphism)
        x = rng.standard_normal(algebra.dim)
        y = rng.standard_normal(algebra.dim)
        lhs = dilate(algebra, -2.0, g.bch(x, y))
        rhs = g.bch(dilate(algebra, -2.0, y), dilate(algebra, -2.0, x))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_bch_many_and_difference(rng):
    g = CarnotGroup(catalog.heisenberg())
    xs = rng.standard_normal((4, 3))
    prod = g.bch_many(xs)
    step = g.identity()
    for x in xs:
        step = g.bch(step, x)
    assert np.allclose(prod, step)
    d = g.difference(xs[0], xs[1])
    assert np.allclose(g.bch(xs[0], d), xs[1], atol=1e-12)


def test_jacobians_match_finite_differences(rng, filiform):
    # the degree-6 filiform is the only case reaching psi's A^4 term
    for algebra in (catalog.heisenberg(), catalog.engel(), filiform):
        table = BchTable(algebra)
        x = rng.standard_normal(algebra.dim)
        y = rng.standard_normal(algebra.dim)
        jx, jy = table.jacobians(x, y)
        h = 1e-6
        for j in range(algebra.dim):
            dp = np.zeros(algebra.dim)
            dp[j] = h
            fx = (table.bch(x + dp, y) - table.bch(x - dp, y)) / (2 * h)
            fy = (table.bch(x, y + dp) - table.bch(x, y - dp)) / (2 * h)
            assert np.allclose(jx[..., j], fx, atol=1e-6)
            assert np.allclose(jy[..., j], fy, atol=1e-6)


def test_unit_square_loop_is_exact_commutator():
    # frozen: e^X e^Y e^{-X} e^{-Y} = e^Z in the Heisenberg group
    g = CarnotGroup(catalog.heisenberg())
    x = g.algebra.from_label("X")
    y = g.algebra.from_label("Y")
    loop = g.bch_many([x, y, -x, -y])
    assert np.allclose(loop, g.algebra.from_label("Z"), atol=1e-14)


def test_degree_cap_rejected():
    # a filiform chain of length 7 exceeds the tabulated BCH order
    with pytest.raises(InputError):
        CarnotGroup(_filiform_chain(8))

"""Geodesic-pair divergence and the model-space dichotomy."""

import numpy as np
import pytest

from carnot import catalog
from carnot.divergence import (
    DivergenceFit,
    GeodesicPair,
    ModelLine,
    ModelSpace,
    default_t_grid,
    displacement,
    divergence_profile,
    model_divergence,
    obstruction_report,
)
from carnot.errors import InputError
from carnot.metric import CCSpace, OptimizerBudget

FAST = OptimizerBudget(segments=8, starts=2, penalty_init=1e4,
                       max_iter=150)


def test_default_t_grid():
    grid = default_t_grid(128.0)
    assert grid[0] == 1.0
    assert grid[-1] == pytest.approx(128.0)
    assert np.allclose(grid[1:] / grid[:-1], np.sqrt(2.0))
    with pytest.raises(InputError):
        default_t_grid(1.0)


def test_displacement_closed_form(heis):
    # step 2: (h_t e^v)^{-1} e^w (h_t e^v) = e^{w + t [w, v]}
    v = heis.algebra.from_label("X")
    w = heis.algebra.from_label("Y")
    for t in (1.0, 5.0, 32.0):
        got = displacement(heis, GeodesicPair(v=v, w=w), t)
        expect = w + t * heis.algebra.bracket(w, v)
        assert np.allclose(got, expect, atol=1e-12)
        assert np.allclose(got, [0.0, 1.0, -t], atol=1e-12)


def test_displacement_evaluation_orders_agree(engel_space, rng):
    # direct fold vs dilate-then-multiply: left invariance to 1e-10
    g = engel_space.group
    v = engel_space.embed_horizontal(rng.standard_normal(2))
    w = rng.standard_normal(4)
    pair = GeodesicPair(v=v, w=w)
    for t in (1.0, 4.0, 16.0):
        a = displacement(engel_space, pair, t)
        leg = g.dilate(t, v)
        b = g.bch(g.inverse(g.bch(np.zeros(4), leg)),
                  g.bch(w, leg))
        assert np.allclose(a, b, atol=1e-10 * (1 + np.linalg.norm(a)))


def test_heisenberg_divergence_exponent(heis, heis_ballbox):
    pair = GeodesicPair(v=heis.algebra.from_label("X"),
                        w=heis.algebra.from_label("Y"),
                        t_grid=default_t_grid(64.0))
    fit = divergence_profile(heis, pair, budget=FAST,
                             ballbox=heis_ballbox, seed=1)
    assert fit.complete
    assert 0.4 <= fit.exponent <= 0.6
    assert fit.alpha is not None and 0 < fit.alpha < fit.exponent
    assert fit.beta is not None and fit.exponent < fit.beta < 1
    assert fit.sandwich_holds()
    uppers = [r[2] for r in fit.rows]
    assert all(b >= a - 1e-9 for a, b in zip(uppers, uppers[1:]))


def test_commuting_pair_bounded(heis, heis_ballbox):
    v = heis.algebra.from_label("X")
    pair = GeodesicPair(v=v, w=2.0 * v, t_grid=default_t_grid(16.0))
    fit = divergence_profile(heis, pair, budget=FAST,
                             ballbox=heis_ballbox, seed=2)
    assert abs(fit.exponent) <= 0.05
    assert fit.classification == "bounded"
    # displacement is constant e^w
    for t, lo, hi in fit.rows:
        assert hi == pytest.approx(fit.rows[0][2], rel=1e-6)


def test_abelian_pair_constant():
    sp = CCSpace(catalog.abelian(2))
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 3.0])
    pair = GeodesicPair(v=v, w=w, t_grid=default_t_grid(8.0))
    fit = divergence_profile(sp, pair, budget=FAST, seed=3)
    for t, lo, hi in fit.rows:
        assert lo == pytest.approx(3.0, abs=1e-9)
        assert hi == pytest.approx(3.0, rel=1e-6)


def test_t_grid_validation():
    with pytest.raises(InputError):
        GeodesicPair(v=np.array([1.0, 0.0]), w=np.array([0.0, 1.0]),
                     t_grid=[0.5, 1.0])


def test_euclidean_models():
    eu = ModelSpace("euclidean", dim=2)
    par = model_divergence(eu, ModelLine([0, 0], [1, 0]),
                           ModelLine([0, 1], [1, 0]))
    assert par.classification == "bounded"
    assert all(abs(r[1] - 1.0) < 1e-12 for r in par.rows)

    ang = model_divergence(eu, ModelLine([0, 0], [1, 0]),
                           ModelLine([0, 0], [0.5, np.sqrt(3) / 2]))
    assert ang.classification == "linear"
    # law of cosines: f(t) = 2 sin(pi/6) t = t
    for t, f, _ in ang.rows:
        assert f == pytest.approx(t, rel=1e-12)


def test_euclidean_skew_lines():
    eu3 = ModelSpace("euclidean", dim=3)
    fit = model_divergence(eu3, ModelLine([0, 0, 0], [1, 0, 0]),
                           ModelLine([0, 1, 0], [0, 0, 1]))
    assert fit.classification == "linear"
    for t, f, _ in fit.rows:
        assert f == pytest.approx(np.sqrt(2 * t * t + 1), rel=1e-12)


def test_hyperbolic_and_sphere_models():
    hy = ModelSpace("hyperbolic", kappa=-1.0)
    o = hy.origin()
    hfit = model_divergence(hy, ModelLine(o, [0, 1, 0]),
                            ModelLine(o, [0, 0, 1]))
    assert hfit.classification == "linear"
    # orthogonal rays: f(t) = arccosh(cosh^2 t) ~ 2t - log 2
    t, f, _ = hfit.rows[-1]
    assert f == pytest.approx(2 * t - np.log(2), rel=1e-10)

    sp = ModelSpace("sphere", kappa=1.0)
    sfit = model_divergence(sp, ModelLine([1, 0, 0], [0, 1, 0]),
                            ModelLine([1, 0, 0], [0, 0, 1]))
    assert sfit.classification == "bounded"
    assert max(r[1] for r in sfit.rows) <= np.pi + 1e-12


def test_model_metric_axioms(rng):
    for model in (ModelSpace("euclidean", dim=3),
                  ModelSpace("hyperbolic", kappa=-2.0),
                  ModelSpace("sphere", kappa=0.5)):
        pts = []
        for _ in range(12):
            u = rng.standard_normal(3)
            if model.kind == "euclidean":
                pts.append(u)
            else:
                base = model.origin()
                tang = np.array([0.0, u[1], u[2]])
                pts.append(model.geodesic(base, tang,
                                          np.array([abs(u[0])]))[0])
        pts = np.array(pts)
        # arccosh/arccos near 1 amplify roundoff to ~sqrt(eps)
        for i in range(len(pts)):
            assert model.distance(pts[i], pts[i]) == pytest.approx(0.0,
                                                                   abs=1e-5)
            for j in range(len(pts)):
                dij = model.distance(pts[i], pts[j])
                assert dij == pytest.approx(
                    float(model.distance(pts[j], pts[i])), abs=1e-7)
                for k in range(len(pts)):
                    dik = model.distance(pts[i], pts[k])
                    dkj = model.distance(pts[k], pts[j])
                    assert dij <= dik + dkj + 1e-5


def test_model_space_validation():
    with pytest.raises(InputError):
        ModelSpace("taxicab")
    with pytest.raises(InputError):
        ModelSpace("hyperbolic", kappa=1.0)
    with pytest.raises(InputError):
        ModelSpace("sphere", kappa=-1.0)


def test_obstruction_verdicts(heis, heis_ballbox):
    pair = GeodesicPair(v=heis.algebra.from_label("X"),
                        w=heis.algebra.from_label("Y"),
                        t_grid=default_t_grid(32.0))
    carnot = divergence_profile(heis, pair, budget=FAST,
                                ballbox=heis_ballbox, seed=4)
    eu = ModelSpace("euclidean", dim=2)
    models = [
        model_divergence(eu, ModelLine([0, 0], [1, 0]),
                         ModelLine([0, 1], [1, 0])),
        model_divergence(eu, ModelLine([0, 0], [1, 0]),
                         ModelLine([0, 0], [0, 1])),
    ]
    rep = obstruction_report(carnot, models)
    assert rep["verdict"] == "obstruction witnessed"

    # abelian-style exponent 0 is consistent with bounded: inconclusive
    flat = divergence_profile(
        heis, GeodesicPair(v=heis.algebra.from_label("X"),
                           w=heis.algebra.from_label("X"),
                           t_grid=default_t_grid(8.0)),
        budget=FAST, ballbox=heis_ballbox, seed=5)
    rep = obstruction_report(flat, models)
    assert rep["verdict"] == "inconclusive"

    # incomplete profile: inconclusive
    broken = DivergenceFit(rows=[], exponent=float("nan"), complete=False)
    rep = obstruction_report(broken, models)
    assert rep["verdict"] == "inconclusive"
    assert rep["reason"] == "carnot profile incomplete"

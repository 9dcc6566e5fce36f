"""Derivates of Lipschitz distances, the box samplers and the spread."""

import numpy as np
import pytest

from carnot import catalog
from carnot.derivate import (
    BoxSpec,
    LipschitzDistance,
    abelianized_distance,
    cc_distance,
    check_homogeneity,
    default_t_grid,
    derivate,
    riemannian_distance,
    sample_ball,
    sample_box,
    sample_end,
    snowflake_distance,
    spread_estimate,
)
from carnot.errors import InputError, LipschitzViolation
from carnot.measure import certified_upper_cheap


def test_default_t_grid():
    grid = default_t_grid(levels=8, t_max=1.0)
    assert len(grid) == 8
    assert grid[0] == 1.0
    assert np.allclose(grid[:-1] / grid[1:], 2.0)


def test_cc_derivate_is_norm(heis, heis_ballbox):
    d = cc_distance(heis, ballbox=heis_ballbox)
    v = 2.0 * heis.algebra.from_label("X")
    est = derivate(heis, d, np.zeros(3), v, samples_per_t=16, seed=1,
                   ballbox=heis_ballbox)
    assert est.rho_lower == pytest.approx(2.0, abs=1e-9)
    assert est.rho_upper == pytest.approx(2.0, abs=1e-9)
    for _, lo, hi, _ in est.rows:
        assert lo <= hi


def test_zero_direction(heis, heis_ballbox):
    d = abelianized_distance(heis)
    est = derivate(heis, d, np.zeros(3), np.zeros(3), samples_per_t=8,
                   seed=2, ballbox=heis_ballbox)
    assert est.rho_lower == 0.0
    assert est.rho_upper == 0.0


def test_riemannian_derivate_near_norm(heis, heis_ballbox):
    d = riemannian_distance(heis)
    v = heis.algebra.from_label("Y")
    est = derivate(heis, d, np.zeros(3), v, samples_per_t=16, seed=3,
                   ballbox=heis_ballbox)
    # smooth-curve speed limit: quotients approach |v| from below
    assert est.rho_upper == pytest.approx(1.0, rel=0.02)
    assert est.rho_upper <= 1.0 + 1e-6


def test_snowflake_violates_lipschitz(heis, heis_ballbox):
    d = snowflake_distance(heis, ballbox=heis_ballbox)
    with pytest.raises(LipschitzViolation) as exc:
        derivate(heis, d, np.zeros(3), heis.algebra.from_label("X"),
                 samples_per_t=8, seed=4, ballbox=heis_ballbox)
    assert exc.value.pair is not None


def test_validate_catches_asymmetry(heis):
    bad = LipschitzDistance(
        name="asym",
        evaluator=lambda xs, ys: np.linalg.norm(xs, axis=-1),
        L=10.0,
    )
    with pytest.raises(LipschitzViolation):
        bad.validate(heis, samples=32, seed=5)


def test_validate_catches_triangle_violation(heis):
    # squared Euclidean displacement breaks the triangle inequality
    bad = LipschitzDistance(
        name="squared",
        evaluator=lambda xs, ys: np.sum((xs - ys) ** 2, axis=-1),
        L=100.0,
    )
    with pytest.raises(LipschitzViolation):
        bad.validate(heis, samples=64, seed=6, scale=3.0)


def test_validate_passes_for_abelianized(heis):
    assert abelianized_distance(heis).validate(heis, samples=32, seed=7)


def test_direction_must_be_horizontal(heis, heis_ballbox):
    d = abelianized_distance(heis)
    with pytest.raises(InputError):
        derivate(heis, d, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                 ballbox=heis_ballbox)
    with pytest.raises(InputError):
        derivate(heis, d, np.zeros(3), heis.algebra.from_label("X"),
                 t_grid=[1e-7], ballbox=heis_ballbox)


def test_derivate_without_ballbox_samples_certified_box(heis, rng):
    # the certified box of B(0.8) has |z| <= 0.8^2 / (2 pi)
    pts = sample_ball(heis, np.zeros(3), 0.8, 100, rng, None)
    assert np.all(np.abs(pts[:, 2]) <= 0.8**2 / (2 * np.pi))
    assert np.all(certified_upper_cheap(heis, pts) <= 0.8 + 1e-12)
    est = derivate(heis, abelianized_distance(heis), np.zeros(3),
                   heis.algebra.from_label("X"), samples_per_t=8, seed=4)
    assert est.rho_lower == pytest.approx(1.0, abs=1e-9)
    assert est.rho_upper == pytest.approx(1.0, abs=1e-9)


def test_left_invariance_of_estimates(heis, heis_ballbox):
    d = abelianized_distance(heis)
    v = heis.algebra.from_label("X")
    e0 = derivate(heis, d, np.zeros(3), v, samples_per_t=32, seed=8,
                  ballbox=heis_ballbox)
    e1 = derivate(heis, d, np.array([1.0, -2.0, 0.5]), v,
                  samples_per_t=32, seed=8, ballbox=heis_ballbox)
    assert e0.rho_lower == pytest.approx(e1.rho_lower, abs=0.05)
    assert e0.rho_upper == pytest.approx(e1.rho_upper, abs=0.05)


def test_check_homogeneity_report(heis, heis_ballbox):
    d = cc_distance(heis, ballbox=heis_ballbox)
    v = heis.algebra.from_label("X")
    base = derivate(heis, d, np.zeros(3), v, samples_per_t=8, seed=9,
                    ballbox=heis_ballbox)
    scaled = {
        tau: derivate(heis, d, np.zeros(3), tau * v, samples_per_t=8,
                      seed=9, ballbox=heis_ballbox)
        for tau in (-1.0, 2.0)
    }
    report = check_homogeneity(base, scaled)
    assert report["residuals"][2.0] < 1e-6
    assert report["symmetry_residual"] < 1e-6


def test_end_sampler_geometry(heis, rng):
    v = heis.algebra.from_label("X")
    spec = BoxSpec(center=np.zeros(3), direction=v, epsilon=0.25)
    pts = sample_end(heis, spec, 200, rng)
    # w_1 orthogonal to v: the X coordinate vanishes
    assert np.max(np.abs(pts[:, 0])) < 1e-12
    assert np.max(np.abs(pts[:, 1])) < 0.25
    assert np.max(np.abs(pts[:, 2])) < 0.25**2


def test_box_sampler_flows_along_direction(heis, rng):
    v = heis.algebra.from_label("X")
    spec = BoxSpec(center=np.zeros(3), direction=v, epsilon=0.1)
    pts = sample_box(heis, spec, 200, rng)
    assert np.max(pts[:, 0]) <= 1.0 + 1e-12
    assert np.min(pts[:, 0]) >= -1e-12
    with pytest.raises(InputError):
        BoxSpec(center=np.zeros(3), direction=v, epsilon=-1.0)
    with pytest.raises(InputError):
        sample_end(heis, BoxSpec(np.zeros(3), np.array([0.0, 0, 1]), 0.1),
                   10, rng)


def test_sample_ball_certified(heis, heis_ballbox, rng):
    pts = sample_ball(heis, np.zeros(3), 0.8, 100, rng, heis_ballbox)
    upper = certified_upper_cheap(heis, pts)
    assert np.all(upper <= 0.8 + 1e-12)


def test_spread_linear_and_monotone(heis):
    v = heis.algebra.from_label("X")
    rep = spread_estimate(heis, v, [0.4, 0.2, 0.1], [1.0, 2.0, 4.0],
                          samples=32, seed=10)
    cs = rep.c_of_epsilon()
    values = [c for _, c in cs]
    assert values == sorted(values, reverse=True)  # decreasing with eps
    for eps, _ in cs:
        sups = [s for _, s in rep.sup_over_t(eps)]
        assert max(sups) / min(sups) < 1.10


def test_spread_abelian_exactly_linear():
    space = catalog.abelian(3)
    from carnot.metric import CCSpace
    sp = CCSpace(space)
    v = np.array([1.0, 0.0, 0.0])
    rep = spread_estimate(sp, v, [0.3], [1.0, 2.0, 4.0], samples=48,
                          seed=11)
    sups = [s for _, s in rep.sup_over_t(0.3)]
    assert max(sups) / min(sups) < 1.02
    # no commutator correction: sup/t is at most eps
    assert max(sups) <= 0.3 + 1e-9

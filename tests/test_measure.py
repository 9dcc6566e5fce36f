"""Volume growth and dimension fits."""

import numpy as np
import pytest

from carnot import catalog, measure
from carnot.errors import InputError
from carnot.measure import (
    MEMBERSHIP_BUDGET,
    VolumeEstimate,
    ball_volume,
    dimension_experiment,
    enclosing_box_halfwidths,
    fit_dimension,
    homogeneous_dimension,
)
from carnot.metric import (
    BallBoxConstant,
    CCSpace,
    cc_upper_batch,
    certified_upper_cheap,
    lower_bounds_batch,
)


ABELIAN_BB = BallBoxConstant(A=1.0, samples=0, seed=0, safety=1.0,
                             max_ratio=1.0)


def test_homogeneous_dimension_values():
    assert homogeneous_dimension(catalog.heisenberg()) == 4
    assert homogeneous_dimension(catalog.engel()) == 7
    assert homogeneous_dimension(catalog.abelian(5)) == 5
    assert homogeneous_dimension(catalog.free_step2(3)) == 9


def test_abelian_disc_area():
    space = CCSpace(catalog.abelian(2))
    est = ball_volume(space, ABELIAN_BB, 1.0, 20000, seed=1)
    assert est.volume == pytest.approx(np.pi, abs=4 * est.stderr)
    assert est.band_fraction == 0.0  # lower bound is exact here
    est2 = ball_volume(space, ABELIAN_BB, 2.0, 20000, seed=2)
    assert est2.volume == pytest.approx(4 * np.pi, abs=4 * est2.stderr)


def test_abelian3_ball():
    space = CCSpace(catalog.abelian(3))
    est = ball_volume(space, ABELIAN_BB, 1.0, 20000, seed=3)
    assert est.volume == pytest.approx(4 * np.pi / 3, abs=4 * est.stderr)


def test_heisenberg_volume_scaling(heis, heis_ballbox):
    e1 = ball_volume(heis, heis_ballbox, 0.5, 20000, seed=4)
    e2 = ball_volume(heis, heis_ballbox, 1.0, 20000, seed=5)
    ratio = e2.volume / e1.volume
    # vol scales like r^4; generous tolerance at this sample count
    assert 12.0 < ratio < 20.0
    # the certified lower bound is sharp only on Dido's arcs over their
    # chord and on the vertical axis, so some samples it leaves undecided
    # are not members
    assert e1.band_fraction > 0


def test_input_validation(heis, heis_ballbox):
    # without a calibrated constant the box is the certified one
    half = enclosing_box_halfwidths(heis, None, 1.0)
    assert half[2] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-15)
    est = ball_volume(heis, None, 1.0, 100, seed=0)
    assert 0 < est.volume <= np.prod(2.0 * half)
    for radius in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(InputError):
            ball_volume(heis, heis_ballbox, radius, 100)
    with pytest.raises(InputError):
        ball_volume(heis, heis_ballbox, 1.0, 0)


@pytest.mark.parametrize("box", ["calibrated", "certified"])
def test_decided_counts_follow_the_bounds(heis, heis_ballbox, box,
                                          monkeypatch):
    # every sample is decided once: by its lower bound above r, by its
    # ladder bound at most r, or by the rows sent to the path solver
    ballbox = heis_ballbox if box == "calibrated" else None
    solved = []

    def solver(space, targets, **kwargs):
        solved.append(len(targets))
        return cc_upper_batch(space, targets, **kwargs)

    monkeypatch.setattr(measure, "cc_upper_batch", solver)
    est = ball_volume(heis, ballbox, 1.0, 2000, seed=7)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (2000, 3))
    pts *= enclosing_box_halfwidths(heis, ballbox, 1.0)
    above = lower_bounds_batch(heis, pts, ballbox) > 1.0
    cheap = certified_upper_cheap(heis, pts[~above])
    assert est.decided_lower == np.sum(above) > 0
    assert est.decided_ladder == np.sum(cheap <= 1.0) > 0
    assert est.decided_optimizer == sum(solved) == np.sum(cheap > 1.0) > 0
    assert (est.decided_lower + est.decided_ladder + est.decided_optimizer
            == est.samples)


def test_radius_keeps_the_members(heis):
    # on samples of the certified box, stopping each row once it has a
    # path no longer than r changes no member
    r = 1.0
    half = enclosing_box_halfwidths(heis, None, r)
    pts = np.random.default_rng(10).uniform(-1.0, 1.0, (1500, 3)) * half
    pts = pts[lower_bounds_batch(heis, pts) <= r]
    full, _ = cc_upper_batch(heis, pts, budget=MEMBERSHIP_BUDGET, seed=11)
    stopped, residual = cc_upper_batch(heis, pts, budget=MEMBERSHIP_BUDGET,
                                       seed=11, radius=r)
    assert np.array_equal(stopped <= r, full <= r)
    assert np.all(residual <= 1e-9)
    assert np.all(stopped >= full * (1 - 1e-12))


def _fake_estimates(radii, q):
    return [
        VolumeEstimate(radius=r, volume=r**q, stderr=0.0, samples=1,
                       seed=0, band_fraction=0.0, decided_lower=0,
                       decided_ladder=1, decided_optimizer=0)
        for r in radii
    ]


def test_fit_dimension_recovers_exponent():
    fit = fit_dimension(_fake_estimates([0.5, 1.0, 2.0], 4.0))
    assert fit.slope == pytest.approx(4.0)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.radii == (0.5, 2.0)


def test_fit_dimension_preconditions():
    with pytest.raises(InputError):
        fit_dimension(_fake_estimates([0.5, 1.0], 4.0))
    with pytest.raises(InputError):
        fit_dimension(_fake_estimates([1.0, 1.5, 2.0], 4.0))  # span < 4


def test_dimension_experiment_abelian():
    space = CCSpace(catalog.abelian(2))
    rows, fit = dimension_experiment(space, ABELIAN_BB,
                                     [0.5, 1.0, 2.0], 8000, seed=6)
    assert fit.slope == pytest.approx(2.0, abs=0.15)
    assert len(rows) == 3

"""Derivates of Lipschitz distances, the End sampler and the spread."""

import importlib

import numpy as np
import pytest

from carnot import catalog, cli, metric
from carnot.derivate import (
    BoxSpec,
    LipschitzDistance,
    abelianized_distance,
    cc_distance,
    default_t_grid,
    derivate,
    riemannian_distance,
    sample_ball,
    sample_end,
    snowflake_distance,
    spread_estimate,
)
from carnot.errors import InputError, LipschitzViolation
from carnot.measure import (
    MEMBERSHIP_BUDGET,
    certified_upper_cheap,
    enclosing_box_halfwidths,
)
from carnot.metric import CCSpace, cc_upper_batch
from oracles import check_homogeneity, check_lipschitz

# the package root re-exports the function ``derivate``
derivate_lab = importlib.import_module("carnot.derivate")


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
        check_lipschitz(bad, heis, samples=32, seed=5)


def test_validate_catches_triangle_violation(heis):
    # squared Euclidean displacement breaks the triangle inequality
    bad = LipschitzDistance(
        name="squared",
        evaluator=lambda xs, ys: np.sum((xs - ys) ** 2, axis=-1),
        L=100.0,
    )
    with pytest.raises(LipschitzViolation):
        check_lipschitz(bad, heis, samples=64, seed=6, scale=3.0)


def test_validate_passes_for_abelianized(heis):
    assert check_lipschitz(abelianized_distance(heis), heis, samples=32,
                           seed=7)


def test_direction_must_be_horizontal(heis, heis_ballbox):
    d = abelianized_distance(heis)
    with pytest.raises(InputError):
        derivate(heis, d, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                 ballbox=heis_ballbox)
    with pytest.raises(InputError):
        derivate(heis, d, np.zeros(3), heis.algebra.from_label("X"),
                 t_grid=[1e-7], ballbox=heis_ballbox)



def test_one_level_grid_is_refused_before_sampling(heis, monkeypatch):
    # the tail fit needs two levels; one used to end in numpy's
    # LinAlgError after every level was sampled
    def no_sampling(*args):
        raise AssertionError("a level was sampled")

    monkeypatch.setattr(derivate_lab, "sample_ball", no_sampling)
    with pytest.raises(InputError, match="at least 2 levels"):
        derivate(heis, abelianized_distance(heis), np.zeros(3),
                 heis.algebra.from_label("X"), t_grid=[0.5])

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
        sups = [s for e, _, _, s in rep.rows if e == eps]
        assert max(sups) / min(sups) < 1.10


def test_spread_abelian_exactly_linear():
    space = catalog.abelian(3)
    from carnot.metric import CCSpace
    sp = CCSpace(space)
    v = np.array([1.0, 0.0, 0.0])
    rep = spread_estimate(sp, v, [0.3], [1.0, 2.0, 4.0], samples=48,
                          seed=11)
    sups = [s for _, _, _, s in rep.rows]
    assert max(sups) / min(sups) < 1.02
    # no commutator correction: sup/t is at most eps
    assert max(sups) <= 0.3 + 1e-9


# -- the batched labs against per-level and per-cell reference loops --------


def _sample_ball_one_try_at_a_time(space, center, radius, count, rng, ballbox,
                                   max_tries=200):
    half = enclosing_box_halfwidths(space, ballbox, radius)
    out, have = [], 0
    for _ in range(max_tries):
        cand = rng.uniform(-1.0, 1.0, (max(4 * count, 256),
                                       space.algebra.dim)) * half
        good = cand[certified_upper_cheap(space, cand) <= radius]
        out.append(good)
        have += len(good)
        if have >= count:
            break
    if have < count:
        raise InputError(f"ball rejection sampling starved at radius {radius}")
    return space.group.bch(center, np.concatenate(out, axis=0)[:count])


def _sample_balls_one_at_a_time(space, center, radii, count, rng, ballbox,
                                max_tries=200):
    return np.concatenate([
        _sample_ball_one_try_at_a_time(space, center, r, count, rng, ballbox,
                                       max_tries)
        for r in radii])


@pytest.mark.parametrize("box", ["calibrated", "certified"])
@pytest.mark.parametrize("count", [5, 64, 300])
def test_sample_ball_matches_one_try_at_a_time(heis, heis_ballbox, box,
                                               count):
    # the calibrated box accepts about 1 candidate in 250, so a radius
    # takes tens of tries in several blocks; the tries a radius leaves
    # unused are the next radius's, scaled by its box.  At seed 5 the
    # count-5 calibrated call ends inside a draw before its last one.
    ballbox = heis_ballbox if box == "calibrated" else None
    center = np.array([0.2, -0.1, 0.4])
    radii = [0.3, 0.15, 1.0, 0.02]
    for seed in (12, 5):
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        want = _sample_balls_one_at_a_time(heis, center, radii, count,
                                           want_rng, ballbox)
        got = sample_ball(heis, center, radii, count, got_rng, ballbox)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_ball_matches_one_try_at_a_time_on_free2_3():
    # the certified box accepts about 2 free2-3 candidates in 1e6 at every
    # radius (every box and ball is a dilation of the first), so one point
    # takes a few hundred tries and most calls starve; at seeds 337 and 537
    # both radii get theirs.  Nearly every candidate past the lower bound
    # is rejected by the ladder floor before the ladder
    space = CCSpace(catalog.get("free2-3"))
    center = np.array([0.2, -0.1, 0.3, 0.4, -0.2, 0.1])
    for seed in (337, 537):
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        want = _sample_balls_one_at_a_time(space, center, [0.3, 1.0], 1,
                                           want_rng, None)
        got = sample_ball(space, center, [0.3, 1.0], 1, got_rng, None)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_ball_starves_after_max_tries_on_engel(engel_space):
    # the straight-segment ladder bound accepts about 1 Engel candidate in
    # 1e5 from the certified box, so 30 tries of 256 find none
    want_rng, got_rng = np.random.default_rng(13), np.random.default_rng(13)
    with pytest.raises(InputError):
        _sample_ball_one_try_at_a_time(engel_space, np.zeros(4), 0.5, 8,
                                       want_rng, None, max_tries=30)
    with pytest.raises(InputError, match="starved"):
        sample_ball(engel_space, np.zeros(4), 0.5, 8, got_rng, None,
                    max_tries=30)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_ball_starves_at_a_later_radius(engel_space):
    # at seed 65 one Engel candidate in 30 tries is found for r = 0.5 and
    # none for r = 0.25, after a block sized from the first radius's rate
    radii = [0.5, 0.25, 1.0]
    want_rng, got_rng = np.random.default_rng(65), np.random.default_rng(65)
    with pytest.raises(InputError, match="starved at radius 0.25") as want:
        _sample_balls_one_at_a_time(engel_space, np.zeros(4), radii, 1,
                                    want_rng, None, max_tries=30)
    with pytest.raises(InputError, match="starved") as got:
        sample_ball(engel_space, np.zeros(4), radii, 1, got_rng, None,
                    max_tries=30)
    assert str(got.value) == str(want.value)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_cc_derivate_of_radial_pairs_runs_no_solver(heis, heis_ballbox,
                                                    monkeypatch):
    # every sampled pair is radial, so its ladder bound meets its lower
    # bound and no row reaches the path solver; a pair the ladder leaves
    # open goes there alone
    calls = []

    def counted(space, targets, **kwargs):
        calls.append(len(targets))
        return cc_upper_batch(space, targets, **kwargs)

    monkeypatch.setattr(derivate_lab, "cc_upper_batch", counted)
    for ballbox in (heis_ballbox, None):
        d = cc_distance(heis, ballbox=ballbox)
        est = derivate(heis, d, np.array([0.2, -0.1, 0.4]),
                       heis.algebra.from_label("X"), samples_per_t=16,
                       seed=3, ballbox=ballbox)
        assert est.rho_lower == pytest.approx(1.0, abs=1e-9)
    assert calls == []
    xs = np.zeros((3, 3))
    ys = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [0.3, 0.0, 0.0]])
    got = cc_distance(heis)(xs, ys)
    assert calls == [1]
    assert got[[0, 2]] == pytest.approx([1.0, 0.3], rel=1e-12)
    # the solver's path to (0, 0, 1) is shorter than the ladder's 4
    lower = metric.lower_bounds_batch(heis, ys[1:2])[0]
    assert got[1] < 0.5 * (lower + 4.0)


def test_spread_matches_per_cell_batches(heis):
    v = np.array([0.6, 0.8, 0.0])
    eps_grid, t_grid, samples, seed = [0.4, 0.1], [1.0, 2.0, 4.0], 24, 14
    rep = spread_estimate(heis, v, eps_grid, t_grid, samples=samples,
                          seed=seed)
    rng = np.random.default_rng(seed)
    want = []
    for eps in eps_grid:
        for t in t_grid:
            spec = BoxSpec(center=np.zeros(3), direction=t * v,
                           epsilon=t * eps)
            ends = sample_end(heis, spec, samples, rng)
            disp = heis.group.conjugate(t * v[None, :], ends)
            upper, _ = cc_upper_batch(heis, disp, budget=MEMBERSHIP_BUDGET,
                                      seed=seed + 1)
            want.append((eps, t, float(np.max(upper))))
    assert [r[:2] for r in rep.rows] == [w[:2] for w in want]
    got = np.array([r[2] for r in rep.rows])
    np.testing.assert_allclose(got, [w[2] for w in want], rtol=1e-9)
    np.testing.assert_allclose([r[3] for r in rep.rows],
                               got / np.array([w[1] for w in want]),
                               rtol=1e-15)


def test_spread_projects_at_most_half_the_rows(heis, monkeypatch):
    # the CLI's default Heisenberg spread, 768 rows: counted over every
    # projection call, the branch and bound projects at most half the rows
    # that bounding every row to the end projects
    calls, seen = [], []
    project, bound_max = metric._project, derivate_lab.cc_upper_max

    def counted(group, controls, *args):
        calls.append(len(controls))
        return project(group, controls, *args)

    def recorded(space, targets, **kwargs):
        seen.append((targets, kwargs))
        return bound_max(space, targets, **kwargs)

    monkeypatch.setattr(metric, "_project", counted)
    monkeypatch.setattr(derivate_lab, "cc_upper_max", recorded)
    rep = spread_estimate(heis, heis.algebra.from_label("X"),
                          cli.parse_grid("0.4,0.2,0.1,0.05"),
                          cli.parse_grid("1:4:3"), samples=64, seed=0)
    pruned = sum(calls)
    (targets, kwargs), = seen
    assert targets.shape == (12, 64, 3)
    assert rep.rows_to_end + rep.rows_floored == 768 and rep.rows_floored > 0
    calls.clear()
    upper, _ = cc_upper_batch(heis, targets.reshape(768, 3), **kwargs)
    assert 0 < pruned <= 0.5 * sum(calls)
    assert [r[2] for r in rep.rows] == list(upper.reshape(12, 64).max(axis=1))


def test_spread_counts_are_deterministic(engel_space):
    v = np.array([1.0, 0.0, 0.0, 0.0])
    reps = [spread_estimate(engel_space, v, [0.4, 0.1], [1.0, 2.0],
                            samples=16, seed=5) for _ in range(2)]
    assert reps[0] == reps[1]
    assert reps[0].rows_to_end + reps[0].rows_floored == 64


def _derivate_rows_level_by_level(space, d, x, v, t_grid, samples, seed,
                                  ballbox):
    rng = np.random.default_rng(seed)
    rows = []
    for t in sorted(t_grid, reverse=True):
        ys = sample_ball(space, x, t, samples, rng, ballbox)
        q = d(ys, space.group.bch(ys, t * v[None, :])) / t
        rows.append((t, float(np.min(q)), float(np.max(q)), samples))
    return rows


@pytest.mark.parametrize("box", ["calibrated", "certified"])
def test_derivate_matches_level_by_level(heis, heis_ballbox, box):
    ballbox = heis_ballbox if box == "calibrated" else None
    d = cc_distance(heis, ballbox=ballbox, seed=15)
    x = np.array([0.3, 0.1, -0.2])
    v = np.array([0.8, -0.6, 0.0])
    t_grid = default_t_grid(levels=5)
    est = derivate(heis, d, x, v, t_grid=t_grid, samples_per_t=16, seed=15,
                   ballbox=ballbox)
    want = _derivate_rows_level_by_level(heis, d, x, v, t_grid, 16, 15,
                                         ballbox)
    assert [(r[0], r[3]) for r in est.rows] == [(w[0], w[3]) for w in want]
    np.testing.assert_allclose([r[1:3] for r in est.rows],
                               [w[1:3] for w in want], rtol=1e-9)


def _coordinate_distance():
    # the Euclidean distance of coordinates, declared 1-Lipschitz; it is
    # not left-invariant, so its quotients differ from pair to pair
    return LipschitzDistance(
        name="coordinate", L=1.0,
        evaluator=lambda xs, ys: np.linalg.norm(ys - xs, axis=-1))


@pytest.mark.parametrize("which", ["snowflake", "coordinate"])
def test_derivate_violation_names_first_violating_level(heis, heis_ballbox,
                                                         which):
    # the snowflake's quotients at one level agree up to the solver's
    # rounding, which picks among them; the coordinate distance's differ
    d = (snowflake_distance(heis, ballbox=heis_ballbox)
         if which == "snowflake" else _coordinate_distance())
    v = heis.algebra.from_label("X")
    x = np.array([0.5, -0.2, 0.1])
    t_grid = default_t_grid(levels=6)
    with pytest.raises(LipschitzViolation) as exc:
        derivate(heis, d, x, v, t_grid=t_grid, samples_per_t=8, seed=4,
                 ballbox=heis_ballbox)
    rng = np.random.default_rng(4)
    for t in t_grid:
        ys = sample_ball(heis, x, t, 8, rng, heis_ballbox)
        ys2 = heis.group.bch(ys, t * v[None, :])
        q = d(ys, ys2) / t
        if np.any(q > d.L + d.tol / t):
            break
    assert f"at t={t:.3g}" in str(exc.value)
    i = int(np.flatnonzero(np.all(ys == exc.value.pair[0], axis=1))[0])
    np.testing.assert_array_equal(exc.value.pair[1], ys2[i])
    assert q[i] >= np.max(q) * (1 - 1e-9)
    if which == "coordinate":
        assert i == int(np.argmax(q))

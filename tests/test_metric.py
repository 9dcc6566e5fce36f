"""Certified CC-distance machinery: bounds, witnesses, invariances.

The vertical Heisenberg distance is frozen against an independent
isoperimetric oracle (shortest planar loop of prescribed signed area).
"""

import dataclasses
import warnings

import numpy as np
import pytest

from carnot import catalog, metric
from carnot.errors import InputError, OptimizerFailure, UnreachableError
from carnot.group import CarnotGroup, dilate, row_series
from carnot.metric import (
    BallBoxConstant,
    CCSpace,
    ControlPath,
    HorizontalMetric,
    OptimizerBudget,
    _bound_rows,
    _draw_starts,
    _endpoint_jacobian,
    _initial_controls,
    _optimize_controls,
    _penalty,
    _prefix_endpoints,
    _pullback,
    calibrate_ballbox,
    cc_lower_abelian,
    cc_lower_ballbox,
    cc_upper_batch,
    cc_upper_max,
    certified_upper_cheap,
    close_defect_batch,
    estimate_distance,
    lower_bounds_batch,
    path_endpoints_batch,
)
from carnot.measure import MEMBERSHIP_BUDGET, enclosing_box_halfwidths

from conftest import filiform_algebra
from oracles import heisenberg_distance, min_loop_length

FAST = OptimizerBudget(segments=8, starts=2, penalty_init=1e4,
                       max_iter=150)


def test_horizontal_metric_validation():
    with pytest.raises(InputError):
        HorizontalMetric(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(InputError):
        HorizontalMetric(np.array([[1.0, 0.0], [0.0, -1.0]]))  # not PD
    m = HorizontalMetric(np.diag([4.0, 1.0]))
    assert m.norm(np.array([1.0, 0.0])) == 2.0


def test_constructors_leave_caller_arrays_writeable():
    # the constructors freeze copies, not the arrays they were handed
    gram = np.eye(2)
    metric = HorizontalMetric(gram)
    structure = np.array(catalog.heisenberg().structure)
    algebra = catalog.GradedAlgebra("h", [2, 1], structure)
    assert gram.flags.writeable and structure.flags.writeable
    assert not metric.gram.flags.writeable
    assert not algebra.structure.flags.writeable
    gram[0, 0] = 2.0
    structure[0, 1, 2] = 5.0
    assert metric.gram[0, 0] == 1.0
    assert algebra.structure[0, 1, 2] == catalog.heisenberg().structure[0, 1, 2]


def test_radial_geodesic_distance(heis):
    # the radial geodesic t -> exp(t v) of a layer-1 direction reaches t v
    v = np.array([0.6, 0.8, 0.0])
    t = 5.0
    est = estimate_distance(heis, np.zeros(3), t * v, budget=FAST)
    # radial geodesics realize the distance: both bounds pin t |v| = 5
    assert est.lower == pytest.approx(5.0, abs=1e-12)
    assert est.upper == pytest.approx(5.0, rel=1e-6)
    assert est.upper >= 5.0 - 1e-12


def test_vertical_distance_matches_isoperimetric_oracle(heis):
    # frozen oracle value: sqrt(4 pi) = 3.544908; loop with area 1
    oracle = min_loop_length(1.0)
    assert oracle == pytest.approx(np.sqrt(4 * np.pi), rel=1e-3)
    est = estimate_distance(heis, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                            budget=OptimizerBudget(segments=64))
    assert est.upper == pytest.approx(np.sqrt(4 * np.pi), rel=0.01)
    assert est.upper >= np.sqrt(4 * np.pi) - 1e-9  # certified upper bound


def test_witness_is_feasible(heis, engel_space, rng):
    # Heisenberg forms its prefix products from layers 1-2 alone, Engel
    # also from a layer-3 product call; both run through the core behind
    # cc_upper_batch
    for space in (heis, engel_space):
        n = space.algebra.dim
        x = np.zeros(n)
        target = rng.standard_normal(n)
        est = estimate_distance(space, x, target, budget=FAST, seed=0)
        end = est.witness.endpoint(space)
        assert np.allclose(end, target, atol=1e-8)
        assert est.witness.length(space) == pytest.approx(est.upper, rel=1e-12)
        batch, _ = cc_upper_batch(space, space.group.difference(x, target),
                                  budget=FAST, seed=0)
        assert est.upper == pytest.approx(batch[0], rel=1e-12)


def test_control_path_reparametrization(heis, rng):
    path = ControlPath(
        durations=rng.uniform(0.1, 1.0, 5),
        controls=rng.standard_normal((5, 2)),
        basepoint=rng.standard_normal(3),
    )
    fixed = path.constant_speed()
    assert np.allclose(fixed.endpoint(heis), path.endpoint(heis), atol=1e-12)
    assert fixed.length(heis) == pytest.approx(path.length(heis))
    speeds = heis.metric.norm(fixed.controls)
    assert np.allclose(speeds, speeds[0])
    # the trace run backwards returns to the basepoint: the displacements
    # followed by their negatives in reverse order multiply to the identity
    disp = fixed.durations[:, None] * fixed.controls
    loop = np.concatenate([disp, -disp[::-1]])[None]
    assert np.allclose(path_endpoints_batch(heis.group, loop), 0.0,
                       atol=1e-12)


def test_square_loop_closure_exact(heis):
    # closing a pure e^Z defect costs exactly 4 (unit commutator square)
    endpoints = np.zeros((1, 3))
    targets = np.array([[0.0, 0.0, 1.0]])
    extra, closed, res, _ = close_defect_batch(heis, endpoints, targets)
    assert extra[0] == pytest.approx(4.0, rel=1e-12)
    assert res[0] < 1e-12
    assert np.allclose(closed, targets, atol=1e-12)


def test_ladder_closure_engel_exact(engel_space):
    # step 3: defects in every layer close exactly in few passes
    targets = np.array([[0.3, -0.2, 0.15, -0.4]])
    endpoints = np.zeros((1, 4))
    extra, closed, res, _ = close_defect_batch(engel_space, endpoints, targets)
    assert res[0] < 1e-10
    assert np.allclose(closed, targets, atol=1e-10)
    assert extra[0] > 0


@pytest.mark.parametrize("case", ["heisenberg", "engel"])
def test_closure_moves_only_the_rows_still_off(case, rng):
    # a row 3e-14 off its target meets the tolerance: a far-off row in its
    # batch adds no length to it and leaves it the residual it has alone
    space = CCSpace(catalog.get(case))
    targets = rng.uniform(-0.5, 0.5, (2, space.algebra.dim))
    endpoints = targets.copy()
    endpoints[0, -1] += 3e-14
    endpoints[1] = 0.0
    extra, closed, res, segs = close_defect_batch(space, endpoints, targets,
                                                  collect=True)
    alone, _, alone_res, _ = close_defect_batch(space, endpoints[:1],
                                                targets[:1])
    assert extra[0] == alone[0] == 0.0
    assert res[0] == alone_res[0]
    assert np.array_equal(closed[0], endpoints[0])
    assert all(np.all(u[0] == 0.0) for u in segs)
    assert extra[1] > 0 and res[1] < 1e-10


def test_lower_bounds(heis, heis_ballbox):
    x = np.zeros(3)
    y = np.array([0.6, -0.8, 0.0])
    assert cc_lower_abelian(heis, x, y) == pytest.approx(1.0)
    z = np.array([0.0, 0.0, 1.0])
    assert cc_lower_abelian(heis, x, z) == 0.0
    bb = cc_lower_ballbox(heis, x, z, heis_ballbox)
    assert 0 < bb <= np.sqrt(4 * np.pi)


@pytest.mark.parametrize("case", ["heisenberg", "engel", "free2-3", "free2-4",
                                  "filiform", "chain5", "anisotropic"])
def test_layer_bounds_hold_on_random_paths(case, filiform, rng):
    # every layer's constant and every lower-bound term, the closed-loop
    # Dido form included, hold on paths to the point; where layer 2 is
    # one-dimensional and the metric standard, the arcs come within 1e-3
    # of the layer-2 term
    if case == "anisotropic":
        space = CCSpace(catalog.heisenberg(),
                        HorizontalMetric([[2.0, 0.3], [0.3, 0.5]]))
    elif case == "filiform":
        space = CCSpace(filiform)
    elif case == "chain5":
        # the degree-6 chain's quotient by its top layer: degree 5
        space = CCSpace(catalog.GradedAlgebra(case, [2, 1, 1, 1, 1],
                                              filiform.structure[:6, :6, :6]))
    else:
        space = CCSpace(catalog.get(case))
    K = np.array(space.layer_bounds().K)
    powers = np.arange(2, space.algebra.num_layers + 1)
    d1, B = space.d1, 400
    # rows u @ unmetric have metric norm |u|
    unmetric = np.linalg.inv(np.linalg.cholesky(space.metric.gram))
    dido = []
    for m in (2, 3, 5, 8, 16, 32):
        gauss = rng.standard_normal((B, m, d1))
        # arcs of constant turning in a random plane, orthonormal for the
        # metric, spanning up to a full turn: Dido's extremals over a chord
        # and closed
        frame, _ = np.linalg.qr(rng.standard_normal((B, d1, 2)))
        angle = rng.uniform(0, 2 * np.pi, (B, 1)) * np.arange(m) / m
        arcs = (np.cos(angle)[..., None] * frame[:, None, :, 0]
                + np.sin(angle)[..., None] * frame[:, None, :, 1]) @ unmetric
        for controls in (gauss, arcs):
            ends = path_endpoints_batch(space.group, controls)
            length = np.sum(space.metric.norm(controls), axis=-1)
            norms = space.layer_norms(ends)[:, 1:]
            assert np.all(norms <= K * length[:, None] ** powers * (1 + 1e-12))
            assert np.all(lower_bounds_batch(space, ends)
                          <= length * (1 + 1e-12))
            terms = dict(metric._lower_terms(space, ends, None))
            dido.append(np.max(terms["dido"] / length))
    if case in ("heisenberg", "engel", "filiform", "chain5"):
        assert max(dido) > 0.999


def test_closed_loop_bound_is_exact_on_vertical_targets(heis):
    # d(0, 0, z) = sqrt(4 pi |z|): the loop closes into a circle, and the
    # closed-loop Dido form reads the distance at every scale
    t = 10.0 ** np.arange(-100, 101, 20)
    points = np.zeros((len(t), 3))
    points[:, 2] = t * t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower = lower_bounds_batch(heis, points)
    np.testing.assert_allclose(lower, heisenberg_distance(points), rtol=1e-12)
    labels, terms = zip(*metric._lower_terms(heis, points, None))
    assert set(np.array(labels)[np.argmax(terms, axis=0)]) == {"dido"}
    # estimate_distance clamps its lower bound, so the unclamped one is
    # held to its certified upper bound
    for point, bound in zip(points, lower):
        est = estimate_distance(heis, np.zeros(3), point, budget=FAST, seed=3)
        assert bound <= est.upper * (1 + 1e-12) and est.lower_method == "dido"


def test_layer_terms_do_not_overflow_on_far_points(heis, engel_space):
    # (|z_k| / K_k)^(1/k) overflows at these points although their
    # distance is finite: such rows take |z_k|^(1/k) / K_k^(1/k), and the
    # rows beside them keep their bits
    near = np.random.default_rng(5).standard_normal((3, 4))
    for space, far in ((heis, [[0, 0, 1e308]]),
                       (engel_space, [[0, 0, 0, 1e308], [0, 0, 1e308, 0]])):
        n = space.algebra.dim
        points = np.concatenate([near[:, :n], far])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower = lower_bounds_batch(space, points)
            upper = certified_upper_cheap(space, points)
        assert np.all(np.isfinite(lower)) and np.all(lower <= upper)
        assert np.array_equal(lower[:3], lower_bounds_batch(space, near[:, :n]))
    assert lower_bounds_batch(heis, [[0, 0, 1e308]])[0] == pytest.approx(
        np.sqrt(4 * np.pi) * 1e154, rel=1e-12)


def test_dido_bound_is_sharp_on_heisenberg(heis):
    # a 256-gon inscribed in a semicircle over its diameter
    theta = np.linspace(np.pi, 0.0, 257)
    steps = np.diff(np.stack([np.cos(theta), np.sin(theta)], axis=1), axis=0)
    z = abs(path_endpoints_batch(heis.group, steps[None])[0, 2])
    length = np.sum(np.linalg.norm(steps, axis=1))
    assert heis.layer_bounds().sources == ("dido",)
    assert 0.999 / (2 * np.pi) <= z / length**2 <= heis.layer_bounds().K[0]


def test_layer_bound_constants():
    # Dido is exact for one-dimensional layer 2; Engel's K_3 is
    # |T_3| c_3 = (sqrt 2 / 3) * 1
    engel = CCSpace(catalog.engel()).layer_bounds()
    assert engel.K == pytest.approx((1 / (2 * np.pi), np.sqrt(2) / 3), rel=1e-15)
    assert engel.as_dict()["layer3"] == {"K": engel.K[1],
                                         "source": "signature"}
    lower = lower_bounds_batch(CCSpace(catalog.engel()),
                               np.array([[0.0, 0.0, 0.0, 1.0]]))
    assert lower[0] == pytest.approx(engel.K[1] ** (-1 / 3), rel=1e-15)
    scaled = CCSpace(catalog.heisenberg(), HorizontalMetric(np.eye(2) / 4))
    assert scaled.layer_bounds().K[0] == pytest.approx(4 / (2 * np.pi))
    assert CCSpace(catalog.abelian(2)).layer_bounds().K == ()


def test_lower_bound_below_exact_heisenberg_distance(heis, heis_ballbox):
    # uniform in the r = 1 box of the calibrated constant; the calibrated
    # term is empirical, so it is left out
    rng = np.random.default_rng(12)
    half = enclosing_box_halfwidths(heis, heis_ballbox, 1.0)
    pts = rng.uniform(-1.0, 1.0, (20000, 3)) * half
    exact = heisenberg_distance(pts)
    lower = lower_bounds_batch(heis, pts)
    assert np.all(lower <= exact * (1 + 1e-12))
    labels, terms = zip(*metric._lower_terms(heis, pts, None))
    assert set(np.array(labels)[np.argmax(terms, axis=0)]) == {
        "abelianization", "dido"}
    assert np.median(lower / exact) > 0.85
    upper, _ = cc_upper_batch(heis, pts[:200], budget=FAST, seed=13)
    assert np.all(exact[:200] <= upper * (1 + 1e-9))


def test_ballbox_constant_calibration(heis_ballbox):
    assert heis_ballbox.A >= 1.0
    assert heis_ballbox.max_ratio <= heis_ballbox.A
    assert heis_ballbox.as_dict()["samples"] == 150


def test_lower_never_exceeds_upper(heis, heis_ballbox, rng):
    pts = rng.standard_normal((200, 3))
    upper, _ = cc_upper_batch(heis, pts, budget=FAST, seed=1)
    lower = lower_bounds_batch(heis, pts, heis_ballbox)
    assert np.all(lower <= upper * (1 + 1e-9))


def test_triangle_inequality_certified(heis, rng):
    # lower(x,z) <= upper(x,y) + upper(y,z) holds for the true metric
    xs = rng.standard_normal((50, 3))
    ys = rng.standard_normal((50, 3))
    dxy = np.array([
        estimate_distance(heis, x, y, budget=FAST, seed=2).upper
        for x, y in zip(xs, ys)
    ])
    dyz = np.array([
        estimate_distance(heis, y, np.zeros(3), budget=FAST, seed=2).upper
        for y in ys
    ])
    dxz_lower = np.array([cc_lower_abelian(heis, x, np.zeros(3)) for x in xs])
    assert np.all(dxz_lower <= dxy + dyz + 1e-9)


def test_left_invariance(heis, rng):
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    g = rng.standard_normal(3)
    gx = heis.group.bch(g, x)
    gy = heis.group.bch(g, y)
    e1 = estimate_distance(heis, x, y, budget=FAST, seed=3)
    e2 = estimate_distance(heis, gx, gy, budget=FAST, seed=3)
    # the displacement agrees up to float roundoff in the translation,
    # which the optimizer amplifies mildly
    assert e1.upper == pytest.approx(e2.upper, rel=1e-3)
    assert e1.lower == pytest.approx(e2.lower, rel=1e-9)


def test_dilation_covariance_exact(heis, rng):
    pts = rng.standard_normal((20, 3))
    # powers of two dilate without roundoff, so covariance is bitwise
    pts2 = np.array([dilate(heis.algebra, 4.0, p) for p in pts])
    u1, _ = cc_upper_batch(heis, pts, budget=FAST, seed=4)
    u2, _ = cc_upper_batch(heis, pts2, budget=FAST, seed=4)
    assert np.allclose(u2, 4.0 * u1, rtol=1e-12)
    # generic factors agree up to normalization roundoff
    pts3 = np.array([dilate(heis.algebra, 3.0, p) for p in pts])
    u3, _ = cc_upper_batch(heis, pts3, budget=FAST, seed=4)
    assert np.allclose(u3, 3.0 * u1, rtol=5e-3)


def test_symmetry(heis, rng):
    pts = rng.standard_normal((20, 3))
    u1, _ = cc_upper_batch(heis, pts, budget=FAST, seed=5)
    u2, _ = cc_upper_batch(heis, -pts, budget=FAST, seed=5)
    # same optimization problem up to the symmetry x -> -x of the group
    assert np.allclose(u1, u2, rtol=0.02)


def test_estimate_distance_report(heis, heis_ballbox):
    est = estimate_distance(heis, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                            budget=FAST, ballbox=heis_ballbox, seed=6)
    doc = est.as_dict(pair=[[0, 0, 0], [0, 0, 1]])
    # the closed-loop Dido bound sqrt(4 pi), the exact distance, beats the
    # calibrated 1 / A
    assert doc["lower_method"] == "dido"
    assert doc["lower"] == pytest.approx(np.sqrt(4 * np.pi), rel=1e-15)
    assert doc["lower"] <= doc["upper"]
    assert doc["witness_segments"] is not None
    assert doc["seed"] == 6


@pytest.mark.parametrize("name, point, method", [
    ("heisenberg", [1.0, 0.0, 0.0], "abelianization"),
    ("heisenberg", [0.0, 0.0, 1.0], "dido"),
    ("engel", [0.0, 0.0, 0.0, 1.0], "signature"),
    # (1 + sqrt 0.137) / A = 1.047 for the fixture's A = 1.308, above
    # |z_1| = 1 and Dido's sqrt(2 pi 0.137) = 0.93
    ("heisenberg", [1.0, 0.0, 0.137], "ball-box"),
], ids=["abelianization", "dido", "signature", "ball-box"])
def test_estimate_distance_names_the_largest_lower_bound(heis_ballbox, name,
                                                         point, method):
    space = CCSpace(catalog.get(name))
    ballbox = heis_ballbox if name == "heisenberg" else None
    est = estimate_distance(space, np.zeros(len(point)), np.array(point),
                            budget=FAST, ballbox=ballbox, seed=6)
    assert est.lower_method == method
    assert est.lower == lower_bounds_batch(space, np.array([point]),
                                           ballbox)[0]


def test_unreachable_layer_raises():
    # grading-valid algebra whose layer 2 is not generated by brackets
    c = np.zeros((2, 2, 2))
    a = catalog.GradedAlgebra("stub", [1, 1], c)
    space = CCSpace(a)
    with pytest.raises(UnreachableError):
        space.ladder()


def test_calibration_input_validation(heis):
    with pytest.raises(InputError):
        calibrate_ballbox(heis, samples=10)


def test_zero_distance(heis):
    est = estimate_distance(heis, np.ones(3), np.ones(3), budget=FAST)
    assert est.upper == 0.0
    assert est.lower == 0.0


def test_anisotropic_metric_distance():
    # doubling the metric on X doubles the cost of moving along X
    space = CCSpace(catalog.heisenberg(),
                    HorizontalMetric(np.diag([4.0, 1.0])))
    est = estimate_distance(space, np.zeros(3),
                            np.array([1.0, 0.0, 0.0]), budget=FAST)
    assert est.upper == pytest.approx(2.0, rel=1e-9)
    assert est.lower == pytest.approx(2.0, rel=1e-9)


def _fold_penalty(group, gram, controls, targets, mu):
    """The penalty objective per row by an explicit left-to-right product."""
    d = gram.shape[0]
    value = np.zeros(len(controls))
    for b, (u, target) in enumerate(zip(controls, targets)):
        steps = np.zeros((len(u), group.dim))
        steps[:, :d] = u
        misfit = group.bch_many(steps) - target
        value[b] = np.einsum("mi,ij,mj->", u, gram, u) + mu * misfit @ misfit
    return value


@pytest.mark.parametrize("case", ["heisenberg", "engel", "free2-3", "abelian3",
                                  "filiform6", "filiform"])
@pytest.mark.parametrize("full", [False, True], ids=["horizontal", "full"])
def test_prefix_endpoints_match_bch_fold(case, full, filiform, rng):
    if case == "filiform6":
        # the degree-6 chain's quotient by its top layer: degree 5
        algebra = catalog.GradedAlgebra(case, [2, 1, 1, 1, 1],
                                        filiform.structure[:6, :6, :6])
    elif case == "filiform":
        algebra = filiform
    else:
        algebra = catalog.get(case)
    group = CarnotGroup(algebra)
    d = algebra.dim if full else algebra.layer_dims[0]
    # blocks of q = m, 1 < q < m with a short last block of two steps or
    # of one, and q = 1
    for B, m in [(1, 1), (2, 12), (50, 12), (50, 11), (600, 7)]:
        controls = 0.5 * rng.standard_normal((B, m, d))
        z = _prefix_endpoints(group, controls)
        fold = np.zeros((B, algebra.dim))
        np.testing.assert_array_equal(z[:, 0], fold)
        for j in range(m):
            step = np.zeros((B, algebra.dim))
            step[:, :d] = controls[:, j]
            fold = group.bch(fold, step)
            np.testing.assert_allclose(z[:, j + 1], fold, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(fold)))


def _gradient_case(case, filiform):
    """Group and control metric of the five gradient and Jacobian cases.

    heisenberg needs only the telescoped layers 1-2, free2-3 has a
    3-dimensional layer 2, engel blocks its layer-3 product calls, the
    completion has full-coordinate controls and the degree-6 filiform
    takes one product call per step.
    """
    algebra = {"heisenberg": catalog.heisenberg(), "engel": catalog.engel(),
               "free2-3": catalog.get("free2-3"),
               "completion": catalog.heisenberg(), "filiform": filiform}[case]
    gram = np.array([[2.0, 0.3], [0.3, 1.0]])
    if case == "free2-3":
        gram = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.5]])
    if case == "completion":
        gram = np.eye(algebra.dim)
        gram[:2, :2] = [[2.0, 0.3], [0.3, 1.0]]
    return CarnotGroup(algebra), gram


GRADIENT_CASES = ["heisenberg", "free2-3", "engel", "completion", "filiform"]


@pytest.mark.parametrize("case", GRADIENT_CASES)
def test_penalty_gradient_matches_finite_differences(case, filiform, rng):
    group, gram = _gradient_case(case, filiform)
    algebra = group.algebra
    controls = 0.5 * rng.standard_normal((2, 5, gram.shape[0]))
    targets = rng.standard_normal((2, algebra.dim))
    mu = 10.0
    value, grad, _ = _penalty(group, gram, controls, targets, mu)
    np.testing.assert_allclose(
        value, _fold_penalty(group, gram, controls, targets, mu), rtol=1e-12)
    h = 1e-6
    fd = np.zeros_like(controls)
    for idx in np.ndindex(*controls.shape):
        step = np.zeros_like(controls)
        step[idx] = h
        fd[idx] = (_fold_penalty(group, gram, controls + step, targets, mu)
                   - _fold_penalty(group, gram, controls - step, targets, mu)
                   )[idx[0]] / (2 * h)
    np.testing.assert_allclose(grad.reshape(controls.shape), fd, rtol=1e-6,
                               atol=1e-6 * np.max(np.abs(fd)))


@pytest.mark.parametrize("case", GRADIENT_CASES)
def test_endpoint_jacobian_matches_finite_differences(case, filiform, rng):
    group, gram = _gradient_case(case, filiform)
    controls = 0.5 * rng.standard_normal((2, 5, gram.shape[0]))
    end, jac = _endpoint_jacobian(group, controls)
    np.testing.assert_array_equal(end, path_endpoints_batch(group, controls))
    h = 1e-6
    fd = np.zeros((2, group.dim) + controls.shape[1:])
    for idx in np.ndindex(*controls.shape[1:]):
        step = np.zeros_like(controls)
        step[(slice(None),) + idx] = h
        fd[(slice(None), slice(None)) + idx] = (
            path_endpoints_batch(group, controls + step)
            - path_endpoints_batch(group, controls - step)) / (2 * h)
    fd = fd.reshape(jac.shape)
    np.testing.assert_allclose(jac, fd, rtol=1e-6,
                               atol=1e-6 * np.max(np.abs(fd)))


def _series_pullback(group, controls, covectors):
    """Every covector through psi(-ad z_m) exp(ad z_{j-1}) phi(-ad s_j).

    One path and step at a time, from an explicit product fold; returns
    (B, r, m * d) like ``_pullback``.
    """
    table, kernel = group.table, group.algebra.kernel
    B, m, d = controls.shape
    out = np.zeros((B, covectors.shape[1], m, d))
    for b in range(B):
        steps = np.zeros((m, group.dim))
        steps[:, :d] = controls[b]
        prefix = [np.zeros(group.dim)]
        for s in steps:
            prefix.append(group.bch(prefix[-1], s))
        at_end = row_series(kernel, covectors[b],
                            kernel.factor(-prefix[-1]), table.psi)
        for j in range(m):
            rows = row_series(kernel, at_end, kernel.factor(prefix[j]),
                              table.exp)
            rows = row_series(kernel, rows, kernel.factor(-steps[j]),
                              table.phi)
            out[b, :, j] = rows[:, :d]
    return out.reshape(B, -1, m * d)


@pytest.mark.parametrize("case", ["heisenberg", "engel", "abelian3",
                                  "free2-3", "filiform",
                                  "completion-heisenberg",
                                  "completion-engel"])
def test_pullback_layers_match_series(case, filiform, rng):
    # the closed-form layers 1-2 against the series on every covector
    name = case.removeprefix("completion-")
    algebra = filiform if name == "filiform" else catalog.get(name)
    group = CarnotGroup(algebra)
    n, d1 = algebra.dim, algebra.layer_dims[0]
    top = sum(algebra.layer_dims[:2])
    d = n if case.startswith("completion") else d1
    B, m = 3, 5
    controls = 0.5 * rng.standard_normal((B, m, d))
    z = _prefix_endpoints(group, controls)

    def check(got, want):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    # two covectors with content only in layers 1-2, then two in every layer
    low = rng.standard_normal((B, 2, n))
    low[..., top:] = 0.0
    covectors = np.concatenate([low, rng.standard_normal((B, 2, n))], axis=1)
    want = _series_pullback(group, controls, covectors)
    # on a group of at most two layers every covector takes the closed form
    check(_pullback(group, z, controls, covectors, 2), want)
    check(_pullback(group, z, controls, covectors), want)
    # the Jacobian's unit covectors
    end, jac = _endpoint_jacobian(group, controls)
    check(jac, _series_pullback(group, controls,
                                np.broadcast_to(np.eye(n), (B, n, n))))
    # the penalty gradient's single covector 2 mu (z_m - target)
    gram = np.eye(d)
    targets = rng.standard_normal((B, n))
    mu = 10.0
    _, grad, _ = _penalty(group, gram, controls, targets, mu)
    pulled = _series_pullback(group, controls,
                              2.0 * mu * (end - targets)[:, None])
    check(grad.reshape(controls.shape),
          2.0 * controls + pulled.reshape(controls.shape))


POLYNOMIAL_GROUPS = ["heisenberg", "engel", "abelian3", "free2-3"]


@pytest.mark.parametrize("name", POLYNOMIAL_GROUPS)
@pytest.mark.parametrize("full", [False, True], ids=["horizontal", "full"])
def test_endpoint_polynomial_matches_the_fold_at_the_cap(name, full, rng):
    # just under the cap the cached polynomial gives the endpoint and its
    # Jacobian; it matches the prefix products and the series oracle.
    # One step more and path_endpoints_batch takes the fold.
    group = CarnotGroup(catalog.get(name))
    n = group.dim
    d = n if full else group.algebra.layer_dims[0]
    m = metric.POLY_CONTROLS // d
    controls = 0.5 * rng.standard_normal((3, m, d))
    end, jac = _endpoint_jacobian(group, controls)
    assert (m, d) in group.table.endpoint_polynomials
    np.testing.assert_array_equal(end, path_endpoints_batch(group, controls))

    def check(got, want):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))

    check(end, _prefix_endpoints(group, controls)[:, -1])
    check(jac, _series_pullback(group, controls,
                                np.broadcast_to(np.eye(n), (3, n, n))))
    longer = 0.5 * rng.standard_normal((3, m + 1, d))
    np.testing.assert_array_equal(path_endpoints_batch(group, longer),
                                  _prefix_endpoints(group, longer)[:, -1])
    assert (m + 1, d) not in group.table.endpoint_polynomials


@pytest.mark.parametrize("name", POLYNOMIAL_GROUPS)
@pytest.mark.parametrize("full", [False, True], ids=["horizontal", "full"])
def test_endpoint_rows_ignore_their_batch_mates(name, full, rng):
    # a row's endpoint and Jacobian alone have the bits they have inside
    # a 37-row batch, at the solver's step counts and at the cap
    group = CarnotGroup(catalog.get(name))
    d = group.dim if full else group.algebra.layer_dims[0]
    cap = metric.POLY_CONTROLS // d
    for m in sorted({m for m in (8, 12) if m <= cap} | {cap}):
        controls = rng.standard_normal((37, m, d))
        end, jac = _endpoint_jacobian(group, controls)
        for b in range(37):
            one_end, one_jac = _endpoint_jacobian(group, controls[b:b + 1])
            np.testing.assert_array_equal(one_end[0], end[b])
            np.testing.assert_array_equal(one_jac[0], jac[b])
            np.testing.assert_array_equal(
                path_endpoints_batch(group, controls[b:b + 1])[0], end[b])


def test_singular_row_leaves_the_other_rows_bits(rng):
    # one all-zero matrix takes the pseudo-inverse; every other row keeps
    # the bits np.linalg.solve gives it alone
    a = rng.standard_normal((5, 3, 3))
    a[2] = 0.0
    b = rng.standard_normal((5, 3))
    x = metric._solve(a, b)
    for i in (0, 1, 3, 4):
        np.testing.assert_array_equal(x[i], np.linalg.solve(a[i], b[i]))
    np.testing.assert_array_equal(x[2], np.zeros(3))


@pytest.mark.parametrize("name", ["heisenberg", "engel"])
def test_projection_rows_ignore_their_batch_mates(name):
    # rows that leave the projection at different steps: on the target at
    # the start, after 1, 2 and 4-5 Gauss-Newton steps, never within the
    # steps (a zero tolerance) and at once with a non-finite residual;
    # each gets the bits that the projection gives it alone
    rng = np.random.default_rng(50)
    group = CarnotGroup(catalog.get(name))
    m, d, steps = 8, group.algebra.layer_dims[0], 6
    exact = rng.standard_normal((6, m, d))
    targets = path_endpoints_batch(group, exact)
    size = np.array([0.0, 1e-7, 1e-3, 0.3, 0.3, 0.0])
    controls = exact + size[:, None, None] * rng.standard_normal(exact.shape)
    controls[5, 2] = np.nan
    tol = metric.PROJECT_TOL * (1.0 + np.linalg.norm(targets, axis=-1))
    tol[4] = 0.0
    batch = metric._project(group, controls, targets, tol, steps)
    assert batch[3].tolist() == [True] * 4 + [False] * 2
    assert np.all(np.isfinite(batch[1][4])) and np.isnan(batch[1][5, 0])
    for b in range(6):
        alone = metric._project(group, controls[b:b + 1], targets[b:b + 1],
                                tol[b:b + 1], steps)
        assert not np.shares_memory(alone[0], controls)
        for got, want in zip(batch, alone):
            np.testing.assert_array_equal(got[b], want[0])


def test_line_search_rows_ignore_their_batch_mates(monkeypatch):
    # on a group of step 4 every prefix product takes one step (q = 1), so
    # no row depends on its batch.  In the warm stage's first iteration
    # every row tries alpha = 1 and some need halvings.  In the SQP some
    # rows stop before the first line search, which both accepts and
    # halves, and the floor stops some rows but not all.  Every row, and
    # whether the floor stopped it, gets the bits it gets alone.
    space = CCSpace(filiform_algebra(5))
    group, gram = space.group, space.metric.gram
    targets = np.random.default_rng(4).standard_normal((96, 5))
    starts = _draw_starts(space, targets, MEMBERSHIP_BUDGET, 5)
    (rows, inits), = starts.chunks
    targets, controls = starts.unit[rows], inits[0]
    assert len(targets) == 96
    calls, mu, cap = [], 1e4, metric.WARM_ITER
    penalty, project = metric._penalty, metric._project
    monkeypatch.setattr(metric, "_penalty", lambda group, gram, u, *rest: (
        calls.append(len(u)), penalty(group, gram, u, *rest))[1])
    warm = metric._warm(group, gram, targets, controls, mu, cap)
    # the start, then the first iteration's alpha = 1 and 1/2 trials
    assert calls[:2] == [96, 96] and 0 < calls[2] < 96
    for b in range(96):
        alone = metric._warm(group, gram, targets[b:b + 1],
                             controls[b:b + 1], mu, cap)
        np.testing.assert_array_equal(alone[0], warm[b])
    trials = []
    monkeypatch.setattr(metric, "_project", lambda group, u, *rest: (
        trials.append(len(u)) if rest[-1] == metric.TRIAL_STEPS else None,
        project(group, u, *rest))[1])
    free = _optimize_controls(group, gram, targets, controls,
                              MEMBERSHIP_BUDGET)
    floor = np.full(96, np.median(np.sum(space.metric.norm(free), axis=-1)))
    stop = metric._Stop(np.ones(96), None, floor)
    trials.clear()
    batch = _optimize_controls(group, gram, targets, controls,
                               MEMBERSHIP_BUDGET, stop)
    # the first SQP iteration's alpha = 1 and 1/2 trials
    assert 0 < trials[1] < trials[0] < 96
    assert 0 < np.sum(stop.floored) < 96
    for b in range(96):
        rule = metric._Stop(np.ones(1), None, floor[b:b + 1])
        alone = _optimize_controls(group, gram, targets[b:b + 1],
                                   controls[b:b + 1], MEMBERSHIP_BUDGET, rule)
        np.testing.assert_array_equal(alone[0], batch[b])
        assert rule.floored[0] == stop.floored[b]


def test_optimized_controls_meet_pontryagin_condition(heis):
    # stationary rows are discrete normal extremals: 2 G u + J^T lam = 0
    # for the least-squares multiplier lam of the endpoint constraint
    rng = np.random.default_rng(21)
    targets = rng.standard_normal((20, 3))
    targets /= heis.homogeneous_norm(targets)[:, None] ** np.array([1, 1, 2])
    budget = dataclasses.replace(FAST, starts=1)
    controls0 = _initial_controls(heis, targets, budget, rng)[0]
    controls = _optimize_controls(heis.group, heis.metric.gram, targets,
                                  controls0, budget)
    end, jac = _endpoint_jacobian(heis.group, controls)
    assert np.all(np.linalg.norm(end - targets, axis=-1) <= 1e-12)
    grad = 2.0 * (controls @ heis.metric.gram).reshape(len(targets), -1)
    for g, j in zip(grad, jac):
        lam = np.linalg.lstsq(j.T, -g, rcond=None)[0]
        assert np.linalg.norm(g + j.T @ lam) <= 1e-6 * np.linalg.norm(g)


def test_membership_gap_to_exact_heisenberg(heis):
    # 512 points of the exact unit sphere, at the membership budget; the
    # penalty-continuation solver this replaced gave a median gap of
    # 0.823% and a p90 of 2.077% on them
    rng = np.random.default_rng(22)
    pts = rng.standard_normal((512, 3))
    scale = heisenberg_distance(pts)
    pts /= scale[:, None] ** np.array([1, 1, 2])
    upper, residual = cc_upper_batch(heis, pts, budget=MEMBERSHIP_BUDGET,
                                     seed=23)
    gap = upper / heisenberg_distance(pts) - 1.0
    assert np.all(gap >= -1e-9)
    assert np.all(residual <= 1e-9)
    p50, p90 = np.percentile(gap, [50, 90])
    assert p50 <= 0.00823 and p90 <= 0.02077


def test_engel_bounds_stable_under_last_bit(engel_space):
    # the rows' optimizer runs converge, so a last-bit change of the
    # targets moves the bounds by no more than the solver's tolerances
    rng = np.random.default_rng(24)
    targets = rng.standard_normal((20, 4))
    targets /= (engel_space.homogeneous_norm(targets)[:, None]
                ** engel_space.algebra.layer_of)
    budget = OptimizerBudget(segments=12, starts=2)
    upper, _ = cc_upper_batch(engel_space, targets, budget=budget, seed=25)
    moved, _ = cc_upper_batch(engel_space, targets * (1 + 2e-16),
                              budget=budget, seed=25)
    assert np.all(np.abs(moved / upper - 1.0) <= 1e-6)


def test_failed_row_falls_back_to_the_ladder(heis, monkeypatch, rng):
    # a row whose every start comes back infeasible gets the straight
    # segment plus its ladder closure, and the batch still succeeds
    pts = rng.standard_normal((6, 3))
    solve = metric._optimize_controls

    def spoiled(group, gram, targets, controls0, budget, stop=None):
        controls = solve(group, gram, targets, controls0, budget, stop)
        # row 0 of every start: the starts are stacked start-major
        controls[:: len(targets) // budget.starts] = np.nan
        return controls

    monkeypatch.setattr(metric, "_optimize_controls", spoiled)
    upper, residual = cc_upper_batch(heis, pts, budget=FAST, seed=26)
    assert np.all(np.isfinite(upper))
    assert upper[0] == certified_upper_cheap(heis, pts[:1])[0]
    assert residual[0] <= 1e-9
    est = estimate_distance(heis, np.zeros(3), pts[0], budget=FAST, seed=26)
    assert est.upper == pytest.approx(upper[0], rel=1e-12)
    assert np.allclose(est.witness.endpoint(heis), pts[0], atol=1e-9)


def _sphere_points(count, seed):
    # Heisenberg points at exact distances spread over [0.5, 1.5]
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, 3))
    scale = heisenberg_distance(pts) / rng.uniform(0.5, 1.5, count)
    return pts / scale[:, None] ** np.array([1, 1, 2])


def test_decided_rows_are_certified(heis):
    # a decided row keeps a projected path no longer than the radius: a
    # bound at most r, feasible, and at least the exact distance
    pts = _sphere_points(300, 27)
    exact = heisenberg_distance(pts)
    full, _ = cc_upper_batch(heis, pts, budget=FAST, seed=28)
    upper, residual = cc_upper_batch(heis, pts, budget=FAST, seed=28,
                                     radius=1.0)
    decided = upper <= 1.0
    assert np.all(residual[decided] <= 1e-9)
    assert np.all(upper >= exact * (1 - 1e-12))
    # the same members, and some of them stopped short of the minimum
    assert np.array_equal(decided, full <= 1.0)
    assert np.any(upper[decided] > full[decided] * (1 + 1e-6))
    # the undecided rows ran the solver as without a radius
    assert np.array_equal(upper[~decided], full[~decided])


def test_undecided_engel_rows_ignore_the_radius(engel_space):
    rng = np.random.default_rng(32)
    targets = rng.standard_normal((8, 4))
    targets /= (engel_space.homogeneous_norm(targets)[:, None]
                ** engel_space.algebra.layer_of)
    targets *= rng.uniform(0.5, 1.5, (8, 1)) ** engel_space.algebra.layer_of
    full, _ = cc_upper_batch(engel_space, targets, budget=FAST, seed=33)
    upper, _ = cc_upper_batch(engel_space, targets, budget=FAST, seed=33,
                              radius=1.0)
    decided = upper <= 1.0
    assert np.any(decided) and not np.all(decided)
    assert np.array_equal(decided, full <= 1.0)
    assert np.array_equal(upper[~decided], full[~decided])


def test_unmet_radius_changes_nothing(heis, engel_space):
    for space, count in ((heis, 40), (engel_space, 8)):
        rng = np.random.default_rng(29)
        targets = rng.standard_normal((count, space.algebra.dim))
        full = cc_upper_batch(space, targets, budget=FAST, seed=30)
        unmet = cc_upper_batch(space, targets, budget=FAST, seed=30,
                               radius=1e-3)
        assert np.array_equal(unmet[0], full[0])
        assert np.array_equal(unmet[1], full[1])


def test_warm_stage_runs_only_above_step_two(heis, engel_space, monkeypatch,
                                            rng):
    # step-2 groups project their starts directly; Engel runs the warm stage
    warm = metric._warm

    def refuse(*args, **kwargs):
        raise AssertionError("warm stage ran on a step-2 group")

    monkeypatch.setattr(metric, "_warm", refuse)
    for space in (heis, CCSpace(catalog.get("free2-3"))):
        targets = rng.standard_normal((10, space.algebra.dim))
        for radius in (None, 1.0):
            upper, residual = cc_upper_batch(space, targets, budget=FAST,
                                             seed=31, radius=radius)
            assert np.all(np.isfinite(upper)) and np.all(residual <= 1e-9)
    calls = []

    def count(*args, **kwargs):
        calls.append(1)
        return warm(*args, **kwargs)

    monkeypatch.setattr(metric, "_warm", count)
    cc_upper_batch(engel_space, rng.standard_normal((4, 4)), budget=FAST,
                   seed=31)
    assert calls


def test_non_finite_input_rejected(heis):
    for bad in ([np.nan, 0, 0], [np.inf, 0, 0], [0, 0, -np.inf]):
        with pytest.raises(InputError):
            cc_upper_batch(heis, np.array([[1.0, 0, 0], bad]))
    for radius in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InputError):
            cc_upper_batch(heis, np.array([[1.0, 0, 0]]), radius=radius)


def test_targets_too_large_to_square_get_their_bound(heis):
    # the norms scale such rows before squaring: the optimizer bounds them
    # at unit scale, and the straight segment plus its closure gets the
    # square loop of side 1e100 and the exact horizontal distance
    upper, _ = cc_upper_batch(heis, np.array([[0, 0, 1e200], [1e200, 0, 0]]))
    assert np.sqrt(4 * np.pi * 1e200) <= upper[0] <= 1.01 * np.sqrt(
        4 * np.pi * 1e200)
    assert upper[1] == pytest.approx(1e200, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cheap = certified_upper_cheap(heis, [[0, 0, 1e200], [1e200, 0, 0]])
    assert np.sqrt(4 * np.pi * 1e200) <= cheap[0] == 4e100
    assert cheap[1] == 1e200


CALIBRATION = OptimizerBudget(segments=12, starts=2)


def _calibration_reference(space, samples, seed):
    """The largest ratio over every sample, all bounded in one batch."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, space.algebra.dim))
    raw[0] = space.embed_horizontal(np.ones(space.d1))
    vs = raw * ((1.0 / space.homogeneous_norm(raw))[:, None]
                ** space.algebra.layer_of.astype(float))
    upper, _ = cc_upper_batch(space, vs, budget=CALIBRATION,
                              seed=int(rng.integers(2**32)))
    return float(np.max(space.homogeneous_norm(vs) / upper))


@pytest.mark.parametrize("case, samples, seed", [
    ("heisenberg", 100, 1000), ("heisenberg", 150, 3), ("heisenberg", 1000, 0),
    ("heisenberg-gram", 100, 0), ("free2-3", 100, 0), ("abelian3", 100, 0),
    ("engel", 200, 0),
])
def test_calibration_keeps_the_full_maximum(case, samples, seed):
    # only the samples whose ceiling can still set the maximum are bounded,
    # from the starts the whole batch draws; on abelian3 every ceiling is 1
    # and the ratios differ from it only by roundoff
    if case == "heisenberg-gram":
        space = CCSpace(catalog.heisenberg(),
                        HorizontalMetric([[2.0, 0.3], [0.3, 1.0]]))
    else:
        space = CCSpace(catalog.get(case))
    got = calibrate_ballbox(space, samples, seed)
    want = _calibration_reference(space, samples, seed)
    assert got.max_ratio == want


def test_calibration_bounds_few_samples(heis, monkeypatch):
    rows = []
    solve = metric._optimize_controls

    def counted(group, gram, targets, controls0, budget, radius=None):
        rows.append(len(targets) // budget.starts)
        return solve(group, gram, targets, controls0, budget, radius)

    monkeypatch.setattr(metric, "_optimize_controls", counted)
    calibrate_ballbox(heis, 100, 1000)
    assert 0 < sum(rows) <= 25


@pytest.mark.parametrize("case", ["heisenberg", "heisenberg-gram", "free2-3",
                                  "engel"])
def test_row_bound_ignores_its_batch_mates(case):
    # a row bounded inside a permuted subset of the batch, from the batch's
    # starts, has the bits of its bound in the whole batch
    if case == "heisenberg-gram":
        space = CCSpace(catalog.heisenberg(),
                        HorizontalMetric([[2.0, 0.3], [0.3, 1.0]]))
    else:
        space = CCSpace(catalog.get(case))
    targets = np.random.default_rng(34).standard_normal((100, space.algebra.dim))
    full, residual = cc_upper_batch(space, targets, budget=CALIBRATION, seed=35)
    rows = np.array([55, 3, 90, 17, 42])
    starts = _draw_starts(space, targets, CALIBRATION, 35)
    upper, res, _, _ = _bound_rows(space, starts, 0, rows)
    assert np.array_equal(upper, full[rows])
    assert np.array_equal(res, residual[rows])


def _space(case):
    if case == "heisenberg-gram":
        return CCSpace(catalog.heisenberg(),
                       HorizontalMetric([[2.0, 0.3], [0.3, 1.0]]))
    return CCSpace(catalog.get(case))


def _cell_targets(space, cells, k, seed):
    """(cells, k, n) targets, each cell at its own scale."""
    rng = np.random.default_rng(seed)
    targets = rng.standard_normal((cells, k, space.algebra.dim))
    scale = rng.uniform(0.2, 3.0, cells)[:, None, None]
    return targets * scale ** space.algebra.layer_of.astype(float)


@pytest.mark.parametrize("case", ["heisenberg", "heisenberg-gram", "free2-3",
                                  "free2-4", "abelian3", "engel"])
def test_cc_upper_max_keeps_the_batch_maxima(case):
    # the rows a floor stops are certified below their cell's maximum, so
    # the maxima are those of the whole batch
    space = _space(case)
    targets = _cell_targets(space, 8, 12, 40)
    got, floored = cc_upper_max(space, targets, budget=MEMBERSHIP_BUDGET,
                                seed=41)
    full, _ = cc_upper_batch(space, targets.reshape(96, -1),
                             budget=MEMBERSHIP_BUDGET, seed=41)
    want = full.reshape(8, 12).max(axis=1)
    assert floored.shape == (8, 12) and np.any(floored)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["heisenberg", "heisenberg-gram", "free2-3",
                                  "engel"])
def test_cc_upper_max_keeps_the_smaller_bound_per_row(case, monkeypatch):
    # per cell the maximum over rows of min(optimized, ladder) bound; the
    # rows the ladder decides below their cell's floor never reach the
    # solver and are marked floored
    space = _space(case)
    targets = _cell_targets(space, 4, 24, 41)
    flat = targets.reshape(96, -1)
    full, _ = cc_upper_batch(space, flat, budget=MEMBERSHIP_BUDGET, seed=41)
    want = np.minimum(full, certified_upper_cheap(space, flat))
    bounded, bound = [], metric._bound_rows

    def recorded(space, starts, chunk, pick=slice(None), **kwargs):
        bounded.extend(starts.chunks[chunk][0][pick])
        return bound(space, starts, chunk, pick, **kwargs)

    monkeypatch.setattr(metric, "_bound_rows", recorded)
    got, floored = cc_upper_max(space, targets, budget=MEMBERSHIP_BUDGET,
                                seed=41)
    assert np.array_equal(got, want.reshape(4, 24).max(axis=1))
    decided = np.ones(96, dtype=bool)
    decided[bounded] = False
    assert np.any(decided) and np.all(floored.ravel()[decided])


def test_cc_upper_max_takes_the_ladder_where_it_is_shorter():
    # on the step-4 filiform group a single start can end far above the
    # straight segment plus its closure: row 33's reads 684.15 against
    # 43.29, so the row keeps its straight segment, and its cell's maximum
    # is the other rows'
    space = CCSpace(filiform_algebra(5))
    targets = np.random.default_rng(4).standard_normal((96, 5))
    full, _ = cc_upper_batch(space, targets, budget=MEMBERSHIP_BUDGET, seed=5)
    cheap = certified_upper_cheap(space, targets)
    assert full[33] == cheap[33] == pytest.approx(43.29, abs=0.01)
    got, _ = cc_upper_max(space, targets.reshape(8, 12, 5),
                          budget=MEMBERSHIP_BUDGET, seed=5)
    assert np.array_equal(got, full.reshape(8, 12).max(axis=1))
    assert got[2] < 50


@pytest.mark.parametrize("case", ["heisenberg", "free2-3", "engel",
                                  "filiform5"])
def test_upper_bound_never_above_the_straight_segment(case):
    # every row keeps the shorter of its optimized and straight-segment
    # bounds.  On filiform5 the optimized bound alone is above the straight
    # one on rows 33 and 89 of the batch at MEMBERSHIP_BUDGET (15.8x and
    # 1.02x) and on rows 26 and 89 at (12, 2, 30) (1.05x and 1.004x), and a
    # one-target estimate on rows 26 and 89 at (12, 2, 30); the estimate
    # re-sums its witness's length, which may move it by roundoff
    space = (CCSpace(filiform_algebra(5)) if case == "filiform5"
             else _space(case))
    n = space.algebra.dim
    targets = np.random.default_rng(4).standard_normal((96, n))
    cheap = certified_upper_cheap(space, targets)
    for budget in (MEMBERSHIP_BUDGET,
                   OptimizerBudget(segments=12, starts=2, max_iter=30)):
        upper, _ = cc_upper_batch(space, targets, budget=budget, seed=5)
        assert np.all(upper <= cheap * (1 + 1e-15))
        for row in (26, 33, 89):
            est = estimate_distance(space, np.zeros(n), targets[row],
                                    budget=budget, seed=5)
            assert est.upper <= cheap[row] * (1 + 1e-15)


@pytest.mark.parametrize("case", ["heisenberg", "heisenberg-gram", "engel",
                                  "abelian3", "free2-3", "free2-4",
                                  "filiform5"])
def test_ladder_floor_stays_below_the_cheap_bound(case):
    # provably, roundoff included: on random points, on near-horizontal
    # ones (|x_2| near 1e-12 |x_1|^2, where a wrong roundoff bound shows
    # most, at the closure's tolerance), and at 1e-100 and 1e100
    space = CCSpace(filiform_algebra(5)) if case == "filiform5" else _space(case)
    a = space.algebra
    rng = np.random.default_rng(6)
    points = rng.standard_normal((10000, a.dim))
    near = rng.standard_normal((2000, a.dim))
    if a.num_layers > 1:
        x1 = np.linalg.norm(near[:, : space.d1], axis=1)
        sl = a.layer_slice(2)
        size = 10.0 ** rng.uniform(-13.0, -11.0, 2000) * x1 ** 2
        near[:, sl] *= (size / np.linalg.norm(near[:, sl], axis=1))[:, None]
        near[:, sl.stop:] *= 1e-12
    points = np.concatenate([points, near, 1e-100 * points[:1000],
                             1e100 * points[:1000]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floor = metric.ladder_floor(space, points)
        cheap = certified_upper_cheap(space, points)
    assert np.all(floor <= cheap)
    # where one closure pass closes a random point, the floor is its cheap
    # bound but for roundoff
    if a.num_layers == 2:
        assert np.all(floor[:10000] >= cheap[:10000] * (1 - 1e-10))


@pytest.mark.parametrize("case", ["heisenberg", "free2-3"])
def test_floored_rows_are_certified_below_the_floor(case):
    # a row the floor stops keeps a projected path: its bound lies between
    # its certified lower bound and the floor; the other rows run the
    # solver to the end and keep the bits of the whole batch
    space = _space(case)
    targets = _cell_targets(space, 1, 64, 42)[0]
    full, residual = cc_upper_batch(space, targets, budget=MEMBERSHIP_BUDGET,
                                    seed=43)
    floor = np.full(64, np.median(full))
    starts = _draw_starts(space, targets, MEMBERSHIP_BUDGET, 43)
    upper, res, _, floored = _bound_rows(space, starts, 0, floor=floor)
    lower = lower_bounds_batch(space, targets)
    assert np.any(floored) and not np.all(floored)
    assert np.all(res[floored] <= 1e-9)
    assert np.all(lower[floored] <= upper[floored] * (1 + 1e-12))
    assert np.all(upper[floored] < floor[floored])
    assert np.array_equal(upper[~floored], full[~floored])
    assert np.array_equal(res[~floored], residual[~floored])


def test_cc_upper_max_fails_where_the_batch_fails(heis, monkeypatch, rng):
    # row 0, at unit scale already, gets no feasible start and no
    # feasible straight segment: ``_straight_ladder`` forms the straight
    # candidate of every bound
    targets = rng.standard_normal((2, 3, 3))
    targets[0, 0] = [1.0, 0.0, 0.0]
    solve, straight = metric._optimize_controls, metric._straight_ladder

    def spoiled(group, gram, tg, controls0, budget, stop=None):
        controls = solve(group, gram, tg, controls0, budget, stop)
        controls[np.all(tg == targets[0, 0], axis=-1)] = np.nan
        return controls

    def no_segment(space, points, collect=False):
        upper, res, path = straight(space, points, collect)
        return np.full_like(upper, np.inf), res, path

    monkeypatch.setattr(metric, "_optimize_controls", spoiled)
    monkeypatch.setattr(metric, "_straight_ladder", no_segment)
    for bound in (lambda: cc_upper_batch(heis, targets.reshape(6, 3)),
                  lambda: cc_upper_max(heis, targets)):
        with pytest.raises(OptimizerFailure, match="1 of 6 targets"):
            bound()
    with pytest.raises(OptimizerFailure, match="endpoint tolerance") as exc:
        estimate_distance(heis, np.zeros(3), targets[0, 0])
    assert isinstance(exc.value.best_path, ControlPath)
    with pytest.raises(InputError):
        cc_upper_max(heis, targets[0])


def test_straight_segment_too_large_to_multiply_gets_its_bound(
        heis, engel_space):
    # every row is closed at unit homogeneous norm and dilated back, so
    # rows whose products would overflow at their own scale get their
    # bound, and a row's bound does not depend on its batch-mates
    small = np.array([[0.3, -1.2, 0.7], [0, 0, 1e200], [1e10, 2e10, 3e20]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = certified_upper_cheap(heis, small)
        mixed = certified_upper_cheap(
            heis, np.concatenate([small, [[3e200, 4e200, 0]]]))
        engel = certified_upper_cheap(
            engel_space, [[3e200, 4e200, 0, 0], [3e100, 4e100, 1e200, 0]])
    assert np.array_equal(mixed[:3], alone)
    assert mixed[3] == pytest.approx(5e200, rel=1e-12)
    assert engel[0] == pytest.approx(5e200, rel=1e-12)
    assert 5e100 <= engel[1] < np.inf


def test_straight_segment_missing_at_its_scale_gets_its_bound(engel_space):
    # (3e60, 4e60, 1e100, 1e150) and (3, 4, 1e40, 1e90) are far below h^k
    # in layers 2 and 3: at their own scale the closure would miss by
    # 1e156 and 1.1e76, within a tolerance relative to the coordinates.
    # Closed at unit homogeneous norm the first, dilated back, meets its
    # lower bound 5e60, and the second leaves a residual near roundoff
    points = np.array([[0.3, -1.0, 0.2, 0.5], [3e60, 4e60, 1e100, 1e150],
                       [3, 4, 1e40, 1e90]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = certified_upper_cheap(engel_space, points[:1])
        upper, res, path = metric._straight_ladder(engel_space, points,
                                                   collect=True)
        end = path_endpoints_batch(engel_space.group, path)
    assert upper[0] == alone[0]
    assert upper[1] == pytest.approx(5e60, rel=1e-12)
    assert np.all(lower_bounds_batch(engel_space, points)[1:] <= upper[1:])
    assert np.all(res[1:] <= 1e-9)
    # the collected path has the bound's length and reaches the point
    lengths = np.sum(engel_space.metric.norm(path), axis=-1)
    assert lengths == pytest.approx(upper, rel=1e-12)
    scale = engel_space.homogeneous_norm(points)[:, None] ** [1, 1, 2, 3]
    assert np.allclose(end / scale, points / scale, atol=1e-9)


def test_closure_leaves_a_row_whose_residual_stops_shrinking(engel_space):
    # at its own scale the closure of (3e60, 4e60, 1e100, 1e150) misses by
    # roundoff near 1e156: the row leaves after the first pass that does
    # not shrink its residual, not after all 60 passes (841 moves).  The
    # straight segment's bound closes it at unit homogeneous norm only, so
    # its path has as many moves as the point's own at unit norm
    point = np.array([[3e60, 4e60, 1e100, 1e150]])
    start = engel_space.embed_horizontal(point[:, :2])
    _, _, res, segs = close_defect_batch(engel_space, start, point,
                                         collect=True)
    assert res[0] > 1e150 and len(segs) < 100
    upper, res, path = metric._straight_ladder(engel_space, point,
                                               collect=True)
    assert upper[0] == pytest.approx(5e60, rel=1e-12) and res[0] <= 1e-9
    unit = dilate(engel_space.algebra,
                  1.0 / engel_space.homogeneous_norm(point)[0], point)
    _, _, moves = metric._straight_ladder(engel_space, unit, collect=True)
    assert path.shape[1] == moves.shape[1]


@pytest.mark.parametrize("name", ["heisenberg", "engel", "free2-3"])
def test_straight_segment_is_dilation_covariant(name):
    # d(delta_s g) = s d(g): the straight segment's bound keeps it up to
    # roundoff from 2^-300 to 2^300, and small points, whose leftover
    # under EXACT_TOL is closed at unit norm, do not read below their
    # certified lower bound
    space = CCSpace(catalog.get(name))
    points = np.random.default_rng(0).standard_normal((200, space.algebra.dim))
    small = np.array([[1e-8, 0.0, 1e-13], [0.0, 0.0, 1e-30]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cheap = certified_upper_cheap(space, points)
        for k in (-300, -40, -3, 1, 7, 40, 300):
            s = 2.0 ** k
            moved = dilate(space.algebra, s, points)
            upper = certified_upper_cheap(space, moved)
            assert np.all(np.abs(upper / (s * cheap) - 1.0) <= 1e-14)
            lower = lower_bounds_batch(space, moved)
            assert np.all(lower <= upper * (1 + 1e-12))
        if name == "heisenberg":
            upper = certified_upper_cheap(space, small)
            assert np.all(heisenberg_distance(small) <= upper)
            assert upper[1] == pytest.approx(4e-15, rel=1e-12)


@pytest.mark.parametrize("name", ["heisenberg", "engel"])
def test_points_below_squaring_range_get_their_bounds(name):
    # squares of coordinates below 1e-154 underflow and (1 / scale)^3
    # overflows below 1e-103: both are rescaled, so a point at distance
    # 1e-200 (1e-120 on Engel) reads it and not 0, inf or a warning
    space = CCSpace(catalog.get(name))
    size = 1e-200 if name == "heisenberg" else 1e-120
    point = space.embed_horizontal(np.array([[size, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = [lower_bounds_batch(space, point),
                  certified_upper_cheap(space, point),
                  cc_upper_batch(space, point, budget=MEMBERSHIP_BUDGET)[0]]
        np.testing.assert_allclose(np.ravel(bounds), size, rtol=1e-12)
        if name == "engel":
            point = np.array([[1e-120, 2e-120, 3e-240, 1e-300]])
            assert space.homogeneous_norm(point)[0] >= 1e-100
            upper, residual = cc_upper_batch(space, point,
                                             budget=MEMBERSHIP_BUDGET)
            assert residual[0] <= 1e-9
            assert lower_bounds_batch(space, point)[0] <= upper[0]


@pytest.mark.parametrize("name", ["heisenberg", "engel"])
def test_infinite_coordinates_read_inf(name):
    # the layer-1 norm forms u @ gram, whose inf * 0 is nan: a row with an
    # infinite coordinate and no nan reads inf in that coordinate's layer
    # and in its lower bound, a row with a nan reads nan, and the finite
    # rows keep the bits they have alone
    space = CCSpace(catalog.get(name))
    a, n = space.algebra, space.algebra.dim
    finite = np.random.default_rng(5).standard_normal((3, n))
    mixed = np.arange(1.0, n + 1)
    mixed[0] = np.inf
    infinite = np.concatenate([np.diag(np.full(n, np.inf)),
                               np.diag(np.full(n, -np.inf)),
                               [np.full(n, np.inf), mixed]])
    points = np.concatenate([finite, infinite, [mixed]])
    points[-1, -1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = space.layer_norms(points)
        lower = lower_bounds_batch(space, points)
        alone = space.layer_norms(finite)
    layers = np.stack([np.isinf(infinite[:, a.layer_slice(i)]).any(axis=-1)
                       for i in range(1, a.num_layers + 1)], axis=-1)
    assert np.array_equal(np.isposinf(norms[3:-1]), layers)
    assert np.all(np.isfinite(norms[3:-1][~layers]))
    assert np.all(np.isposinf(lower[3:-1])) and np.isnan(lower[-1])
    assert np.array_equal(norms[:3], alone)


@pytest.mark.parametrize("gram", [np.eye(2), [[2.0, 0.3], [0.3, 1.0]]],
                         ids=["standard", "anisotropic"])
def test_metric_norm_reads_inf_on_an_infinite_coordinate(gram):
    # u @ gram reads nan at inf * 0: the public norm, as layer_norms, reads
    # inf on a row with an infinite coordinate and no nan and nan on a row
    # with a nan, and the finite rows keep the bits of sqrt(<u, u>)
    horizontal = HorizontalMetric(gram)
    finite = np.random.default_rng(6).standard_normal((4, 2))
    odd = np.array([[np.inf, 0.0], [0.0, -np.inf], [np.inf, np.inf],
                    [np.nan, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = horizontal.norm(np.concatenate([finite, odd]))
        one = horizontal.norm([np.inf, 0.0])
    assert np.array_equal(norms[:4], np.sqrt(horizontal.inner(finite, finite)))
    assert np.all(np.isposinf(norms[4:7])) and np.isnan(norms[7])
    assert one == np.inf


def test_unsquared_rescales_only_rows_whose_squares_lose_bits():
    # an exact-zero row needs no rescale; a nonzero row whose squares
    # underflow to 0 and one whose squares overflow do.  In one batch every
    # row reads the bits it reads alone, and the bits it has read since
    # the rescale came in
    rows = np.array([[0.0, 0.0], [1e-200, 0.0], [3e200, 4e200], [3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = metric._unsquared(metric._euclid, rows)
        alone = [metric._unsquared(metric._euclid, row[None])[0]
                 for row in rows]
    assert np.array_equal(batch, alone)
    assert np.array_equal(batch, [0.0, 1e-200, 4.9999999999999995e200, 5.0])


@pytest.mark.parametrize("name", ["heisenberg", "engel", "free2-3",
                                  "abelian3"])
def test_lower_bound_below_upper_before_the_clamp(name):
    # estimate_distance clamps its lower bound to its upper one, which may
    # hide roundoff only: on abelian3 the two agree to 4.4e-16
    space = CCSpace(catalog.get(name))
    targets = np.random.default_rng(0).standard_normal((200,
                                                        space.algebra.dim))
    upper, _ = cc_upper_batch(space, targets, budget=MEMBERSHIP_BUDGET,
                              seed=1)
    assert np.all(lower_bounds_batch(space, targets)
                  <= upper * (1 + 1e-15))

"""Acceptance gate: one test per release criterion.

Each test prints a single machine-readable pass/fail line (bypassing
pytest capture) and then asserts, so a plain ``pytest -v`` run shows the
verdict for every criterion even when all of them pass.  The dimension
sweep for criteria 1 and 2 is shared through a module-scoped fixture;
it is the slow part of the suite (a few minutes).
"""

import json

import numpy as np
import pytest

from carnot import catalog
from carnot.cli import main as cli_main
from carnot.derivate import cc_distance, derivate, spread_estimate
from carnot.divergence import (
    GeodesicPair,
    default_t_grid,
    divergence_profile,
    model_divergence,
    ModelLine,
    ModelSpace,
    obstruction_report,
)
from carnot.group import dilate
from carnot.measure import dimension_experiment, homogeneous_dimension
from carnot.metric import (
    CCSpace,
    OptimizerBudget,
    cc_upper_batch,
    lower_bounds_batch,
)
from oracles import check_homogeneity

SAMPLES_PER_RADIUS = 200_000
RADII = [0.5, 0.5 * 4.0**0.25, 1.0, 0.5 * 4.0**0.75, 2.0]

BUDGET = OptimizerBudget(segments=8, starts=2, penalty_init=1e4,
                         max_iter=150)


def report(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num}: {verdict} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep(heis, heis_ballbox):
    return dimension_experiment(heis, heis_ballbox, RADII,
                                SAMPLES_PER_RADIUS, seed=11)


def test_criterion_1_dimension(capsys, heis, sweep):
    q = homogeneous_dimension(heis.algebra)
    rows, fit = sweep
    ok = (q == 4
          and all(r.samples >= 200_000 for r in rows)
          and 3.8 <= fit.slope <= 4.2)
    report(capsys, 1, ok, f"Q={q}, slope={fit.slope:.4f}, "
                  f"samples/radius={rows[0].samples}")


def test_criterion_2_volume_ratio(capsys, sweep):
    rows, _ = sweep
    by_r = {round(r.radius, 6): r.volume for r in rows}
    ratio = by_r[1.0] / by_r[0.5]
    ok = 14.4 <= ratio <= 17.6
    report(capsys, 2, ok, f"vol(B(1.0))/vol(B(0.5)) = {ratio:.3f}")


def test_criterion_3_group_laws(capsys):
    worst = 0.0
    rng = np.random.default_rng(21)
    for name in ("heisenberg", "engel", "abelian3", "free2-3"):
        a = catalog.get(name)
        g = CCSpace(a).group
        n = a.dim
        x, y, z = (rng.standard_normal((10_000, n)) for _ in range(3))
        scale = 1.0 + np.linalg.norm(x, axis=1)

        def rel(u, v):
            return np.max(np.linalg.norm(u - v, axis=1) / scale)

        worst = max(
            worst,
            rel(g.bch(g.bch(x, y), z), g.bch(x, g.bch(y, z))),
            rel(g.bch(x, np.zeros(n)), x),
            rel(g.bch(np.zeros(n), x), x),
            rel(g.bch(x, g.inverse(x)), np.zeros_like(x)),
            rel(dilate(a, 1.7, g.bch(x, y)),
                g.bch(dilate(a, 1.7, x), dilate(a, 1.7, y))),
        )
    ok = worst <= 1e-8
    report(capsys, 3, ok, f"4 groups x 10^4 triples, max relative residual "
                  f"{worst:.2e}")


def test_criterion_4_homothety(capsys, heis, heis_ballbox):
    rng = np.random.default_rng(31)
    xs = rng.standard_normal((100, 3))
    ys = rng.standard_normal((100, 3))
    targets = heis.group.difference(xs, ys)
    upper, _ = cc_upper_batch(heis, targets, budget=BUDGET, seed=4)
    lower = lower_bounds_batch(heis, targets, heis_ballbox)
    failures = 0
    for t in (0.5, 2.0):
        xt = dilate(heis.algebra, t, xs)
        yt = dilate(heis.algebra, t, ys)
        tt = heis.group.difference(xt, yt)
        ut, _ = cc_upper_batch(heis, tt, budget=BUDGET, seed=4)
        lt = lower_bounds_batch(heis, tt, heis_ballbox)
        gap = np.maximum(lt, t * lower) - np.minimum(ut, t * upper)
        failures += int(np.sum(gap > 1e-9 * (1 + t * upper)))
    ok = failures == 0
    report(capsys, 4, ok, f"100 pairs, t in {{0.5, 2}}, "
                  f"interval intersection failures: {failures}")


def test_criterion_5_horizontal_targets(capsys, heis):
    rng = np.random.default_rng(41)
    ab = rng.standard_normal((10_000, 2))
    norms = np.linalg.norm(ab, axis=1)
    targets = np.column_stack([ab, np.zeros(len(ab))])
    upper, _ = cc_upper_batch(heis, targets, budget=BUDGET, seed=5)
    gap = upper - norms
    violations = int(np.sum(gap < -1e-12 * (1 + norms)))
    worst_gap = np.max(gap / norms)
    ok = violations == 0 and worst_gap <= 0.01
    report(capsys, 5, ok, f"10^4 horizontal pairs, max gap "
                  f"{100 * worst_gap:.4f}% of |v|, "
                  f"lower>upper violations: {violations}")


def test_criterion_6_derivate_homogeneity(capsys, heis, heis_ballbox):
    d = cc_distance(heis, ballbox=heis_ballbox)
    x = np.array([0.5, -0.3, 0.2])
    v = heis.algebra.from_label("X")
    base = derivate(heis, d, x, v, samples_per_t=8, seed=6,
                    ballbox=heis_ballbox)
    taus = (-2.0, -1.0, 0.5, 2.0)
    scaled = {
        tau: derivate(heis, d, x, tau * v, samples_per_t=8, seed=6,
                      ballbox=heis_ballbox)
        for tau in taus
    }
    rep = check_homogeneity(base, scaled)
    worst = max(rep["residuals"][tau] / abs(tau) for tau in taus)
    ok = worst <= 0.03
    report(capsys, 6, ok, f"max |rho(x,tau v) - |tau| rho(x,v)| = "
                  f"{100 * worst:.3f}% of |tau||v|")


def test_criterion_7_spread(capsys, heis):
    eps_grid = [0.4, 0.2, 0.1, 0.05]
    rep = spread_estimate(heis, heis.algebra.from_label("X"),
                          eps_grid, [1.0, 2.0, 4.0], samples=48, seed=7)
    spans = []
    for eps in eps_grid:
        sups = [s for e, _, _, s in rep.rows if e == eps]
        spans.append(max(sups) / min(sups))
    cs = [c for _, c in rep.c_of_epsilon()]
    constant_in_t = max(spans) < 1.10
    decreasing = all(a > b for a, b in zip(cs, cs[1:]))
    ok = constant_in_t and decreasing
    report(capsys, 7, ok, f"max sup/t span {max(spans):.4f} over 4x t-range, "
                  f"C(eps) = {', '.join(f'{c:.3f}' for c in cs)}")


def test_criterion_8_divergence(capsys, heis, heis_ballbox):
    pair = GeodesicPair(v=heis.algebra.from_label("X"),
                        w=heis.algebra.from_label("Y"),
                        t_grid=default_t_grid(128.0))
    fit = divergence_profile(heis, pair, ballbox=heis_ballbox, seed=8)
    exponent_ok = fit.complete and 0.4 <= fit.exponent <= 0.6
    sandwich_ok = (fit.alpha is not None and fit.beta is not None
                   and 0 < fit.alpha < fit.beta < 1 and fit.sandwich_holds())

    flat = divergence_profile(
        heis,
        GeodesicPair(v=heis.algebra.from_label("X"),
                     w=2.0 * heis.algebra.from_label("X"),
                     t_grid=default_t_grid(16.0)),
        ballbox=heis_ballbox, seed=8)
    commuting_ok = abs(flat.exponent) <= 0.05

    eu2 = ModelSpace("euclidean", dim=2)
    eu3 = ModelSpace("euclidean", dim=3)
    models = [
        model_divergence(eu2, ModelLine([0, 0], [1, 0]),
                         ModelLine([0, 1], [1, 0])),
        model_divergence(eu2, ModelLine([0, 0], [1, 0]),
                         ModelLine([0, 0], [0, 1])),
        model_divergence(eu3, ModelLine([0, 0, 0], [1, 0, 0]),
                         ModelLine([0, 1, 0], [0, 0, 1])),
    ]
    models_ok = [m.classification for m in models] == [
        "bounded", "linear", "linear"]

    verdict = obstruction_report(fit, models)["verdict"]
    verdict_ok = verdict == "obstruction witnessed"

    ok = exponent_ok and sandwich_ok and commuting_ok and models_ok \
        and verdict_ok
    report(capsys, 8, ok, f"exponent={fit.exponent:.3f}, "
                  f"alpha={fit.alpha}, beta={fit.beta}, "
                  f"commuting exponent={flat.exponent:.3f}, "
                  f"models={[m.classification for m in models]}, "
                  f"verdict={verdict!r}")


def test_criterion_9_determinism(capsys, tmp_path):
    args = ["divergence", "--group", "heisenberg", "--v", "X", "--w", "Y",
            "--tmax", "8", "--seed", "9", "--out", str(tmp_path)]
    assert cli_main(list(args)) == 0
    first = (tmp_path / "divergence.csv").read_bytes()
    assert cli_main(list(args)) == 0
    second = (tmp_path / "divergence.csv").read_bytes()
    ok = first == second
    rows = json.loads(first.decode().splitlines()[-1][2:])["fit"]["rows"]
    report(capsys, 9, ok, f"fixed-seed divergence rerun byte-identical: {ok}, "
                  f"{len(rows)} rows")

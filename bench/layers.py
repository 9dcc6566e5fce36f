"""Microbenchmarks of the path solver's layers, printed as one JSON document.

    python bench/layers.py --src src [--src OTHER/src] [--repeats 7] [--tiny]

Each ``--src`` is the ``src`` directory of a carnot tree.  Every tree's
package is imported under a name of its own, so a change and its parent
are timed in one process, their repeats alternating (A B B A A B ...).
Every case has fixed seeds and reports its answer next to its times: the
median milliseconds per call and every repeat's.  Answers are rounded to
twelve significant digits, so roundoff in the last bits does not show.
BLAS is pinned to one thread before numpy is imported.  ``--tiny`` runs
every case once on a few rows, to check that the script runs.

Cases, at the ``engel-distance`` budget (12 segments, 2 starts,
``max_iter`` 30) unless named otherwise:

- ``poly/<group>/B<B>``: the cached endpoint polynomial of 12 steps of
  2 controls, at B = 2, 200 and 768 rows of 0.5 x standard-normal controls;
- ``project/<group>/B<B>``: one 4-step Gauss-Newton projection at B = 2
  and 200, from standard-normal controls onto the endpoints of others;
- ``cheap/<group>/B<B>``: ``certified_upper_cheap`` on B = 20, 256 and
  1000 points, 0.5 x standard-normal (generator seed 2);
- ``close/<group>/B<B>``: ``close_defect_batch`` on the straight segments
  of the same points dilated to unit homogeneous norm, the closure that
  ``certified_upper_cheap`` and the straight candidate of
  ``cc_upper_batch`` run; the answer is the summed added length and the
  largest residual;
- ``engel-call``: ``cc_upper_batch`` on stored Engel target 0, seed 0;
  its ``counts`` are the rows of one call, the straight candidates'
  among them;
- ``engel-400``: ``cc_upper_batch`` on 200 standard-normal Engel targets
  (generator seed 7), solver seed 5, 400 rows with the two starts;
- ``heis-membership-200``: ``cc_upper_batch`` on 200 standard-normal
  Heisenberg targets (generator seed 8) at ``MEMBERSHIP_BUDGET``, seed 9;
- ``engel-volume-10k``: certified Engel ``ball_volume(r=1, 10000
  samples, seed 0)``;
- ``cheap/engel-far``: ``certified_upper_cheap`` on the Engel point
  (3e60, 4e60, 1e100, 1e150);
- ``warm/<case>/B<B>``: the solver's warm stage alone on B rows, from the
  starts ``_draw_starts`` gives B / starts standard-normal targets
  (generator seed 4, solver seed 5); the answer is the summed penalty at
  its result.  ``engel`` at B = 2 and 200 at the ``engel-distance``
  budget, and two cases on the fold side of ``POLY_CONTROLS``:
  ``filiform5`` (the step-4 model filiform group, [X1, Xi] = X(i+1)) at
  B = 96 and ``MEMBERSHIP_BUDGET``, and ``engel-m24`` at B = 2 with 24
  segments (48 controls);
- ``call/<case>/B<B>``: ``cc_upper_batch`` on the same targets, seed 5,
  for the two fold-side cases, with counts as ``engel-call``'s;
- ``lower/<group>/B<B>``: ``lower_bounds_batch`` on B = 256 and 24320
  points, 0.5 x standard-normal (generator seed 3);
- ``derivate/heisenberg/<box>``: ``derivate`` of ``abelianized_distance``
  at 0 along X on the default t-grid, 64 samples per level, seed 0, in
  the box of ``calibrate_ballbox(100 samples, seed 1000)`` or in the
  certified box; the answer adds the sum of the sampled points.  Its
  ``counts`` are the sampler's calls of ``lower_bounds_batch`` and
  ``certified_upper_cheap`` in one call;
- ``spread/heisenberg``: ``cc_upper_max`` at ``MEMBERSHIP_BUDGET``, seed 1,
  on the 12 x 64 cells of the CLI's default spread along X (epsilon grid
  0.4, 0.2, 0.1, 0.05, t grid 1:4:3, ends drawn at seed 0); the answer is
  the cells' maxima and the number of floored rows;
- ``derivate/heisenberg/cc/<box>``: ``derivate`` of ``cc_distance`` at 0
  along X on the default t-grid, 64 samples per level, seed 0, in the two
  boxes above; the answer is the two derivates and every level's extreme
  quotients;
- ``volume/heisenberg/<box>``: ``ball_volume(r=1)`` at seed 0, with 1000
  samples in the box of ``calibrate_ballbox(100 samples, seed 0)``, as the
  ``heis-volume`` workload calls it, and with 40000 samples in the
  certified box; the answer is the volume, its standard error and the
  band fraction;
- ``calibrate/<group>``: ``calibrate_ballbox(100 samples, seed 0)``, the
  size each ``heis-cli`` command that calibrates asks for, on Heisenberg
  and Engel; the answer is A and the maximum ratio.

The ``counts`` of ``engel-call``, ``call/*`` and the last seven cases
give the rows one call sends through the path solver
(``_optimize_controls``) and through the straight-segment ladder
(``_straight_ladder``, which forms ``certified_upper_cheap`` and the
straight candidate of every solver row whose floor does not rule it
out).
"""

import os

# BLAS reads these when it is loaded, so they are set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ENGEL_REFERENCE = ROOT / "perfbench" / "engel_reference.json"


def load_tree(src, name):
    """The carnot package under ``src``, imported as ``name``."""
    package = Path(src).resolve() / "carnot"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {part: importlib.import_module(f"{name}.{part}")
            for part in ("catalog", "cli", "derivate", "group", "measure",
                         "metric")}


def rounded(values):
    return [float(f"{v:.12g}") for v in np.ravel(values)]


def counted(module, counters, fn):
    """fn()'s counts: ``counters`` maps the name of a function that
    ``module`` looks up to the count one call adds, from its arguments."""
    counts = dict.fromkeys(counters, 0)
    originals = {name: getattr(module, name) for name in counters}

    def counting(name):
        def call(*args, **kwargs):
            counts[name] += counters[name](*args)
            return originals[name](*args, **kwargs)
        return call

    for name in counters:
        setattr(module, name, counting(name))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(module, name, original)
    return counts


def one(*args):
    return 1


# the rows a call sends through the path solver and through the ladder
SOLVER_LADDER_ROWS = {
    "_optimize_controls": lambda group, gram, targets, *rest: len(targets),
    "_straight_ladder": lambda space, points, *rest: len(points),
}


def lower_bound(metric, space, points):
    """``lower_bounds_batch``'s bound, from a tree returning it alone or
    with the per-row labels."""
    lower = metric.lower_bounds_batch(space, points)
    return lower[0] if isinstance(lower, tuple) else lower


def filiform(catalog, n):
    """The model filiform algebra of dimension n, [X1, Xi] = X(i+1)."""
    c = np.zeros((n, n, n))
    for i in range(1, n - 1):
        c[0, i, i + 1], c[i, 0, i + 1] = 1.0, -1.0
    return catalog.GradedAlgebra(f"filiform{n}", [2] + [1] * (n - 2), c)


def warm_stage(metric, space, budget, targets):
    """A function running the warm stage once on the starts of
    ``targets``; it returns the summed penalty at the stage's result."""
    starts = metric._draw_starts(space, targets, budget, 5)
    _, inits = starts.chunks[0]
    targets = np.tile(starts.unit, (budget.starts, 1))
    controls = inits.reshape(len(targets), budget.segments, -1)
    group, gram, mu = space.group, space.metric.gram, budget.penalty_init
    cap = min(budget.max_iter, metric.WARM_ITER)

    def run():
        u = metric._warm(group, gram, targets, controls, mu, cap)
        misfit = metric.path_endpoints_batch(group, u) - targets
        energy = np.einsum("bmi,ij,bmj->", u, gram, u)
        return rounded(energy + mu * np.sum(misfit * misfit))

    return run


def cases(tree, tiny):
    """(name, calls per repeat, function returning the answer, counts)
    per case; ``counts`` is a dict, empty where nothing is counted."""
    catalog, metric, measure = tree["catalog"], tree["metric"], tree["measure"]
    group = {name: tree["group"].CarnotGroup(catalog.get(name))
             for name in ("heisenberg", "engel")}
    spaces = {name: metric.CCSpace(g) for name, g in group.items()}
    heis, engel = spaces["heisenberg"], spaces["engel"]
    budget = metric.OptimizerBudget(segments=12, starts=2, max_iter=30)
    m, d = 12, 2
    out = []
    for name, g in group.items():
        poly = metric._endpoint_polynomial(g, m, d)
        for B in (2,) if tiny else (2, 200, 768):
            u = 0.5 * np.random.default_rng(0).standard_normal((B, m * d))
            calls = 1 if tiny else max(1, 400 // B)
            out.append((f"poly/{name}/B{B}", calls,
                        lambda poly=poly, u=u: rounded(
                            [np.sum(a) for a in poly(u)])))
        for B in (2,) if tiny else (2, 200):
            rng = np.random.default_rng(1)
            start = rng.standard_normal((B, m, d))
            targets = metric.path_endpoints_batch(
                g, rng.standard_normal((B, m, d)))
            tol = metric.PROJECT_TOL * (1.0 + np.linalg.norm(targets, axis=-1))
            calls = 1 if tiny else max(1, 100 // B)

            def project(g=g, start=start, targets=targets, tol=tol):
                _, c, _, ok = metric._project(g, start, targets, tol, 4)
                return rounded([np.sum(ok), np.sum(np.abs(c))])

            out.append((f"project/{name}/B{B}", calls, project))
        for B in (20,) if tiny else (20, 256, 1000):
            points = 0.5 * np.random.default_rng(2).standard_normal(
                (B, g.dim))
            calls = 1 if tiny else max(1, 2000 // B)
            out.append((f"cheap/{name}/B{B}", calls,
                        lambda space=spaces[name], points=points: rounded(
                            np.sum(metric.certified_upper_cheap(space,
                                                                points)))))
            space = spaces[name]
            scales = space.homogeneous_norm(points)
            unit = points * (1.0 / scales[:, None]) ** g.algebra.layer_of

            def close(space=space, unit=unit):
                ends = space.embed_horizontal(unit[:, : space.d1])
                extra, _, residual, _ = metric.close_defect_batch(space, ends,
                                                                  unit)
                return rounded([np.sum(extra), np.max(residual)])

            out.append((f"close/{name}/B{B}", calls, close))
    stored = np.array(json.loads(ENGEL_REFERENCE.read_text())["targets"])
    rows = 2 if tiny else 200
    engel_targets = np.random.default_rng(7).standard_normal((rows, 4))
    heis_targets = np.random.default_rng(8).standard_normal((rows, 3))

    def engel_call():
        return rounded(metric.cc_upper_batch(engel, stored[:1], budget=budget,
                                             seed=0)[0])

    out += [
        ("engel-call", 1 if tiny else 10, engel_call,
         counted(metric, SOLVER_LADDER_ROWS, engel_call)),
        (f"engel-{2 * rows}", 1, lambda: rounded(np.sum(
            metric.cc_upper_batch(engel, engel_targets, budget=budget,
                                  seed=5)[0]))),
        (f"heis-membership-{rows}", 1, lambda: rounded(np.sum(
            metric.cc_upper_batch(heis, heis_targets,
                                  budget=measure.MEMBERSHIP_BUDGET,
                                  seed=9)[0]))),
        (f"engel-volume-{'200' if tiny else '10k'}", 1, lambda: rounded(
            measure.ball_volume(engel, None, 1.0, 200 if tiny else 10000,
                                seed=0).volume)),
        ("cheap/engel-far", 1 if tiny else 100, lambda: rounded(
            metric.certified_upper_cheap(engel,
                                         [[3e60, 4e60, 1e100, 1e150]]))),
    ]
    chain = metric.CCSpace(tree["group"].CarnotGroup(filiform(catalog, 5)))
    fine = metric.OptimizerBudget(segments=24, starts=2, max_iter=30)
    for name, space, given, B, calls, fold in (
            ("engel", engel, budget, 2, 20, False),
            ("engel", engel, budget, 200, 1, False),
            ("filiform5", chain, measure.MEMBERSHIP_BUDGET, 96, 1, True),
            ("engel-m24", engel, fine, 2, 5, True)):
        if tiny:
            if B > 2 and name == "engel":
                continue
            B, calls = 2, 1
        targets = np.random.default_rng(4).standard_normal(
            (B // given.starts, space.algebra.dim))
        out.append((f"warm/{name}/B{B}", calls,
                    warm_stage(metric, space, given, targets)))
        if fold:
            def call(space=space, given=given, targets=targets):
                return rounded(np.sum(metric.cc_upper_batch(
                    space, targets, budget=given, seed=5)[0]))

            out.append((f"call/{name}/B{B}", calls, call,
                        counted(metric, SOLVER_LADDER_ROWS, call)))
    for name, space in spaces.items():
        for B in (20,) if tiny else (256, 24320):
            points = 0.5 * np.random.default_rng(3).standard_normal(
                (B, space.algebra.dim))
            calls = 1 if tiny else max(1, 100000 // B)
            out.append((f"lower/{name}/B{B}", calls,
                        lambda space=space, points=points: rounded(
                            np.sum(lower_bound(metric, space, points)))))
    lab = tree["derivate"]
    ballbox = metric.calibrate_ballbox(heis, 100, seed=1000)
    for box, given in (("calibrated", ballbox), ("certified", None)):
        def estimate(given=given):
            # every quotient of this distance is |v|, so the answer sums
            # the sampled points too
            d = lab.abelianized_distance(heis)
            seen, evaluator = [], d.evaluator

            def recording(xs, ys):
                seen.append(np.sum(xs))
                return evaluator(xs, ys)

            d.evaluator = recording
            est = lab.derivate(heis, d, np.zeros(3), np.array([1.0, 0.0, 0.0]),
                               samples_per_t=8 if tiny else 64, seed=0,
                               ballbox=given)
            return rounded([est.rho_lower, est.rho_upper, *seen])

        out.append((f"derivate/heisenberg/{box}", 1 if tiny else 3, estimate,
                    counted(lab, {"lower_bounds_batch": one,
                                  "certified_upper_cheap": one}, estimate)))
    x_dir = np.array([1.0, 0.0, 0.0])
    samples = 8 if tiny else 64
    rng = np.random.default_rng(0)
    cells = [(eps, t) for eps in tree["cli"].parse_grid("0.4,0.2,0.1,0.05")
             for t in tree["cli"].parse_grid("1:4:3")]
    ends = np.concatenate([
        measure.sample_end(heis, measure.BoxSpec(np.zeros(3), t * x_dir,
                                                 t * eps), samples, rng)
        for eps, t in cells])
    legs = np.repeat([t for _, t in cells], samples)[:, None] * x_dir
    targets = heis.group.conjugate(legs, ends).reshape(len(cells), samples, 3)

    def spread():
        sups, floored = metric.cc_upper_max(
            heis, targets, budget=measure.MEMBERSHIP_BUDGET, seed=1)
        return rounded([*sups, np.sum(floored)])

    out.append(("spread/heisenberg", 1 if tiny else 5, spread,
                counted(metric, SOLVER_LADDER_ROWS, spread)))
    for box, given in (("calibrated", ballbox), ("certified", None)):
        def cc_estimate(given=given):
            est = lab.derivate(heis, lab.cc_distance(heis, given),
                               np.zeros(3), x_dir, samples_per_t=samples,
                               seed=0, ballbox=given)
            return rounded([est.rho_lower, est.rho_upper,
                            *[q for r in est.rows for q in r[1:3]]])

        out.append((f"derivate/heisenberg/cc/{box}", 1 if tiny else 3,
                    cc_estimate, counted(metric, SOLVER_LADDER_ROWS,
                                         cc_estimate)))
    volume_box = metric.calibrate_ballbox(heis, 100, seed=0)
    for box, given, count in (("calibrated", volume_box, 1000),
                              ("certified", None, 40000)):
        def volume(given=given, count=200 if tiny else count):
            est = measure.ball_volume(heis, given, 1.0, count, seed=0)
            return rounded([est.volume, est.stderr, est.band_fraction])

        out.append((f"volume/heisenberg/{box}", 1 if tiny else 3, volume,
                    counted(metric, SOLVER_LADDER_ROWS, volume)))
    for name, space in spaces.items():
        def calibrate(space=space):
            box = metric.calibrate_ballbox(space, 100, seed=0)
            return rounded([box.A, box.max_ratio])

        out.append((f"calibrate/{name}", 1 if tiny else 5, calibrate,
                    counted(metric, SOLVER_LADDER_ROWS, calibrate)))
    return [case if len(case) == 4 else case + ({},) for case in out]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a tree's src directory; repeat to compare trees")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--tiny", action="store_true",
                        help="every case once on a few rows")
    args = parser.parse_args(argv)
    repeats = 1 if args.tiny else args.repeats
    if repeats < 1:
        parser.error("--repeats must be positive")
    trees = [cases(load_tree(src, f"carnot_tree{i}"), args.tiny)
             for i, src in enumerate(args.src)]
    doc = {"trees": args.src, "repeats": repeats,
           "host": {"python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "cpus": len(os.sched_getaffinity(0)),
                    "loadavg_at_start": os.getloadavg()},
           "cases": {}}
    for k, (name, calls, _, _) in enumerate(trees[0]):
        fns = [tree[k][2] for tree in trees]
        answers = [fn() for fn in fns]  # a warm-up call, whose answer is kept
        times = [[] for _ in fns]
        for r in range(repeats):
            order = range(len(fns)) if r % 2 == 0 else range(len(fns))[::-1]
            for i in order:
                start = time.perf_counter()
                for _ in range(calls):
                    fns[i]()
                times[i].append((time.perf_counter() - start) / calls * 1e3)
        doc["cases"][name] = {
            "calls_per_repeat": calls,
            "trees": [{"ms": round(statistics.median(t), 4),
                       "repeats_ms": [round(x, 4) for x in t], "answer": a,
                       **({"counts": tree[k][3]} if tree[k][3] else {})}
                      for t, a, tree in zip(times, answers, trees)]}
    json.dump(doc, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()

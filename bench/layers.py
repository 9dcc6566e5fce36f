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
- ``engel-call``: ``cc_upper_batch`` on stored Engel target 0, seed 0;
- ``engel-400``: ``cc_upper_batch`` on 200 standard-normal Engel targets
  (generator seed 7), solver seed 5, 400 rows with the two starts;
- ``heis-membership-200``: ``cc_upper_batch`` on 200 standard-normal
  Heisenberg targets (generator seed 8) at ``MEMBERSHIP_BUDGET``, seed 9;
- ``engel-volume-10k``: certified Engel ``ball_volume(r=1, 10000
  samples, seed 0)``.
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
            for part in ("catalog", "group", "measure", "metric")}


def rounded(values):
    return [float(f"{v:.12g}") for v in np.ravel(values)]


def cases(tree, tiny):
    """(name, calls per repeat, function returning the answer) per case."""
    catalog, metric, measure = tree["catalog"], tree["metric"], tree["measure"]
    group = {name: tree["group"].CarnotGroup(catalog.get(name))
             for name in ("heisenberg", "engel")}
    heis = metric.CCSpace(group["heisenberg"])
    engel = metric.CCSpace(group["engel"])
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
    stored = np.array(json.loads(ENGEL_REFERENCE.read_text())["targets"])
    rows = 2 if tiny else 200
    engel_targets = np.random.default_rng(7).standard_normal((rows, 4))
    heis_targets = np.random.default_rng(8).standard_normal((rows, 3))
    out += [
        ("engel-call", 1 if tiny else 10, lambda: rounded(
            metric.cc_upper_batch(engel, stored[:1], budget=budget,
                                  seed=0)[0])),
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
    ]
    return out


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
    for k, (name, calls, _) in enumerate(trees[0]):
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
                       "repeats_ms": [round(x, 4) for x in t], "answer": a}
                      for t, a in zip(times, answers)]}
    json.dump(doc, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()

"""Regenerate the stored Engel reference set, ``engel_reference.json``.

The Engel group has no closed-form distance, so the benchmark scores the
upper bounds of the ``engel-distance`` workload against best-known upper
bounds from one heavy-budget optimizer run made here.  Targets are unit
homogeneous-norm points (the optimizer normalizes to that scale anyway).

    python3 perfbench/make_reference.py            # writes the JSON file

It takes several minutes on one core; the benchmark only reads the file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from carnot import catalog  # noqa: E402
from carnot.metric import CCSpace, OptimizerBudget, cc_upper_batch  # noqa: E402

TARGETS = 16
GENERATOR_SEED = 20261017
HEAVY_BUDGET = {"segments": 32, "starts": 8, "max_iter": 400}
OUT = HERE / "engel_reference.json"


def unit_targets(space, count, seed):
    raw = np.random.default_rng(seed).standard_normal((count, space.algebra.dim))
    scale = space.homogeneous_norm(raw)
    return raw * (1.0 / scale)[:, None] ** space.algebra.layer_of.astype(float)


def main():
    space = CCSpace(catalog.engel())
    targets = unit_targets(space, TARGETS, GENERATOR_SEED)
    t0 = time.perf_counter()
    upper, residual = cc_upper_batch(space, targets,
                                     budget=OptimizerBudget(**HEAVY_BUDGET),
                                     seed=GENERATOR_SEED)
    doc = {
        "group": "engel",
        "generator_seed": GENERATOR_SEED,
        "budget": HEAVY_BUDGET,
        "seconds": round(time.perf_counter() - t0, 1),
        "targets": targets.tolist(),
        "best_upper": upper.tolist(),
        "residual": residual.tolist(),
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT} ({doc['seconds']} s)")


if __name__ == "__main__":
    main()

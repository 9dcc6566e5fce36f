"""Deterministic command-line front end for the toolkit.

Every subcommand resolves its configuration (group, grids, budgets,
seed), runs the corresponding lab, and writes CSV/JSON reports embedding
the resolved configuration, so a report is enough to reproduce itself.
Exit codes: 0 success, 1 input error, 2 optimizer or calibration
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

import importlib

from . import catalog

# attribute access would find same-named functions re-exported by the
# package root, so resolve the submodules explicitly
derivate_lab = importlib.import_module(__package__ + ".derivate")
divergence_lab = importlib.import_module(__package__ + ".divergence")
measure_lab = importlib.import_module(__package__ + ".measure")
from .algebra import load_algebra, verify_graded
from .errors import (
    CalibrationError,
    CarnotError,
    InputError,
    LipschitzViolation,
    OptimizerFailure,
)
from .metric import (
    CCSpace,
    OptimizerBudget,
    calibrate_ballbox,
    estimate_distance,
)

def load_group(source) -> CCSpace:
    """Resolve a built-in name or a JSON definition file into a CCSpace."""
    if os.path.sep in str(source) or str(source).endswith(".json"):
        if not os.path.exists(source):
            raise InputError(f"group definition file not found: {source}")
        return CCSpace(load_algebra(source))
    return CCSpace(catalog.get(source))


def parse_grid(text):
    """Parse "lo:hi:n" (geometric spacing) or a comma list of values."""
    text = str(text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(f"grid must be lo:hi:n, got {text!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InputError(f"malformed grid {text!r}") from exc
        if not (0 < lo < np.inf and 0 < hi < np.inf and n >= 1):
            raise InputError(
                f"grid endpoints must be positive and finite: {text!r}")
        if n == 1:
            return np.array([lo])
        return lo * (hi / lo) ** (np.arange(n) / (n - 1))
    try:
        vals = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InputError(f"malformed grid {text!r}") from exc
    if not np.all(np.isfinite(vals)):
        raise InputError(f"grid values must be finite: {text!r}")
    return vals


def parse_direction(space, text):
    """A basis label from the group definition, or comma coefficients."""
    text = str(text).strip()
    a = space.algebra
    if text in a.labels:
        return a.from_label(text)
    try:
        vals = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InputError(
            f"direction {text!r} is neither a basis label "
            f"({', '.join(a.labels)}) nor a comma list"
        ) from exc
    if not np.all(np.isfinite(vals)):
        raise InputError(f"direction {text!r} has a non-finite coefficient")
    if len(vals) == a.dim:
        return vals
    if len(vals) == space.d1:
        return space.embed_horizontal(vals)
    raise InputError(
        f"direction needs {space.d1} (layer-1) or {a.dim} coefficients, "
        f"got {len(vals)}"
    )


def _strict(doc):
    """``doc`` with every non-finite float as None, which JSON writes null."""
    if isinstance(doc, dict):
        return {k: _strict(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(v) for v in doc]
    if isinstance(doc, float) and not np.isfinite(doc):
        return None
    return doc


def _json_dump(doc, path):
    with open(path, "w") as fh:
        json.dump(_strict(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _csv_dump(path, header, rows, footer_json=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    if footer_json is not None:
        with open(path, "a") as fh:
            fh.write("# " + json.dumps(_strict(footer_json), sort_keys=True,
                                       allow_nan=False) + "\n")


def _budget_from_args(args):
    kw = {name: getattr(args, name) for name in ("segments", "starts")
          if getattr(args, name, None) is not None}
    return OptimizerBudget(**kw) if kw else None


def _ballbox(space, args):
    """The calibrated constant if ``--calibration-samples`` asks for one."""
    if args.calibration_samples is None:
        return None
    return calibrate_ballbox(space, samples=args.calibration_samples,
                             seed=args.seed + 1000)


def _bounds_doc(space, bb):
    """Where the lower bounds of a report come from, per layer."""
    return {"ballbox": None if bb is None else bb.as_dict(),
            "layer_bounds": space.layer_bounds().as_dict()}


def _resolved(args, **extra):
    doc = {k: v for k, v in vars(args).items()
           if k not in ("func",) and v is not None}
    for k, v in list(doc.items()):
        if isinstance(v, np.ndarray):
            doc[k] = v.tolist()
    doc.update(extra)
    return doc


# -- subcommands -----------------------------------------------------------


def cmd_check(args):
    space = load_group(args.group)
    report = verify_graded(space.algebra)
    doc = {
        "config": _resolved(args),
        "group": space.algebra.name,
        "dim": space.algebra.dim,
        "layer_dims": list(space.algebra.layer_dims),
        "homogeneous_dimension": measure_lab.homogeneous_dimension(
            space.algebra
        ),
        "report": report.as_dict(),
    }
    path = os.path.join(args.out, f"{space.algebra.name}-check.json")
    _json_dump(doc, path)
    print(f"{space.algebra.name}: "
          f"{'valid' if report.valid else 'INVALID'} -> {path}")
    return 0 if report.valid else 1


def cmd_bch(args):
    space = load_group(args.group)
    x = parse_direction(space, args.x)
    y = parse_direction(space, args.y)
    z = space.group.bch(x, y)
    doc = {
        "config": _resolved(args),
        "x": x.tolist(),
        "y": y.tolist(),
        "bch": z.tolist(),
        "labels": list(space.algebra.labels),
    }
    path = os.path.join(args.out, "bch.json")
    _json_dump(doc, path)
    print("bch:", " ".join(f"{v:.12g}" for v in z))
    return 0


def cmd_distance(args):
    space = load_group(args.group)
    x = parse_direction(space, args.x)
    y = parse_direction(space, args.y)
    bb = _ballbox(space, args)
    budget = _budget_from_args(args)
    est = estimate_distance(space, x, y, budget=budget, ballbox=bb,
                            seed=args.seed)
    doc = {
        "config": _resolved(args),
        **_bounds_doc(space, bb),
        "estimate": est.as_dict(pair=[x.tolist(), y.tolist()]),
    }
    path = os.path.join(args.out, "distance.json")
    _json_dump(doc, path)
    print(f"d_cc in [{est.lower:.9g}, {est.upper:.9g}] -> {path}")
    return 0


def _decided(est):
    """How a ball volume's samples were decided, by bound."""
    return {"lower": est.decided_lower, "ladder": est.decided_ladder,
            "optimizer": est.decided_optimizer}


def cmd_ball_volume(args):
    space = load_group(args.group)
    bb = _ballbox(space, args)
    est = measure_lab.ball_volume(space, bb, args.radius, args.samples,
                                  seed=args.seed)
    path = os.path.join(args.out, "ball-volume.csv")
    _csv_dump(
        path,
        ["radius", "volume", "stderr", "samples", "seed"],
        [est.as_row()],
        footer_json={"config": _resolved(args), **_bounds_doc(space, bb),
                     "band_fraction": est.band_fraction,
                     "decided": _decided(est)},
    )
    print(f"vol(B({est.radius})) = {est.volume:.6g} "
          f"+- {est.stderr:.2g} -> {path}")
    return 0


def cmd_dimension(args):
    space = load_group(args.group)
    bb = _ballbox(space, args)
    radii = parse_grid(args.radii)
    rows, fit = measure_lab.dimension_experiment(
        space, bb, radii, args.samples, seed=args.seed
    )
    path = os.path.join(args.out, "dimension.csv")
    _csv_dump(
        path,
        ["radius", "volume", "stderr", "samples", "seed"],
        [r.as_row() for r in rows],
        footer_json={"config": _resolved(args, radii=list(map(float, radii))),
                     **_bounds_doc(space, bb), "fit": fit.as_dict(),
                     "decided": [_decided(r) for r in rows]},
    )
    print(f"dimension slope = {fit.slope:.4f} "
          f"(Q = {measure_lab.homogeneous_dimension(space.algebra)}) -> {path}")
    return 0


_DISTANCES = ("cc", "riemannian", "abelianized", "snowflake")


def _pick_distance(space, name, bb, seed):
    if name == "cc":
        return derivate_lab.cc_distance(space, ballbox=bb, seed=seed)
    if name == "riemannian":
        return derivate_lab.riemannian_distance(space)
    if name == "abelianized":
        return derivate_lab.abelianized_distance(space)
    if name == "snowflake":
        return derivate_lab.snowflake_distance(space, ballbox=bb, seed=seed)
    raise InputError(f"unknown distance {name!r}; options: {_DISTANCES}")


def cmd_derivate(args):
    space = load_group(args.group)
    bb = _ballbox(space, args)
    d = _pick_distance(space, args.distance, bb, args.seed)
    x = parse_direction(space, args.x) if args.x else np.zeros(space.algebra.dim)
    v = parse_direction(space, args.v)
    t_grid = derivate_lab.default_t_grid(levels=args.levels, t_max=args.tmax)
    est = derivate_lab.derivate(space, d, x, v, t_grid=t_grid,
                                samples_per_t=args.samples, seed=args.seed,
                                ballbox=bb)
    path = os.path.join(args.out, "derivate.csv")
    _csv_dump(
        path,
        ["t", "inf_quotient", "sup_quotient", "samples"],
        est.rows,
        footer_json={"config": _resolved(args), **_bounds_doc(space, bb),
                     "summary": est.as_dict()},
    )
    print(f"rho in [{est.rho_lower:.6g}, {est.rho_upper:.6g}] -> {path}")
    return 0


def cmd_spread(args):
    space = load_group(args.group)
    v = parse_direction(space, args.v)
    eps_grid = parse_grid(args.eps_grid)
    t_grid = parse_grid(args.t_grid)
    rep = derivate_lab.spread_estimate(space, v, eps_grid, t_grid,
                                       samples=args.samples, seed=args.seed)
    path = os.path.join(args.out, "spread.csv")
    _csv_dump(
        path,
        ["epsilon", "t", "sup_distance", "sup_over_t"],
        rep.rows,
        footer_json={"config": _resolved(args),
                     "c_of_epsilon": rep.c_of_epsilon(),
                     "rows_to_end": rep.rows_to_end,
                     "rows_floored": rep.rows_floored},
    )
    print("C(eps):", ", ".join(f"{e:g}:{c:.4g}"
                               for e, c in rep.c_of_epsilon()),
          "->", path)
    return 0


def _carnot_fit(args, space, bb):
    v = parse_direction(space, args.v)
    w = parse_direction(space, args.w)
    t_grid = divergence_lab.default_t_grid(t_max=args.tmax)
    pair = divergence_lab.GeodesicPair(v=v, w=w, t_grid=t_grid)
    return divergence_lab.divergence_profile(space, pair, ballbox=bb,
                                             seed=args.seed)


def cmd_divergence(args):
    space = load_group(args.group)
    bb = _ballbox(space, args)
    fit = _carnot_fit(args, space, bb)
    path = os.path.join(args.out, "divergence.csv")
    _csv_dump(
        path,
        ["t", "f_lower", "f_upper"],
        fit.rows,
        footer_json={"config": _resolved(args), **_bounds_doc(space, bb),
                     "fit": fit.as_dict()},
    )
    print(f"divergence exponent = {fit.exponent:.4f} "
          f"({fit.classification}) -> {path}")
    return 0


def standard_model_battery():
    """The fixed model-space comparison pairs used by ``obstruction``."""
    dg = divergence_lab
    eu2 = dg.ModelSpace("euclidean", dim=2)
    eu3 = dg.ModelSpace("euclidean", dim=3)
    hyp = dg.ModelSpace("hyperbolic", kappa=-1.0)
    sph = dg.ModelSpace("sphere", kappa=1.0)
    runs = [
        ("euclidean-parallel", eu2,
         dg.ModelLine([0, 0], [1, 0]), dg.ModelLine([0, 1], [1, 0])),
        ("euclidean-angle", eu2,
         dg.ModelLine([0, 0], [1, 0]),
         dg.ModelLine([0, 0], [0.5, np.sqrt(3) / 2])),
        ("euclidean-skew", eu3,
         dg.ModelLine([0, 0, 0], [1, 0, 0]),
         dg.ModelLine([0, 1, 0], [0, 0, 1])),
        ("hyperbolic-rays", hyp,
         dg.ModelLine(hyp.origin(), [0, 1, 0]),
         dg.ModelLine(hyp.origin(), [0, 0, 1])),
        ("sphere-great-circles", sph,
         dg.ModelLine([1, 0, 0], [0, 1, 0]),
         dg.ModelLine([1, 0, 0], [0, 0, 1])),
    ]
    fits = []
    for label, model, l1, l2 in runs:
        fit = dg.model_divergence(model, l1, l2)
        fit.label = label
        fits.append(fit)
    return fits


def cmd_obstruction(args):
    space = load_group(args.group)
    bb = _ballbox(space, args)
    fit = _carnot_fit(args, space, bb)
    model_fits = standard_model_battery()
    report = divergence_lab.obstruction_report(fit, model_fits,
                                               margin=args.margin)
    doc = {
        "config": _resolved(args),
        **_bounds_doc(space, bb),
        "carnot_fit": fit.as_dict(),
        "model_fits": [f.as_dict() for f in model_fits],
        "report": report,
    }
    path = os.path.join(args.out, "obstruction.json")
    _json_dump(doc, path)
    print(f"verdict: {report['verdict']} -> {path}")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="Numerical toolkit for Carnot groups with CC metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--group", required=True,
                       help="built-in name or JSON definition file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--calibration-samples", type=int, default=None,
                       help="calibrate an empirical ball-box constant on this "
                            "many samples and use it beside the certified "
                            "per-layer bounds (default: no calibration)")
        p.set_defaults(func=fn)
        return p

    add("check", cmd_check, help="verify the graded structure")

    p = add("bch", cmd_bch, help="group product in exponential coordinates")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("distance", cmd_distance, help="two-sided CC distance estimate")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--segments", type=int, default=None)
    p.add_argument("--starts", type=int, default=None)

    p = add("ball-volume", cmd_ball_volume, help="Monte-Carlo ball volume")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--samples", type=int, default=200000)

    p = add("dimension", cmd_dimension, help="log-log dimension fit")
    p.add_argument("--radii", default="0.5:2:5", help="geometric grid lo:hi:n")
    p.add_argument("--samples", type=int, default=200000,
                   help="samples per radius")

    p = add("derivate", cmd_derivate, help="lower/upper derivate of a distance")
    p.add_argument("--distance", default="cc", choices=_DISTANCES)
    p.add_argument("--x", default=None, help="base point (default identity)")
    p.add_argument("--v", required=True, help="layer-1 direction")
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=10)
    p.add_argument("--samples", type=int, default=64, help="samples per t")

    p = add("spread", cmd_spread, help="box-end spread estimate")
    p.add_argument("--v", required=True)
    p.add_argument("--eps-grid", default="0.4,0.2,0.1,0.05")
    p.add_argument("--t-grid", default="1:4:3")
    p.add_argument("--samples", type=int, default=64)

    p = add("divergence", cmd_divergence, help="geodesic-pair divergence")
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--tmax", type=float, default=128.0)

    p = add("obstruction", cmd_obstruction,
            help="divergence verdict against model spaces")
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--tmax", type=float, default=128.0)
    p.add_argument("--margin", type=float, default=0.1)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except (OptimizerFailure, CalibrationError, LipschitzViolation) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (InputError, CarnotError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""carnot benchmark: one workload, one seed, timed end to end or traced.

    python3 perfbench/run.py --workload heis-volume --seed 1 --seconds 25 --trace 0

Runs as a single process, a closed loop with one client: rounds of the
workload run back to back until ``--seconds`` have passed (at least the
workload's minimum round count).  Every round repeats the same inputs,
drawn from the seed in set-up.  Only calls into carnot's public
functions are timed, with a fixed reference kernel run between them
(``workloads.reference_kernel_s``); ``wall_ref`` is the median round in
units of that kernel, which holds still while the speed of a shared
host moves.  The outputs are checked afterwards against independent
references (``reference.py``).  The last line of standard output is the
result JSON; the line before it holds the machine facts, per-call
timings and accuracy figures.

With ``--trace 1`` the same workload runs with spans around carnot's
layer entry points (``spans.py``) and prints the per-layer metrics.
Untraced and traced rounds alternate (U, T, T, U, T, ...) so the tracing
overhead is the ratio of their median walls, and every traced round
must give identical call, row and iteration counts.
"""

import os

# BLAS reads these when it is loaded, so they are set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()
LOAD_AT_START = os.getloadavg()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_carnot():
    """Import carnot from this checkout's src/; exit 1 when it is not there."""
    try:
        carnot = importlib.import_module("carnot")
        importlib.import_module("carnot.cli")
    except ImportError as exc:
        print(f"error: cannot import carnot from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    if not Path(carnot.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: carnot imported from {carnot.__file__}, not this checkout",
              file=sys.stderr)
        raise SystemExit(1)


def fresh_setup_seconds(args):
    """Set-up time of a fresh process running this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def blas_threads():
    """Thread count each loaded OpenBLAS reports (needs no extra package)."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.endswith(".so"):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": LOAD_AT_START,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_threads_effective": blas_threads(),
    }


def percentile(values, q):
    values = [v for v in values if np.isfinite(v)]
    return float(np.percentile(values, q)) if values else float("nan")


def end_to_end_metrics(setup_s, rounds):
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(r.ref_units for r in rounds), "ref"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def accuracy_figures(accuracy, checks):
    """Recorded next to the times; too seed-dependent to bound (see README)."""
    out = {k: v for k, v in accuracy.items() if k != "gaps"}
    out["upper_gap_p50"] = percentile(accuracy["gaps"], 50)
    out["upper_gap_p90"] = percentile(accuracy["gaps"], 90)
    out["gap_count"] = len(accuracy["gaps"])
    out["fail_frac"] = len(checks.failures) / max(checks.attempted, 1)
    return out


# Layers entered on every workload report seconds; the others report their
# share of the traced round's wall time, which is 0 where a workload never
# enters them.
SHARE_SPANS = ("group.jacobians", "measure.ball_volume", "measure.cheap_upper",
               "derivate.derivate", "derivate.sample_ball", "derivate.spread",
               "divergence.profile", "divergence.models")
SECONDS_SPANS = ("group.bch", "metric.cc_upper", "metric.close_defect")
COUNTED_SPANS = ("group.bch", "group.jacobians", "metric.cc_upper", "metric.close_defect")


def round_counts(summary):
    """The deterministic part of one traced round's summary."""
    return {name: (e["calls"], e["rows"], e["nit"], e["nfev"], e["failed_rows"])
            for name, e in sorted(summary.items())}


def per_layer_metrics(tracer, setup_range, setup_wall, traced, untraced_walls,
                      cli_commands):
    """Layer metrics of the traced rounds; ``traced`` is [(start, end, wall)]."""
    setup = tracer.summary(*setup_range)
    summaries = [tracer.summary(start, end) for start, end, _ in traced]
    first = summaries[0]
    first_range = traced[0][:2]
    wall = statistics.median(w for _, _, w in traced)

    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0)

    def med(name, key="s"):
        return statistics.median(get(s, name, key) for s in summaries)

    m = {"group.build_s": (get(setup, "group.build", "s"), "s")}
    for name in COUNTED_SPANS:
        m[f"{name}_calls"] = (get(first, name, "calls"), "count")
        m[f"{name}_rows"] = (get(first, name, "rows"), "count")
    for name in SECONDS_SPANS:
        m[f"{name}_s"] = (med(name), "s")
    for name in SHARE_SPANS:
        m[f"{name}_share"] = (med(name) / wall, "fraction")
    m["metric.cc_upper_failed_rows"] = (get(first, "metric.cc_upper", "failed_rows"), "count")
    m["metric.lbfgs_stages"] = (get(first, "metric.lbfgs", "calls"), "count")
    m["metric.lbfgs_nit"] = (get(first, "metric.lbfgs", "nit"), "count")
    m["metric.lbfgs_nfev"] = (get(first, "metric.lbfgs", "nfev"), "count")
    m["metric.lbfgs_s"] = (med("metric.lbfgs"), "s")
    m["metric.lbfgs_self_s"] = (med("metric.lbfgs", "self_s"), "s")
    m["metric.objective_s"] = (med("metric.objective"), "s")
    # calibration runs in set-up on heis-volume and inside commands on heis-cli
    m["metric.calibrate_calls"] = (get(setup, "metric.calibrate", "calls")
                                   + get(first, "metric.calibrate", "calls"), "count")
    m["metric.calibrate_share"] = ((get(setup, "metric.calibrate", "s")
                                    + med("metric.calibrate")) / (setup_wall + wall),
                                   "fraction")
    m["measure.cheap_upper_rows"] = (get(first, "measure.cheap_upper", "rows"), "count")
    samples = get(first, "measure.ball_volume", "rows")
    cheap = tracer.children_rows("measure.ball_volume", "measure.cheap_upper", *first_range)
    optimized = tracer.children_rows("measure.ball_volume", "metric.cc_upper", *first_range)
    for key, n in (("lower", samples - cheap), ("ladder", cheap - optimized),
                   ("optimizer", optimized)):
        m[f"measure.decided_{key}_frac"] = (n / samples if samples else 0.0, "fraction")
    m["divergence.profile_rows"] = (get(first, "divergence.profile", "rows"), "count")
    for name in cli_commands:
        m[f"cli.{name}_share"] = (med(f"cli.{name}") / wall, "fraction")
    untraced_wall = statistics.median(untraced_walls)
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.traced_wall_s"] = (wall, "s")
    m["trace.overhead_frac"] = (wall / untraced_wall - 1.0, "fraction")
    return m, summaries


def trace_plan():
    """Round kinds of a traced run: U, T, T, then U, T alternating."""
    yield from ("U", "T", "T")
    while True:
        yield from ("U", "T")


def restore(tracer, checks):
    for name in tracer.uninstall():
        checks.run_level(f"tracer left {name} replaced")


def run_rounds(args, workload, tracer, checks):
    """Rounds of the same inputs until --seconds have passed."""
    rounds, traced, untraced = [], [], []
    plan = trace_plan() if tracer else iter(lambda: "U", None)
    start = time.perf_counter()
    while True:
        kind = next(plan)
        first_span = len(tracer.spans) if tracer else 0
        if kind == "T":
            tracer.install()
        try:
            rnd = workload.run_round(tracer if kind == "T" else None)
        finally:
            if kind == "T":
                restore(tracer, checks)
        rounds.append(rnd)
        if kind == "T":
            traced.append((first_span, len(tracer.spans), rnd.wall))
        else:
            untraced.append(rnd.wall)
        if (time.perf_counter() - start >= args.seconds
                and len(rounds) >= workload.MIN_ROUNDS
                and (not tracer or (kind == "T" and len(traced) >= 2))):
            return rounds, traced, untraced


def write_trace(args, tracer, setup_range, summaries):
    """Span summaries of set-up and of each traced round, kept in the checkout."""
    path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"setup": tracer.summary(*setup_range), "rounds": summaries}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def as_number(value):
    """Metrics are printed as measured; a missing one becomes -1 (run is not correct)."""
    value = float(value)
    return value if np.isfinite(value) else -1.0


def main(argv=None):
    args = parse_args(argv)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, out_dir)
    import_carnot()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        measure_and_report(args, workload, tracer, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


def measure_and_report(args, workload, tracer, setup_s):
    checks = workloads.Checks()
    for problem in reference.self_check():
        checks.run_level(f"reference: {problem}")
    setups = [setup_s]
    if tracer:
        setup_range = (0, len(tracer.spans))
        restore(tracer, checks)
    else:
        for _ in range(workload.SETUP_REPEATS - 1):
            try:
                setups.append(fresh_setup_seconds(args))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
                checks.run_level(f"set-up repeat failed: {exc}")

    rounds, traced, untraced = run_rounds(args, workload, tracer, checks)
    for rnd in rounds:
        workload.check_round(rnd, checks)
    accuracy = workload.accuracy(rounds, checks)

    call_s = [s for r in rounds for _, s in r.calls]
    extra = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "rounds": len(rounds), "round_walls_s": [r.wall for r in rounds],
             "wall_s": statistics.median(r.wall for r in rounds),
             "round_refs": [r.ref_units for r in rounds],
             "ref_kernel_ms": 1000.0 * statistics.median(r.ref_s for r in rounds),
             "calls_s": [[name, s] for r in rounds for name, s in r.calls],
             "items_per_s": statistics.median(r.items / r.wall for r in rounds),
             "call_count": len(call_s), "call_p50_s": statistics.median(call_s),
             "call_max_s": max(call_s), "setups_s": setups,
             "machine": machine_facts()}
    if tracer:
        metrics, summaries = per_layer_metrics(
            tracer, setup_range, setup_s, traced, untraced,
            [name for name, _ in workloads.HeisCli.COMMANDS])
        counts = [round_counts(s) for s in summaries]
        if any(c != counts[0] for c in counts[1:]):
            checks.run_level("traced rounds of the same inputs gave different counts")
        extra["trace_file"] = str(write_trace(args, tracer, setup_range, summaries).relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(statistics.median(setups), rounds)

    failed = len(checks.failures)
    extra["accuracy"] = accuracy_figures(accuracy, checks)
    extra["failures"] = checks.failures[:20]
    print(json.dumps(extra, sort_keys=True))
    result = {
        "correct": failed == 0 and all(np.isfinite(v) for v, _ in metrics.values()),
        "attempted": max(checks.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": as_number(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())

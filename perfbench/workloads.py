"""The three workloads: set-up, one timed round, and the output checks.

Every timed call goes through a public carnot function looked up on its
module at call time, so the tracer's replacements are the ones called.
A round returns the public calls it made with their durations and the
reference kernel's times measured between them; checks run after the
timing and count each checked item.  The seed fixes a run's
inputs in set-up and every round repeats them, so the rounds time the
same work and must return the same output.
"""

import contextlib
import csv
import importlib
import io
import json
import statistics
import time

import numpy as np

import reference


def derived_seed(seed, *key):
    """A seed for one use (round, probe) derived from the run seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class Checks:
    """Counts checked items; an item fails if any of its checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def item(self, problems):
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def run_level(self, problem):
        self.failures.append(problem)


_REF_MATRICES = np.linspace(-1.0, 1.0, 1024).reshape(64, 4, 4)


def reference_kernel_s(repeats=9):
    """Median time of a fixed kernel of small numpy calls and Python arithmetic.

    carnot's hot paths are the same mix.  Other load on a shared host slows
    both alike, by up to half within minutes, so a call's time in units of
    this kernel's, measured just before and just after the call, stays put
    when the host's speed moves.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        x = np.ones((64, 4))
        for _ in range(100):
            x = np.einsum("bij,bj->bi", _REF_MATRICES, x)
            x /= np.linalg.norm(x, axis=-1, keepdims=True)
        sum(i * i for i in range(2000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Timer:
    """Times public carnot calls, with a reference-kernel run before each
    call and one after the last."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls = []  # [(public call, seconds)]
        self.refs = []  # reference kernel seconds, before each call

    def __call__(self, name, fn, *args, trace_as=None, **kwargs):
        self.refs.append(reference_kernel_s())
        span = self.tracer.span(trace_as) if trace_as and self.tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
            self.calls.append((name, seconds))


class Round:
    def __init__(self, timer, items, output):
        refs = timer.refs + [reference_kernel_s()]
        self.calls = timer.calls
        self.wall = sum(seconds for _, seconds in self.calls)
        # the round in reference-kernel units, each call against the mean of
        # the kernel runs on either side of it
        self.ref_units = sum(seconds / (0.5 * (before + after))
                             for (_, seconds), before, after
                             in zip(self.calls, refs, refs[1:]))
        self.ref_s = statistics.median(refs)
        self.items = items
        self.output = output


def _bracket_problems(label, lower, exact, upper, rel=1e-9):
    problems = []
    if not lower <= exact * (1 + rel):
        problems.append(f"{label}: lower {lower!r} > exact {exact!r}")
    if not exact <= upper * (1 + rel):
        problems.append(f"{label}: upper {upper!r} < exact {exact!r}")
    return problems


class HeisVolume:
    """Two Monte-Carlo ball_volume(heisenberg, r=1) calls per round."""

    MIN_ROUNDS = 3
    SETUP_REPEATS = 3  # this process plus fresh ones; each set-up calibrates
    CALLS = 2
    SAMPLES = 1000
    RADIUS = 1.0
    CALIBRATION_SAMPLES = 100  # the fewest calibrate_ballbox takes
    # The constant decides how many samples reach the optimizer, so it is
    # calibrated from a fixed seed: the run seed draws only the samples.
    CALIBRATION_SEED = 0
    PROBE_POINTS = 512
    VOLUME_SIGMAS = 4.0

    def setup(self, seed):
        catalog = importlib.import_module("carnot.catalog")
        self.metric = importlib.import_module("carnot.metric")
        self.measure = importlib.import_module("carnot.measure")
        self.errors = importlib.import_module("carnot.errors")
        self.seed = seed
        self.space = self.metric.CCSpace(catalog.heisenberg())
        self.ballbox = self.metric.calibrate_ballbox(
            self.space, samples=self.CALIBRATION_SAMPLES, seed=self.CALIBRATION_SEED)
        self.exact_volume = reference.heisenberg_unit_ball_volume()
        self.call_seeds = [derived_seed(seed, 0, j) for j in range(self.CALLS)]
        self.first = None

    def run_round(self, tracer):
        timer = Timer()
        ests = [timer(f"ball_volume[{j}]", self.measure.ball_volume, self.space,
                      self.ballbox, self.RADIUS, self.SAMPLES, seed=s)
                for j, s in enumerate(self.call_seeds)]
        return Round(timer, self.SAMPLES * self.CALLS, ests)

    def check_round(self, rnd, checks):
        if self.first is None:
            self.first = rnd.output
        for j, (est, first) in enumerate(zip(rnd.output, self.first)):
            problems = []
            off = abs(est.volume - self.exact_volume)
            if not off <= self.VOLUME_SIGMAS * est.stderr:
                problems.append(f"volume {est.volume:.6f} is {off / est.stderr:.1f} stderr "
                                f"from exact {self.exact_volume:.6f}")
            if est != first:
                problems.append(f"ball_volume[{j}] differs from the first round's")
            checks.item(problems)

    def accuracy(self, rounds, checks):
        """Bracket check on exact-unit-sphere points at the membership budget."""
        rng = np.random.default_rng(derived_seed(self.seed, 1, 0))
        pts = reference.heisenberg_sphere_points(self.PROBE_POINTS, rng)
        exact = reference.heisenberg_distance(pts)
        try:
            upper, residual = self.metric.cc_upper_batch(
                self.space, pts, budget=self.measure.MEMBERSHIP_BUDGET,
                seed=derived_seed(self.seed, 1, 1))
        except self.errors.OptimizerFailure as exc:
            for _ in pts:
                checks.item([f"cc_upper_batch failed on the probe: {exc}"])
            return {"gaps": []}
        origin = np.zeros(3)
        lower = np.array([max(self.metric.cc_lower_abelian(self.space, origin, p),
                              self.metric.cc_lower_ballbox(self.space, origin, p,
                                                           self.ballbox))
                          for p in pts])
        for i in range(len(pts)):
            problems = _bracket_problems(f"probe {i}", lower[i], exact[i], upper[i])
            if not residual[i] <= 1e-9:
                problems.append(f"probe {i}: residual {residual[i]:.3g}")
            checks.item(problems)
        ests = rounds[0].output  # later rounds are identical
        return {
            "gaps": list(upper / exact - 1.0),
            "lower_frac_p50": float(np.median(lower / exact)),
            "band_fraction": float(np.median([e.band_fraction for e in ests])),
            "volume_ratio": float(np.mean([e.volume for e in ests]) / self.exact_volume),
            "volume_samples": self.SAMPLES * self.CALLS,
        }


class EngelDistance:
    """Six cc_upper_batch(engel, one stored target) calls per round.

    The seed picks six targets of the stored set and the optimizer seed
    of each call; targets differ by about 10% in cost, and six of them
    keep that from moving a run's total much.  One target (two rows, one
    per start) at a capped iteration count keeps a call near one second,
    so a run repeats the round several times; the step-3 general fold on
    so few rows is bound by per-call overhead in ``BchTable.jacobians``
    and ``bch``.
    """

    MIN_ROUNDS = 3
    SETUP_REPEATS = 5  # this process plus fresh ones
    CALLS = 6

    def setup(self, seed):
        catalog = importlib.import_module("carnot.catalog")
        self.metric = importlib.import_module("carnot.metric")
        self.errors = importlib.import_module("carnot.errors")
        self.space = self.metric.CCSpace(catalog.engel())
        self.budget = self.metric.OptimizerBudget(segments=12, starts=2, max_iter=30)
        self.targets, self.best_upper = reference.load_engel_reference()
        rng = np.random.default_rng(derived_seed(seed, 0))
        self.picks = [int(i) for i in rng.choice(len(self.targets), self.CALLS, replace=False)]
        self.call_seeds = [derived_seed(seed, 1, j) for j in range(self.CALLS)]
        self.first = None

    def run_round(self, tracer):
        timer, out = Timer(), []
        for j, (i, s) in enumerate(zip(self.picks, self.call_seeds)):
            try:
                upper, residual = timer(f"cc_upper_batch[{j}]", self.metric.cc_upper_batch,
                                        self.space, self.targets[i:i + 1],
                                        budget=self.budget, seed=s)
            except self.errors.OptimizerFailure:
                upper, residual = [np.inf], [np.inf]
            out.append((i, float(upper[0]), float(residual[0])))
        return Round(timer, len(out), out)

    def check_round(self, rnd, checks):
        if self.first is None:
            self.first = rnd.output
        for (i, u, res), first in zip(rnd.output, self.first):
            lo = float(np.linalg.norm(self.targets[i, :2]))
            problems = []
            if not np.isfinite(u):
                problems.append(f"target {i}: no finite upper bound")
            if not res <= 1e-9:
                problems.append(f"target {i}: residual {res:.3g}")
            if not lo <= u * (1 + 1e-12):
                problems.append(f"target {i}: upper {u} below abelian lower {lo}")
            if (i, u, res) != first:
                problems.append(f"target {i}: differs from the first round's")
            checks.item(problems)

    def accuracy(self, rounds, checks):
        """Gaps of the first round; later rounds are identical."""
        return {"gaps": [u / self.best_upper[i] - 1.0 for i, u, _ in rounds[0].output],
                "targets": self.picks}


def _read_csv_report(text):
    """Rows (as floats) and the JSON footer of a carnot CSV report."""
    lines = text.splitlines()
    footer = json.loads(lines[-1][2:]) if lines and lines[-1].startswith("# ") else {}
    body = [ln for ln in lines if not ln.startswith("# ")]
    rows = [[float(v) for v in row] for row in list(csv.reader(body))[1:]]
    return rows, footer


class HeisCli:
    """The README's Heisenberg subcommands, in-process through carnot.cli.main.

    The seed draws the directions: v is a unit horizontal vector at a
    random angle, w is v turned by a right angle (the README's X and Y,
    rotated), and the distance target is a random point.  Rotations of
    the horizontal plane are isometries, so every seed asks for the same
    geometry.  Every command gets the same fixed ``--seed``: four of them
    calibrate the ball-box constant from it, and the calibration's cost
    moves by tens of percent from one calibration seed to another.
    """

    MIN_ROUNDS = 2  # the second round's reports must repeat the first's byte for byte
    SETUP_REPEATS = 5  # this process plus fresh ones
    # The CLI's smallest calibration keeps two rounds affordable; four of the
    # commands recalibrate, which is most of a round.
    CALIBRATION_SAMPLES = "100"
    CLI_SEED = "0"
    COMMANDS = [
        ("check", []),
        ("bch", ["--x={v}", "--y={w}"]),
        ("distance", ["--x={v}", "--y={y}"]),
        ("divergence", ["--v={v}", "--w={w}", "--tmax", "128"]),
        ("obstruction", ["--v={v}", "--w={w}"]),
        ("spread", ["--v={v}", "--eps-grid", "0.4,0.2,0.1,0.05"]),
        ("derivate", ["--distance", "cc", "--v={v}"]),
    ]

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def setup(self, seed):
        self.cli = importlib.import_module("carnot.cli")
        self.cli.load_group("heisenberg")  # builds the group once, as every command does
        rng = np.random.default_rng(derived_seed(seed, 0))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        self.v = np.array([np.cos(angle), np.sin(angle), 0.0])
        self.w = np.array([-np.sin(angle), np.cos(angle), 0.0])
        y = rng.uniform(-1.0, 1.0, 3)
        # "--x=<text>": a value with a leading minus would otherwise read as an option
        texts = {name: ",".join(repr(float(c)) for c in vec)
                 for name, vec in (("v", self.v), ("w", self.w), ("y", y))}
        self.argvs = [(name, [a.format(**texts) for a in extra])
                      for name, extra in self.COMMANDS]
        self.first_reports = None

    def run_round(self, tracer):
        # one directory for every round: the reports embed their --out path
        self.out_dir.mkdir(parents=True, exist_ok=True)
        timer, codes = Timer(tracer), {}
        for name, extra in self.argvs:
            argv = [name, "--group", "heisenberg", "--out", str(self.out_dir),
                    "--seed", self.CLI_SEED,
                    "--calibration-samples", self.CALIBRATION_SAMPLES] + extra
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                codes[name] = timer(name, self.cli.main, argv, trace_as=f"cli.{name}")
            if codes[name] != 0:
                codes[name] = (codes[name], err.getvalue().strip())
        reports = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        return Round(timer, len(self.COMMANDS), (codes, reports))

    def _exact(self, displacement):
        return float(reference.heisenberg_distance(displacement)[0])

    def check_round(self, rnd, checks):
        codes, reports = rnd.output
        for name, _ in self.COMMANDS:
            code = codes[name]
            checks.item([] if code == 0 else [f"carnot {name} exited with {code}"])
        if self.first_reports is None:
            self.first_reports = reports
        for name, data in reports.items():
            checks.item([] if self.first_reports.get(name) == data else [
                f"{name} differs between rounds"])

    def _check_reports(self, reports, checks):
        def text(name):
            return reports[name].decode()

        check = json.loads(text("heisenberg-check.json"))
        checks.item([] if check["report"]["valid"] else ["check reports INVALID"])

        bch = np.array(json.loads(text("bch.json"))["bch"])
        want = reference.heisenberg_product(self.v, self.w)
        checks.item([] if np.max(np.abs(bch - want)) <= 1e-15 else [
            f"bch v*w = {bch.tolist()}, want {want.tolist()}"])

        gaps, lower_fracs = [], []
        est = json.loads(text("distance.json"))["estimate"]
        x, y = (np.array(v) for v in est["pair"])
        exact = self._exact(reference.heisenberg_product(-x, y))
        problems = _bracket_problems("distance", est["lower"], exact, est["upper"])
        if not est["endpoint_residual"] <= 1e-9:
            problems.append(f"distance residual {est['endpoint_residual']:.3g}")
        checks.item(problems)
        gaps.append(est["upper"] / exact - 1.0)
        lower_fracs.append(est["lower"] / exact)

        rows, footer = _read_csv_report(text("divergence.csv"))
        for t, lo, hi in rows:
            leg = t * self.v
            disp = reference.heisenberg_product(reference.heisenberg_product(-leg, self.w), leg)
            exact = self._exact(disp)
            checks.item(_bracket_problems(f"divergence t={t:g}", lo, exact, hi))
            gaps.append(hi / exact - 1.0)
            lower_fracs.append(lo / exact)
        exponent = footer["fit"]["exponent"]
        checks.item([] if 0.4 <= exponent <= 0.6 else [
            f"divergence exponent {exponent} outside [0.4, 0.6]"])

        verdict = json.loads(text("obstruction.json"))["report"]["verdict"]
        checks.item([] if verdict == "obstruction witnessed" else [f"verdict {verdict!r}"])

        _, footer = _read_csv_report(text("spread.csv"))
        c_eps = [c for _, c in footer["c_of_epsilon"]]
        checks.item([] if all(a > b for a, b in zip(c_eps, c_eps[1:])) else [
            f"spread C(eps) not decreasing: {c_eps}"])

        _, footer = _read_csv_report(text("derivate.csv"))
        rho = (footer["summary"]["rho_lower"], footer["summary"]["rho_upper"])
        checks.item([] if all(abs(r - 1.0) <= 0.03 for r in rho) else [
            f"derivate rho {rho} not within 3% of |v| = 1"])
        return {"gaps": gaps, "lower_frac_p50": float(np.median(lower_fracs))}

    def accuracy(self, rounds, checks):
        """Report contents of the first round; later rounds are byte-identical."""
        codes, reports = rounds[0].output
        if any(code != 0 for code in codes.values()):
            return {"gaps": []}
        return self._check_reports(reports, checks)


def make(name, out_dir):
    if name == "heis-volume":
        return HeisVolume()
    if name == "engel-distance":
        return EngelDistance()
    if name == "heis-cli":
        return HeisCli(out_dir)
    raise ValueError(name)


WORKLOADS = ("heis-volume", "engel-distance", "heis-cli")

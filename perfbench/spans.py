"""Spans around carnot's layer entry points, recorded from outside.

``Tracer.install`` replaces each traced function in every carnot module
that binds it (modules import several of them by name), the two
``BchTable`` methods on the class, and ``scipy.optimize.minimize`` as
bound in ``carnot.metric`` together with the objective callback passed to
it.  Spans (name, start, end, parent, rows) are kept in memory;
``uninstall`` puts every original back.  Untraced rounds run with
nothing installed.
"""

import importlib
import time

import numpy as np

MODULES = ("carnot", "carnot.group", "carnot.metric", "carnot.measure",
           "carnot.derivate", "carnot.divergence", "carnot.cli")


def _rows(arr):
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _bch_rows(_self, x, y, *args, **kwargs):
    return int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])))


def _first_rows(*args, **kwargs):
    return _rows(args[1])


def _ball_volume_rows(space, ballbox, r, samples, *args, **kwargs):
    return int(samples)


def _profile_rows(space, pair, *args, **kwargs):
    return len(pair.t_grid)


def _failed_rows(exc):
    residual = getattr(exc, "residual", None)
    if residual is None:
        return 0
    return int(np.sum(~(np.asarray(residual, dtype=float) <= 1e-9)))


class Span:
    __slots__ = ("name", "start", "end", "parent", "rows", "info")

    def __init__(self, name, start, parent, rows):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rows = rows
        self.info = {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def span(self, name, rows=0):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, rows))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, rows=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.span(name, rows(*args, **kwargs) if rows else 0)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.info["failed_rows"] = _failed_rows(exc)
                raise
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced

    def _traced_minimize(self, minimize):
        tracer = self

        def traced(fun, x0, *args, **kwargs):
            span = tracer.span("metric.lbfgs")
            try:
                res = minimize(tracer.wrap(fun, "metric.objective"), x0, *args, **kwargs)
                span.info["nit"] = int(res.nit)
                span.info["nfev"] = int(res.nfev)
                return res
            finally:
                tracer.close(span)

        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        metric = importlib.import_module("carnot.metric")
        measure = importlib.import_module("carnot.measure")
        derivate = importlib.import_module("carnot.derivate")
        divergence = importlib.import_module("carnot.divergence")
        table = importlib.import_module("carnot.group").BchTable

        self._patch(table, "__init__", self.wrap(table.__init__, "group.build"))
        self._patch(table, "bch", self.wrap(table.bch, "group.bch", _bch_rows))
        self._patch(table, "jacobians",
                    self.wrap(table.jacobians, "group.jacobians", _bch_rows))
        self._patch(metric, "minimize", self._traced_minimize(metric.minimize))

        functions = [
            (metric.cc_upper_batch, "metric.cc_upper", _first_rows),
            (metric.close_defect_batch, "metric.close_defect", _first_rows),
            (metric.calibrate_ballbox, "metric.calibrate", None),
            (metric.estimate_distance, "metric.estimate_distance", None),
            (measure.ball_volume, "measure.ball_volume", _ball_volume_rows),
            (measure.certified_upper_cheap, "measure.cheap_upper", _first_rows),
            (derivate.derivate, "derivate.derivate", None),
            (derivate.sample_ball, "derivate.sample_ball", None),
            (derivate.spread_estimate, "derivate.spread", None),
            (divergence.divergence_profile, "divergence.profile", _profile_rows),
            (divergence.model_divergence, "divergence.models", None),
        ]
        for fn, name, rows in functions:
            traced = self.wrap(fn, name, rows)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, traced)

    def uninstall(self):
        """Restore every patched attribute; returns any left unrestored."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in patched
                if getattr(owner, attr) is not original]

    # -- summarizing -------------------------------------------------------

    def summary(self, start=0, end=None):
        """Per-name calls, rows, inclusive and self seconds of spans[start:end]."""
        spans = self.spans[start:end]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= start:
                child_time[span.parent - start] += span.seconds
        out = {}
        for span, children in zip(spans, child_time):
            entry = out.setdefault(span.name, {"calls": 0, "rows": 0, "s": 0.0,
                                               "self_s": 0.0, "failed_rows": 0,
                                               "nit": 0, "nfev": 0})
            entry["calls"] += 1
            entry["rows"] += span.rows
            entry["s"] += span.seconds
            entry["self_s"] += span.seconds - children
            for key in ("failed_rows", "nit", "nfev"):
                entry[key] += span.info.get(key, 0)
        return out

    def children_rows(self, parent_name, child_name, start=0, end=None):
        """Rows of ``child_name`` spans called directly from ``parent_name``."""
        total = 0
        for span in self.spans[start:end]:
            if (span.name == child_name and span.parent >= 0
                    and self.spans[span.parent].name == parent_name):
                total += span.rows
        return total

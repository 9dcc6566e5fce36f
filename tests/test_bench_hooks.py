"""The benchmark's tracer finds every carnot entry point it wraps.

``perfbench/spans.py`` patches carnot from outside, by name and call
shape, so a renamed function or a changed call breaks only traced
benchmark runs.  One traced ball volume checks that the spans are
recorded and that every patched name is restored; one traced round of
the ``heis-volume`` workload and one of ``engel-distance`` (the only
workload whose objective makes block ``bch`` calls) check their set-up,
round, output checks and accuracy figures against the current code.
"""

import sys
from pathlib import Path

from carnot import measure

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import Tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_spans_ball_volume(heis, heis_ballbox):
    tracer = Tracer()
    tracer.install()
    try:
        measure.ball_volume(heis, heis_ballbox, 1.0, 200, seed=0)
    finally:
        left = tracer.uninstall()
    assert left == []
    names = {span.name for span in tracer.spans}
    assert {"measure.ball_volume", "metric.cc_upper", "metric.close_defect",
            "group.bch"} <= names


def _traced_round(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    workload.setup(1)
    tracer = Tracer()
    tracer.install()
    try:
        rnd = workload.run_round(tracer)
    finally:
        left = tracer.uninstall()
    checks = workloads.Checks()
    workload.check_round(rnd, checks)
    workload.accuracy([rnd], checks)
    assert checks.failures == []
    assert checks.attempted > 0
    assert left == []
    return tracer


def test_heis_volume_workload_traced_round(tmp_path):
    _traced_round("heis-volume", tmp_path)


def test_engel_distance_workload_traced_round(tmp_path):
    tracer = _traced_round("engel-distance", tmp_path)
    assert "group.bch" in {span.name for span in tracer.spans}

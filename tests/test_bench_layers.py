"""The solver-layer microbenchmark runs at its tiny size, every case."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layers_script_reports_every_case(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"),
         "--src", str(ROOT / "src"), "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert [name.split("/")[0] for name in doc["cases"]] == [
        "poly", "project", "cheap", "poly", "project", "cheap", "engel-call",
        "engel-4", "heis-membership-2", "engel-volume-200", "cheap", "warm",
        "warm", "call", "warm", "call", "lower", "lower", "derivate",
        "derivate", "spread", "derivate", "derivate", "volume", "volume"]
    for case in doc["cases"].values():
        (tree,) = case["trees"]
        assert tree["ms"] > 0 and len(tree["repeats_ms"]) == 1
        assert tree["answer"] and all(map(math.isfinite, tree["answer"]))

"""The carnot command: parsing, reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carnot
from carnot import cli
from carnot.cli import main, parse_direction, parse_grid, load_group
from carnot.errors import InputError


def run(args):
    return main(list(args))


def test_parse_grid_geometric():
    grid = parse_grid("0.5:2:5")
    assert len(grid) == 5
    assert grid[0] == pytest.approx(0.5)
    assert grid[-1] == pytest.approx(2.0)
    assert np.allclose(grid[1:] / grid[:-1], grid[1] / grid[0])
    assert np.allclose(parse_grid("1,2,4"), [1.0, 2.0, 4.0])
    assert parse_grid("3:5:1") == pytest.approx([3.0])


def test_parse_grid_errors():
    for bad in ("1:2", "a:b:c", "-1:2:3", "x,y", "1,nan", "inf,2", "0.5,-inf",
                "1:inf:3", "nan:1:3", "1:nan:3"):
        with pytest.raises(InputError):
            parse_grid(bad)


def test_parse_direction():
    space = load_group("heisenberg")
    assert np.allclose(parse_direction(space, "Y"), [0, 1, 0])
    assert np.allclose(parse_direction(space, "1,2"), [1, 2, 0])
    assert np.allclose(parse_direction(space, "1,2,3"), [1, 2, 3])
    for bad in ("W", "1", "1,2,3,4", "nan,0,0", "0,inf", "1,2,-inf"):
        with pytest.raises(InputError):
            parse_direction(space, bad)


def test_check_builtin(tmp_path):
    assert run(["check", "--group", "heisenberg",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "heisenberg-check.json").read_text())
    assert doc["report"]["valid"]
    assert doc["homogeneous_dimension"] == 4


def test_check_group_file(tmp_path):
    path = tmp_path / "my.json"
    path.write_text(json.dumps({
        "version": 1,
        "name": "my-heis",
        "layer_dims": [2, 1],
        "labels": ["A", "B", "C"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1.0}}],
    }))
    assert run(["check", "--group", str(path), "--out", str(tmp_path)]) == 0
    assert run(["bch", "--group", str(path), "--x", "A", "--y", "B",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "bch.json").read_text())
    assert doc["bch"] == [1.0, 1.0, 0.5]


def test_unknown_group_exit_1(tmp_path):
    assert run(["check", "--group", "nosuch", "--out", str(tmp_path)]) == 1
    assert run(["check", "--group", str(tmp_path / "missing.json"),
                "--out", str(tmp_path)]) == 1


def test_bad_direction_exit_1(tmp_path):
    assert run(["bch", "--group", "heisenberg", "--x", "BAD", "--y", "Y",
                "--out", str(tmp_path)]) == 1


def test_non_finite_input_exit_1(tmp_path):
    common = ["--group", "heisenberg", "--out", str(tmp_path)]
    for radius in ("inf", "nan", "-inf"):
        assert run(["ball-volume", f"--radius={radius}", "--samples", "10"]
                   + common) == 1
    assert run(["distance", "--x=nan,0,0", "--y", "X"] + common) == 1
    assert run(["distance", "--x", "X", "--y", "0,0,inf"] + common) == 1
    for cmd in ("divergence", "obstruction"):
        for tmax in ("nan", "inf"):
            assert run([cmd, "--v", "X", "--w", "Y", f"--tmax={tmax}"]
                       + common) == 1
    assert not list(tmp_path.iterdir())


def test_divergence_grid_past_overflow_exit_1(tmp_path):
    # t^2 overflows at t = 1e200: the grid is refused before the dilation
    # meets it, with the error line alone on stderr
    src = Path(carnot.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    for cmd in ("divergence", "obstruction"):
        done = subprocess.run(
            [sys.executable, "-m", "carnot.cli", cmd, "--group", "heisenberg",
             "--v", "X", "--w", "Y", "--tmax", "1e200", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert done.returncode == 1
        assert "error: InputError" in done.stderr
        assert "RuntimeWarning" not in done.stderr
    assert not list(tmp_path.iterdir())


def test_target_too_large_to_square_gets_its_bracket(tmp_path):
    # d_cc(0, 0, 1e300) = sqrt(4 pi) 1e150, though 1e300 squared overflows
    assert run(["distance", "--group", "heisenberg", "--x", "0,0,1e300",
                "--y", "0,0,0", "--out", str(tmp_path)]) == 0
    est = json.loads((tmp_path / "distance.json").read_text())["estimate"]
    exact = np.sqrt(4 * np.pi) * 1e150
    assert est["lower"] <= exact <= est["upper"] <= 1.01 * exact


@pytest.mark.parametrize("args", [
    ["distance", "--x", "X", "--y", "0,0,1", "--segments", "0"],
    ["distance", "--x", "X", "--y", "0,0,1", "--segments", "-1"],
    ["distance", "--x", "X", "--y", "0,0,1", "--starts", "0"],
    ["distance", "--x", "X", "--y", "0,0,1", "--starts", "-2"],
    ["derivate", "--v", "X", "--samples", "0"],
    ["derivate", "--v", "X", "--levels", "0"],
    ["derivate", "--v", "X", "--tmax", "-1"],
    ["derivate", "--v", "X", "--tmax", "1e-6"],
    ["spread", "--v", "X", "--samples", "0"],
], ids=lambda args: " ".join(args[:1] + args[-2:]))
def test_non_positive_counts_exit_1(args, tmp_path, capsys):
    assert run(args + ["--group", "heisenberg", "--out", str(tmp_path)]) == 1
    assert "error: InputError" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_reports_are_strict_json(tmp_path):
    # one sample, and no member: the band fraction is inf, written as null
    assert run(["ball-volume", "--group", "heisenberg", "--radius", "1",
                "--samples", "1", "--seed", "3", "--out", str(tmp_path)]) == 0
    footer = (tmp_path / "ball-volume.csv").read_text().splitlines()[-1][2:]

    def refuse(token):
        raise AssertionError(f"non-finite number {token} in a report")

    assert json.loads(footer, parse_constant=refuse)["band_fraction"] is None
    path = tmp_path / "doc.json"
    cli._json_dump({"a": [1.5, float("nan")], "b": (float("-inf"), 2)}, path)
    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "a": [1.5, None], "b": [None, 2]}


def test_distance_report(tmp_path):
    assert run(["distance", "--group", "heisenberg", "--x", "X",
                "--y", "0,0,1", "--seed", "3", "--segments", "8",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "distance.json").read_text())
    est = doc["estimate"]
    assert est["lower"] <= est["upper"]
    assert est["witness_segments"] is not None
    assert doc["config"]["seed"] == 3


def test_no_calibration_by_default(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("calibrate_ballbox called without the flag")

    monkeypatch.setattr(cli, "calibrate_ballbox", refuse)
    common = ["--group", "heisenberg", "--out", str(tmp_path)]
    assert run(["distance", "--x", "0,0", "--y", "0,0,1"] + common) == 0
    assert run(["divergence", "--v", "X", "--w", "Y", "--tmax", "4"]
               + common) == 0
    assert run(["derivate", "--v", "X", "--samples", "8", "--levels", "6"]
               + common) == 0
    layers = {"layer2": {"K": 1 / (2 * np.pi), "source": "dido"}}
    doc = json.loads((tmp_path / "distance.json").read_text())
    assert doc["ballbox"] is None and doc["layer_bounds"] == layers
    assert doc["estimate"]["lower_method"] == "dido"
    for name in ("divergence.csv", "derivate.csv"):
        footer = json.loads((tmp_path / name).read_text().splitlines()[-1][2:])
        assert footer["ballbox"] is None and footer["layer_bounds"] == layers


def test_calibration_on_request(tmp_path):
    assert run(["distance", "--group", "heisenberg", "--x", "0,0",
                "--y", "0,0,1", "--calibration-samples", "100",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "distance.json").read_text())
    assert doc["ballbox"]["source"] == "calibrated"
    assert doc["ballbox"]["samples"] == 100
    assert doc["config"]["calibration_samples"] == 100


def test_snowflake_derivate_exit_2(tmp_path):
    code = run(["derivate", "--group", "heisenberg", "--distance",
                "snowflake", "--v", "X", "--samples", "8", "--levels", "6",
                "--out", str(tmp_path)])
    assert code == 2


def test_derivate_cc(tmp_path):
    assert run(["derivate", "--group", "heisenberg", "--v", "X",
                "--samples", "8", "--levels", "6",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "derivate.csv").read_text().splitlines()
    assert lines[0] == "t,inf_quotient,sup_quotient,samples"
    footer = json.loads(lines[-1][2:])
    assert footer["summary"]["rho_lower"] == pytest.approx(1.0, abs=1e-6)


def test_dimension_small(tmp_path):
    assert run(["dimension", "--group", "abelian2", "--radii", "0.5:2:3",
                "--samples", "4000", "--seed", "1",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dimension.csv").read_text().splitlines()
    footer = json.loads(lines[-1][2:])
    assert footer["fit"]["slope"] == pytest.approx(2.0, abs=0.2)


def test_determinism_byte_identical(tmp_path):
    args = ["divergence", "--group", "heisenberg", "--v", "X", "--w", "Y",
            "--tmax", "8", "--seed", "5", "--out", str(tmp_path)]
    assert run(args) == 0
    first = (tmp_path / "divergence.csv").read_bytes()
    assert run(args) == 0
    second = (tmp_path / "divergence.csv").read_bytes()
    assert first == second


def test_obstruction_verdict(tmp_path):
    assert run(["obstruction", "--group", "heisenberg", "--v", "X",
                "--w", "Y", "--tmax", "16", "--seed", "2",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "obstruction.json").read_text())
    assert doc["report"]["verdict"] == "obstruction witnessed"
    assert len(doc["model_fits"]) == 5


def test_spread_csv(tmp_path):
    assert run(["spread", "--group", "heisenberg", "--v", "X",
                "--eps-grid", "0.4,0.2", "--t-grid", "1,2",
                "--samples", "16", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spread.csv").read_text().splitlines()
    assert lines[0] == "epsilon,t,sup_distance,sup_over_t"
    footer = json.loads(lines[-1][2:])
    cs = footer["c_of_epsilon"]
    assert cs[0][1] > cs[1][1]  # decreasing in epsilon

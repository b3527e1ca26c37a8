import json

import pytest

from tpslab.cli import main

DYNAMICS_CONFIG = """{
  "version": 1,
  "scenario": "dynamics-trace",
  "base_seed": 0,
  "output_dir": "out",
  "layout": [2, 2],
  "structure_a": {"grouping": [0]},
  "structure_b": {"grouping": [1]},
  "hamiltonian": {"gue_seed": 3},
  "initial_state": {"kind": "random_pure", "seed": 5},
  "time_grid": {"t0": 0.0, "t1": %s, "steps": 2}
}
"""


def run_cli(tmp_path, t1: str):
    config = tmp_path / "dyn.json"
    config.write_text(DYNAMICS_CONFIG % t1, encoding="utf-8")
    return main(["run", str(config), "--output-dir", str(tmp_path / "out")])


def test_finite_config_runs(tmp_path, capsys):
    assert run_cli(tmp_path, "1.5") == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "series.csv").is_file()


@pytest.mark.parametrize("t1", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, t1):
    assert run_cli(tmp_path, t1) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config"
    assert "non-finite" in error["message"]
    assert not (tmp_path / "out").exists()

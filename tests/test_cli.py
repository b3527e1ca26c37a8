import json
import os
import subprocess
import sys
from pathlib import Path

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


def sweep_config(tmp_path, layout) -> str:
    config = tmp_path / "sweep.json"
    cfg = {"version": 1, "scenario": "lemma1-sweep", "base_seed": 0, "output_dir": "out", "layout": layout, "trials": 2}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    return str(config)


@pytest.mark.parametrize("layout", [[100000, 100000], [2] * 13])
def test_total_dimension_above_the_cap_is_a_config_error(tmp_path, capsys, layout):
    assert main(["run", sweep_config(tmp_path, layout), "--output-dir", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config"
    assert "exceeds the cap of 4096" in error["message"]
    assert not (tmp_path / "out").exists()


def test_total_dimension_1024_is_admitted(tmp_path, capsys):
    assert main(["validate", sweep_config(tmp_path, [2] * 10)]) == 0
    assert capsys.readouterr().err == ""


def test_unwritable_output_dir_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    config = sweep_config(tmp_path, [2, 2])
    assert main(["run", config, "--output-dir", str(blocker / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "io"


def test_out_of_memory_is_exit_3(tmp_path, capsys):
    # 10**15 + 1 grid times in float64 need 7.1 PiB, more than any process
    # address space holds, so the allocation is refused at once
    config = tmp_path / "dyn.json"
    config.write_text(
        (DYNAMICS_CONFIG % "1.5").replace('"steps": 2', '"steps": 1000000000000000'), encoding="utf-8"
    )
    assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "memory"
    assert "PiB" in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, fragment",
    [
        ([], "required: command"),
        (["run"], "required: config"),
        (["frobnicate", "config.json"], "invalid choice"),
        (["run", "config.json", "--seed", "abc"], "invalid int value"),
        (["validate", "config.json", "--bogus"], "unrecognized arguments"),
    ],
    ids=["no-command", "run-without-config", "unknown-command", "non-integer-seed", "unknown-flag"],
)
def test_usage_error_is_one_json_line_and_exit_1(capsys, argv, fragment):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "usage"
    assert fragment in error["message"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: tpslab" in capsys.readouterr().out


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"


def run_process(args, cwd, **env_vars):
    """``python -m tpslab.cli`` in a new process, importing the package from
    ``src``: the module's ``__main__`` guard calls ``entry()``.  ``env_vars``
    are added to its environment."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, "-m", "tpslab.cli", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_process_entry_runs_a_golden_config(tmp_path):
    out = tmp_path / "out"
    proc = run_process(["run", str(GOLDEN / "dynamics-unitary" / "config.json"), "--output-dir", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [f"summary: {out / 'summary.json'}", f"series: {out / 'series.csv'}"]
    assert (out / "series.csv").is_file()


def test_process_entry_rejects_a_bad_config_with_one_json_line(tmp_path):
    config = tmp_path / "dyn.json"
    config.write_text(DYNAMICS_CONFIG % "NaN", encoding="utf-8")
    proc = run_process(["run", str(config), "--output-dir", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_missing_key_error_does_not_depend_on_the_hash_seed(tmp_path):
    # several required keys are missing; the error names the first in the
    # scenario's key table order, whatever order a set would iterate in
    config = tmp_path / "dyn.json"
    cfg = {"version": 1, "scenario": "dynamics-trace", "base_seed": 0, "output_dir": "out", "layout": [2, 2]}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    errors = set()
    for hash_seed in range(8):
        proc = run_process(["validate", str(config)], tmp_path, PYTHONHASHSEED=str(hash_seed))
        assert proc.returncode == 1
        errors.add(proc.stderr)
    assert errors == {json.dumps({"error": "config", "message": "missing required config key: structure_a"}) + "\n"}

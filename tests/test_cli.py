import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tpslab import TimeGrid, write_matrix_file
from tpslab.cli import main
from tpslab.config import MAX_TIME_STEPS

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


def test_failed_rename_leaves_no_temp_file(tmp_path, capsys):
    # the series is written, then the summary's rename onto a directory fails
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)
    assert main(["run", sweep_config(tmp_path, [2, 2]), "--output-dir", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "io"
    assert (out / "series.csv").is_file()
    assert list(out.glob("*.tmp*")) == []


def test_failed_summary_write_keeps_the_earlier_report_pair(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    config = tmp_path / "qcr.json"
    cfg = {"version": 1, "scenario": "qcr-demo", "base_seed": 1, "output_dir": "out", "layout": [2, 2], "trials": 2}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(config), "--output-dir", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in ("summary.json", "series.csv")}
    config.write_text(json.dumps({**cfg, "base_seed": 2}), encoding="utf-8")
    write_text = Path.write_text

    def failing_write_text(path, *args, **kwargs):
        if path.name.startswith("summary.json.tmp"):
            raise OSError(28, "No space left on device", str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    assert main(["run", str(config), "--output-dir", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "io"
    assert {name: (out / name).read_bytes() for name in before} == before
    assert list(out.glob("*.tmp*")) == []


def test_out_of_memory_is_exit_3(tmp_path, capsys, monkeypatch):
    # 10**15 + 1 grid times in float64 need 7.1 PiB, more than any process
    # address space holds, so the allocation is refused at once.  The config
    # rejects that many steps, so the grid's times() asks for them instead.
    monkeypatch.setattr(TimeGrid, "times", lambda grid: np.linspace(grid.t0, grid.t1, 10**15 + 1))
    assert run_cli(tmp_path, "1.5") == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "memory"
    assert "PiB" in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("structure_a", {"unitary_file": "locked.tpsw"}, "structure_a.unitary_file"),
        ("hamiltonian", {"file": "locked.tpsw"}, "hamiltonian.file"),
        ("projection_a", {"kind": "type_i", "rho_ref": {"file": "locked.tpsw"}}, "projection_a.rho_ref.file"),
    ],
)
def test_unreadable_matrix_file_is_a_config_error(tmp_path, capsys, monkeypatch, key, value, named):
    # the file exists, so the refusal comes from reading it, as for a file
    # without read permission or one whose read fails with EIO
    locked = tmp_path / "locked.tpsw"
    write_matrix_file(locked, np.eye(2 if key == "projection_a" else 4), split_dim=2)
    read_bytes = Path.read_bytes

    def refuse(path):
        if path.name == locked.name:
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    config = tmp_path / "dyn.json"
    cfg = {**json.loads(DYNAMICS_CONFIG % "1.5"), key: value}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config"
    assert error["message"].startswith(f"{named}: cannot read {locked}: ")
    assert "Permission denied" in error["message"]
    assert not (tmp_path / "out").exists()


def validate_error(config, capsys) -> str:
    """The message of the one config error line that ``validate`` prints."""
    assert main(["validate", str(config)]) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config"
    return error["message"]


HUGE_INT = "1" + "0" * 400  # a JSON integer that float() cannot hold


@pytest.mark.parametrize(
    "text, named",
    [
        (DYNAMICS_CONFIG % HUGE_INT, "time_grid.t1"),
        (
            '{"version": 1, "scenario": "teleport-check", "base_seed": 0, "output_dir": "out",'
            f' "input_qubit": [[{HUGE_INT}, 0], [0, 0]]}}',
            "input_qubit[0][0]",
        ),
    ],
    ids=["time_grid", "input_qubit"],
)
def test_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys, text, named):
    config = tmp_path / "huge.json"
    config.write_text(text, encoding="utf-8")
    assert validate_error(config, capsys) == f"{named}: integer too large for a float"


@pytest.mark.parametrize("steps", [HUGE_INT, "1000000000000000"], ids=["10**400", "10**15"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_too_many_time_steps_is_a_config_error(tmp_path, capsys, command, steps):
    config = tmp_path / "dyn.json"
    config.write_text((DYNAMICS_CONFIG % "1.5").replace('"steps": 2', f'"steps": {steps}'), encoding="utf-8")
    argv = [command, str(config)] + (["--output-dir", str(tmp_path / "out")] if command == "run" else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "config"
    assert error["message"] == f"time_grid.steps: must be <= {MAX_TIME_STEPS}, got {steps}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("structure_a", {"grouping": [0, 0]}),
        ("structure_a", {"grouping": [0, 1]}),
        ("projection_a", {"kind": "type_i", "rho_ref": {"file": "bad.tpsw"}}),
        ("hamiltonian", {"file": "bad.tpsw"}),
        ("time_grid", {"t0": 1.0, "t1": 1.0, "steps": 2}),
    ],
    ids=["duplicate-grouping", "full-grouping", "rho-ref-not-a-state", "non-hermitian-hamiltonian", "empty-span"],
)
def test_library_check_is_one_config_error_naming_the_key(tmp_path, capsys, key, value):
    # each input passes the config's own checks and is rejected by the
    # constructor of the library object it describes
    if key == "projection_a":  # Hermitian with unit trace, but not positive
        write_matrix_file(tmp_path / "bad.tpsw", np.diag([2.0, -1.0]))
    elif key == "hamiltonian":
        write_matrix_file(tmp_path / "bad.tpsw", np.triu(np.ones((4, 4))))
    config = tmp_path / "dyn.json"
    config.write_text(json.dumps({**json.loads(DYNAMICS_CONFIG % "1.5"), key: value}), encoding="utf-8")
    message = validate_error(config, capsys)
    # the key once: a library check that names the object itself must not
    # repeat the config's prefix
    assert message.startswith(f"{key}: ") and message.count(f"{key}:") == 1, message


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


def run_python(args, cwd, **env_vars):
    """``python`` with ``args`` in a new process that imports the package from
    ``src``.  ``env_vars`` are added to its environment."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def run_process(args, cwd, **env_vars):
    """``python -m tpslab.cli`` in a new process, importing the package from
    ``src``: the module's ``__main__`` guard calls ``entry()``.  ``env_vars``
    are added to its environment."""
    return run_python(["-m", "tpslab.cli", *args], cwd, **env_vars)


def test_process_entry_runs_a_golden_config(tmp_path):
    out = tmp_path / "out"
    proc = run_process(["run", str(GOLDEN / "dynamics-unitary" / "config.json"), "--output-dir", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [f"summary: {out / 'summary.json'}", f"series: {out / 'series.csv'}"]
    assert (out / "series.csv").is_file()


# Reads the peak RSS of one CLI run in KiB, the unit of ru_maxrss on Linux,
# against the interpreter with tpslab imported and numpy.random drawn from.
PEAK_RSS_SCRIPT = """
import json, resource, sys
import numpy as np
from tpslab.cli import main
np.random.default_rng(0).random()
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = main(["run", sys.argv[1], "--output-dir", sys.argv[2]])
print(json.dumps([code, base, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux only")
def test_dynamics_run_at_d1024_peaks_within_3_h(tmp_path):
    # H takes 16 MiB; the propagation proof factors in one work buffer, and
    # a proof that formed and copied edge I - sign H per bound peaked at 4.6 H
    cfg = {
        "version": 1,
        "scenario": "dynamics-trace",
        "base_seed": 0,
        "output_dir": "out",
        "layout": [2] * 10,
        "structure_a": {"grouping": [0]},
        "structure_b": {"grouping": [0, 1, 2, 3]},
        "hamiltonian": {"gue_seed": 7},
        "initial_state": {"kind": "random_pure", "seed": 8},
        "time_grid": {"t0": 0.0, "t1": 0.2, "steps": 4},
    }
    config = tmp_path / "d1024.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    proc = run_python(["-c", PEAK_RSS_SCRIPT, str(config), str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, base, peak = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert (peak - base) * 1024 <= 3 * 1024**2 * 16


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



def _overflow_inputs():
    h = np.zeros((8, 8))
    h[0, 1], h[1, 0] = 1.7e308, -1.7e308
    off_diagonal = np.diag([0.25] * 4).astype(complex)
    off_diagonal[0, 1] = off_diagonal[1, 0] = complex(1.7e308, 1.7e308)
    hermitian = np.diag([0.25] * 4)
    hermitian[0, 1] = hermitian[1, 0] = 1.7e308
    return {
        "unitary-1e200": (
            "structure_a", {"unitary_file": "m.tpsw"}, 1e200 * np.eye(8), 2,
            "structure_a: structure unitary is not unitary: defect = ",
        ),
        "hamiltonian-1.7e308": (
            "hamiltonian", {"file": "m.tpsw"}, h, 0, "hamiltonian: H: not Hermitian: relative defect = "
        ),
        "rho-ref-trace-overflow": (
            "projection_a", {"kind": "type_i", "rho_ref": {"file": "m.tpsw"}}, 1.7e308 * np.eye(4), 0,
            "projection_a: type_i rho_ref: trace is not 1: |tr - 1| = inf",
        ),
        "rho-ref-scale-overflow": (
            "projection_a", {"kind": "type_i", "rho_ref": {"file": "m.tpsw"}}, off_diagonal, 0,
            "projection_a: type_i rho_ref: not Hermitian: relative defect = ",
        ),
        # exactly Hermitian, so only the spectrum rejects it: (m + m^H) / 2
        # would overflow, m / 2 + m^H / 2 does not
        "rho-ref-hermitian-part-overflow": (
            "projection_a", {"kind": "type_i", "rho_ref": {"file": "m.tpsw"}}, hermitian, 0,
            "projection_a: type_i rho_ref: not positive semidefinite: -min eigenvalue = 1.700e+308",
        ),
    }


# Each input overflows the measurement of one tolerance check, the defect or
# trace it takes is inf or NaN, and the check rejects it; or it is exactly
# Hermitian, and its spectrum, taken without overflow, fails its check.
OVERFLOW_INPUTS = _overflow_inputs()


def overflow_config(tmp_path, case: str) -> tuple[Path, str]:
    """A dynamics-trace config with one overflowing matrix file input, and
    the start of the config error that names the broken rule."""
    key, value, m, split_dim, message = OVERFLOW_INPUTS[case]
    write_matrix_file(tmp_path / "m.tpsw", m, split_dim=split_dim)
    cfg = {
        "version": 1,
        "scenario": "dynamics-trace",
        "base_seed": 0,
        "output_dir": "out",
        "layout": [2, 2, 2],
        "structure_a": {"grouping": [0]},
        "structure_b": {"grouping": [0, 1]},
        "hamiltonian": {"gue_seed": 3},
        "initial_state": {"kind": "random_pure", "seed": 3},
        "time_grid": {"t0": 0.0, "t1": 1.0, "steps": 2},
        key: value,
    }
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    return config, message


def assert_one_config_error(code: int, out: str, err: str, message: str) -> None:
    assert code == 1, err
    lines = err.splitlines()
    assert out == "" and len(lines) == 1, err
    error = json.loads(lines[0])
    assert error["error"] == "config"
    assert error["message"].startswith(message) and error["message"].endswith(", not within 1e-10"), error


@pytest.mark.parametrize("case", sorted(OVERFLOW_INPUTS))
def test_an_overflowing_check_fails_closed(tmp_path, capsys, case):
    # a RuntimeWarning from the check would fail this test, and a NaN that
    # passed it would fail later with another error or none
    config, message = overflow_config(tmp_path, case)
    code = main(["run", str(config), "--output-dir", str(tmp_path / "out")])
    assert_one_config_error(code, *capsys.readouterr(), message)
    assert not (tmp_path / "out").exists()


def test_process_entry_rejects_an_overflowing_unitary_with_one_json_line(tmp_path):
    config, message = overflow_config(tmp_path, "unitary-1e200")
    proc = run_process(["run", str(config), "--output-dir", str(tmp_path / "out")], tmp_path)
    assert_one_config_error(proc.returncode, proc.stdout, proc.stderr, message)
    assert not (tmp_path / "out").exists()

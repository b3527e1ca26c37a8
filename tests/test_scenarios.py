"""Sweep trials in worker processes against the same trials in-process."""

import functools
import json
import multiprocessing
import os
from types import SimpleNamespace

import pytest

from tpslab import InvariantViolation, relativity, scenarios
from tpslab.cli import main

MAP_TRIALS = scenarios._map_trials
BLAS = scenarios._openblas_thread_api()

needs_pool = pytest.mark.skipif(
    BLAS is None or "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker processes need the fork start method and numpy's bundled OpenBLAS",
)

SWEEPS = ("lemma1-sweep", "lemma2-sweep", "qcr-demo")


def use_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(scenarios, "_map_trials", functools.partial(MAP_TRIALS, workers=workers))


def run_sweep(tmp_path, scenario: str, name: str) -> int:
    config = tmp_path / f"{scenario}.json"
    cfg = {
        "version": 1,
        "scenario": scenario,
        "base_seed": 17,
        "output_dir": "out",
        "layout": [2, 2, 2, 2],
        "structure_a": {"grouping": [0, 1]},
        "trials": 9,
    }
    config.write_text(json.dumps(cfg), encoding="utf-8")
    return main(["run", str(config), "--output-dir", str(tmp_path / name)])


def blas_threads_trial(cfg, trial):
    return [trial, os.getpid(), BLAS[0]()]


def failing_trial(cfg, trial):
    if trial == 5:
        raise cfg.error("trial 5 failed")
    return [trial]


@needs_pool
@pytest.mark.parametrize("scenario", SWEEPS)
def test_pooled_report_equals_in_process_report(tmp_path, monkeypatch, capsys, scenario):
    use_workers(monkeypatch, 1)
    assert run_sweep(tmp_path, scenario, "serial") == 0
    use_workers(monkeypatch, 3)
    assert run_sweep(tmp_path, scenario, "pooled") == 0
    assert capsys.readouterr().err == ""
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert (pooled / "series.csv").read_bytes() == (serial / "series.csv").read_bytes()
    results = [json.loads((d / "summary.json").read_text())["results"] for d in (serial, pooled)]
    assert results[0] == results[1]


@needs_pool
def test_invariant_violation_in_a_worker_exits_2(tmp_path, monkeypatch, capsys):
    # fork hands the lowered tolerance to the workers
    monkeypatch.setattr(relativity, "TRACE_RESIDUAL_TOL", -1.0)
    use_workers(monkeypatch, 2)
    assert run_sweep(tmp_path, "lemma1-sweep", "out") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "invariant"
    assert "trace residual" in error["message"]
    assert not (tmp_path / "out").exists()


@needs_pool
@pytest.mark.parametrize("error", [InvariantViolation, ValueError])
def test_worker_exception_keeps_type_and_message(error):
    with pytest.raises(error, match="^trial 5 failed$"):
        MAP_TRIALS(failing_trial, SimpleNamespace(trials=8, error=error), workers=2)


@needs_pool
@pytest.mark.parametrize("workers", [1, 2])
def test_trials_run_at_one_blas_thread_in_trial_order(workers):
    before = BLAS[0]()
    BLAS[1](2)
    try:
        rows = MAP_TRIALS(blas_threads_trial, SimpleNamespace(trials=8), workers=workers)
        assert BLAS[0]() == 2
    finally:
        BLAS[1](before)
    assert [r[0] for r in rows] == list(range(8))
    assert all(r[2] == 1 for r in rows)
    pids = {r[1] for r in rows}
    assert (os.getpid() in pids) == (workers == 1)

"""Sweep trials in worker processes against the same trials in-process, and
the sweeps' trial paths against the public dense route."""

import dataclasses
import functools
import json
import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpslab import (
    FactorLayout,
    InvariantViolation,
    RandomStream,
    commutator_defect,
    cross_relevance_matrix,
    from_structure_basis,
    load_config,
    mix_seed,
    mutual_information,
    relativity,
    scenarios,
    structure_from_grouping,
    structure_from_unitary,
    write_matrix_file,
)
from tpslab.cli import main
from oracles import idempotency_defect, kron

MAP_TRIALS = scenarios._map_trials
BLAS = scenarios._openblas_thread_api()

needs_pool = pytest.mark.skipif(
    BLAS is None or "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker processes need the fork start method and numpy's bundled OpenBLAS",
)

SWEEPS = ("lemma1-sweep", "lemma2-sweep", "qcr-demo")


def use_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(scenarios, "_map_trials", functools.partial(MAP_TRIALS, workers=workers))


def run_sweep(tmp_path, scenario: str, name: str, trials: int = 9) -> int:
    config = tmp_path / f"{scenario}.json"
    cfg = {
        "version": 1,
        "scenario": scenario,
        "base_seed": 17,
        "output_dir": "out",
        "layout": [2, 2, 2, 2],
        "structure_a": {"grouping": [0, 1]},
        "trials": trials,
    }
    config.write_text(json.dumps(cfg), encoding="utf-8")
    return main(["run", str(config), "--output-dir", str(tmp_path / name)])


GINIBRE_ENSEMBLE = RandomStream.ginibre_ensemble
PROJECT_IN_BASIS = scenarios._project_in_basis


def skewed_ensemble(self, dim, rank):
    """A Ginibre ensemble whose vectors are 0.1% too long."""
    weights, vectors = GINIBRE_ENSEMBLE(self, dim, rank)
    return weights, vectors * 1.001


def non_idempotent_projection(m, s, spec):
    """The projection kernel with its output scaled by 1 + 1e-7."""
    return PROJECT_IN_BASIS(m, s, spec) * (1 + 1e-7)


def blas_threads_trial(cfg, trial):
    return [trial, os.getpid(), BLAS[0]()]


def failing_trial(cfg, trial):
    if trial == 5:
        raise cfg.error("trial 5 failed")
    return [trial]


def os_threads_trial(cfg, trial):
    return [trial, os.getpid(), len(os.listdir("/proc/self/task"))]


def pid_lemma1_trial(cfg, trial):
    return [os.getpid(), *scenarios._lemma1_trial(cfg, trial)]


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


@pytest.mark.parametrize("scenario", SWEEPS)
def test_grouping_and_its_unitary_file_give_identical_reports(tmp_path, capsys, scenario):
    # the gathers of a grouping and the dense products of its permutation
    # matrix agree bit for bit
    layout = FactorLayout((2, 3, 2, 2))
    s = structure_from_grouping(layout, (1, 3))
    write_matrix_file(tmp_path / "w.tpsw", s.w, split_dim=s.dim_s)
    reports = []
    for name, structure_a in (("grouping", {"grouping": [1, 3]}), ("unitary", {"unitary_file": "w.tpsw"})):
        config = tmp_path / f"{name}.json"
        cfg = {"version": 1, "scenario": scenario, "base_seed": 29, "output_dir": "out",
               "layout": list(layout.dims), "structure_a": structure_a, "trials": 6}
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / name
        assert main(["run", str(config), "--output-dir", str(out)]) == 0
        results = json.loads((out / "summary.json").read_text(encoding="utf-8"))["results"]
        reports.append(((out / "series.csv").read_bytes(), json.dumps(results)))
    assert capsys.readouterr().err == ""
    assert reports[0] == reports[1]


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


@pytest.fixture
def two_blas_threads():
    """This process at 2 OpenBLAS threads during the test."""
    before = BLAS[0]()
    BLAS[1](2)
    yield
    BLAS[1](before)


@needs_pool
@pytest.mark.parametrize("workers", [1, 2])
def test_trials_run_at_one_blas_thread_in_trial_order(workers, two_blas_threads):
    rows = MAP_TRIALS(blas_threads_trial, SimpleNamespace(trials=8), workers=workers)
    assert BLAS[0]() == 2
    assert [r[0] for r in rows] == list(range(8))
    assert all(r[2] == 1 for r in rows)
    pids = {r[1] for r in rows}
    assert (os.getpid() in pids) == (workers == 1)


@needs_pool
@pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "worker"])
def test_blas_thread_count_is_restored_when_a_trial_raises(workers, two_blas_threads):
    with pytest.raises(ValueError, match="^trial 5 failed$"):
        MAP_TRIALS(failing_trial, SimpleNamespace(trials=8, error=ValueError), workers=workers)
    assert BLAS[0]() == 2


@needs_pool
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_workers_run_one_os_thread(two_blas_threads):
    # A worker that set its own BLAS thread count would restart OpenBLAS's
    # thread pool, whose thread spin-waits against the workers.
    rows = MAP_TRIALS(os_threads_trial, SimpleNamespace(trials=8), workers=2)
    assert os.getpid() not in {r[1] for r in rows}
    assert [r[2] for r in rows] == [1] * 8


@needs_pool
def test_trials_run_in_this_process_without_openblas(oracle_configs, monkeypatch):
    cfg = dataclasses.replace(oracle_configs["2222", "grouping"][0], trials=9)
    pooled = MAP_TRIALS(pid_lemma1_trial, cfg, workers=2)
    monkeypatch.setattr(scenarios, "_openblas_thread_api", lambda: None)
    rows = MAP_TRIALS(pid_lemma1_trial, cfg, workers=2)
    assert [r[1] for r in rows] == list(range(9))
    assert {r[0] for r in rows} == {os.getpid()}
    assert [r[1:] for r in rows] == [r[1:] for r in pooled]


@needs_pool
@pytest.mark.parametrize("trials", [1, 7, 13, 35])
def test_pooled_rows_equal_in_process_rows(oracle_configs, trials):
    # one trial runs in this process; 13 trials at 4 chunks per worker and 35
    # at 8 leave a short last chunk
    cfg = dataclasses.replace(oracle_configs["2222", "grouping"][0], trials=trials)
    pooled = MAP_TRIALS(pid_lemma1_trial, cfg, workers=2)
    rows = MAP_TRIALS(pid_lemma1_trial, cfg, workers=1)
    assert [r[1:] for r in pooled] == [r[1:] for r in rows]
    assert [r[1] for r in pooled] == list(range(trials))
    assert (os.getpid() in {r[0] for r in pooled}) == (trials == 1)


@pytest.mark.parametrize("scenario", ["lemma1-sweep", "lemma2-sweep"])
def test_a_lemma_sweep_checks_its_fixed_pair_once(tmp_path, monkeypatch, capsys, scenario):
    calls = []
    check = scenarios.check_compatible
    monkeypatch.setattr(scenarios, "check_compatible", lambda s, spec: calls.append(s) or check(s, spec))
    use_workers(monkeypatch, 1)
    assert run_sweep(tmp_path, scenario, "out", trials=6) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 1


@pytest.mark.parametrize(
    "workers", [1, pytest.param(2, marks=needs_pool)], ids=["in-process", "worker"]
)
@pytest.mark.parametrize("scenario", ["lemma1-sweep", "lemma2-sweep"])
def test_failed_run_time_validation_exits_2(tmp_path, monkeypatch, capsys, scenario, workers):
    # fork hands the patched sampler to the workers
    monkeypatch.setattr(RandomStream, "ginibre_ensemble", skewed_ensemble)
    use_workers(monkeypatch, workers)
    assert run_sweep(tmp_path, scenario, "out") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "invariant"
    assert "not orthonormal" in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "workers", [1, pytest.param(2, marks=needs_pool)], ids=["in-process", "worker"]
)
def test_non_idempotent_projection_fails_the_same_spec_control(tmp_path, monkeypatch, capsys, workers):
    # fork hands the patched kernel to the workers
    monkeypatch.setattr(scenarios, "_project_in_basis", non_idempotent_projection)
    use_workers(monkeypatch, workers)
    assert run_sweep(tmp_path, "lemma2-sweep", "out") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "invariant"
    assert "idempotency residual" in error["message"]
    assert not (tmp_path / "out").exists()


# (layout, system factors of the grouping A): a square and a non-square split
ORACLE_LAYOUTS = {"2222": ([2, 2, 2, 2], [0, 1]), "232": ([2, 3, 2], [0, 2])}
# structure A as a grouping, a permutation file and a Haar file (both stored
# dense)
ORACLE_CASES = [(layout, kind) for layout in ORACLE_LAYOUTS for kind in ("grouping", "permutation", "haar")]


@pytest.fixture(scope="module")
def oracle_configs(tmp_path_factory):
    """``(layout, kind) -> (lemma1 config, lemma2 config, qcr config)``,
    loaded from files."""
    directory = tmp_path_factory.mktemp("oracle")
    configs = {}
    for layout, kind in ORACLE_CASES:
        dims, selected = ORACLE_LAYOUTS[layout]
        dim, dim_s = int(np.prod(dims)), int(np.prod([dims[i] for i in selected]))
        if kind == "grouping":
            structure_a = {"grouping": selected}
        else:
            path = directory / f"{layout}-{kind}.tpsw"
            stream = RandomStream(dim)
            if kind == "permutation":
                w = np.eye(dim, dtype=np.complex128)[:, np.argsort(stream.uniform_pairs(dim)[:, 0])]
            else:
                w = stream.haar_unitary(dim)
            write_matrix_file(path, w, split_dim=dim_s)
            structure_a = {"unitary_file": path.name}
        pair = []
        for scenario in SWEEPS:
            config = directory / f"{layout}-{kind}-{scenario}.json"
            cfg = {"version": 1, "scenario": scenario, "base_seed": 0, "output_dir": "out",
                   "layout": dims, "structure_a": structure_a, "trials": 1}
            config.write_text(json.dumps(cfg), encoding="utf-8")
            pair.append(load_config(config))
        assert (pair[0].structure_a.basis.ndim == 2) == (kind != "grouping")
        assert (pair[0].structure_a.grouping is None) == (kind != "grouping")
        configs[layout, kind] = tuple(pair)
    return configs


def public_route_rows(cfg, trial: int) -> tuple[list, list]:
    """The lemma1 and lemma2 rows of one trial from the public functions, on
    the dense state rho = Psi diag(p) Psi^H in reference coordinates."""
    s_a, spec = cfg.structure_a, cfg.projection_a
    dim = s_a.total_dim
    stream = RandomStream(mix_seed(cfg.base_seed, trial))
    if trial % 2 == 0:
        kind, weights, vectors = "pure", np.ones(1), stream.haar_pure(dim)[:, None]
    else:
        kind, (weights, vectors) = "mixed", stream.ginibre_ensemble(dim, 2)
    s_b = structure_from_unitary(stream.haar_unitary(dim), s_a.dim_s, s_a.dim_e)
    rho = (vectors * weights) @ vectors.conj().T
    reports = [
        cross_relevance_matrix(rho, s_a, spec, s_b),
        cross_relevance_matrix(rho, s_b, spec, s_a),
        cross_relevance_matrix(rho, s_a, spec, s_a),
    ]
    lemma1 = [trial, kind, *(r.trace_norm_defect for r in reports), max(r.trace_residual for r in reports)]
    lemma2 = [
        trial,
        kind,
        commutator_defect(rho, s_a, spec, s_b, spec),
        idempotency_defect(rho, s_a, spec),
    ]
    return lemma1, lemma2


def assert_rows_close(got: list, want: list) -> None:
    assert got[:2] == want[:2]
    for g, w in zip(got[2:], want[2:]):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (got, want)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(ORACLE_CASES),
    base_seed=st.integers(0, 2**64 - 1),
    pair=st.integers(0, 10**6),
)
def test_lemma_rows_equal_the_public_dense_route(oracle_configs, case, base_seed, pair):
    lemma1_cfg, lemma2_cfg, _ = (dataclasses.replace(c, base_seed=base_seed) for c in oracle_configs[case])
    for trial in (2 * pair, 2 * pair + 1):  # one pure and one mixed state
        want1, want2 = public_route_rows(lemma1_cfg, trial)
        assert_rows_close(scenarios._lemma1_trial(lemma1_cfg, trial), want1)
        assert_rows_close(scenarios._lemma2_trial(lemma2_cfg, trial), want2)


def public_qcr_row(cfg, trial: int) -> list:
    """The qcr row of one trial from :func:`mutual_information`, on the dense
    product state rho_s (x) rho_e of structure A in reference coordinates."""
    s_a = cfg.structure_a
    stream = RandomStream(mix_seed(cfg.base_seed, trial))
    rho_s = stream.ginibre_density(s_a.dim_s, s_a.dim_s)
    rho_e = stream.ginibre_density(s_a.dim_e, s_a.dim_e)
    s_b = structure_from_unitary(stream.haar_unitary(s_a.total_dim), s_a.dim_s, s_a.dim_e)
    rho = from_structure_basis(kron(rho_s, rho_e), s_a)
    return [trial, mutual_information(rho, s_a), mutual_information(rho, s_b)]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(ORACLE_CASES),
    base_seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 10**6),
)
def test_qcr_rows_equal_the_public_dense_route(oracle_configs, case, base_seed, trial):
    cfg = dataclasses.replace(oracle_configs[case][2], base_seed=base_seed)
    got, want = scenarios._qcr_trial(cfg, trial), public_qcr_row(cfg, trial)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (got, want)

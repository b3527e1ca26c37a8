"""Scenario runner: executes named experiments and writes reports.

A report is a ``summary.json`` (config echo plus aggregate statistics) and a
``series.csv`` (per-trial or per-time rows).  Every float serializes with 17
significant digits so values round-trip exactly; identical config and seed
give byte-identical CSV on one platform.  Files are written to a temp path
and atomically renamed.

The trials of ``lemma1-sweep``, ``lemma2-sweep`` and ``qcr-demo`` run in
forked worker processes, one per available CPU; the rows are merged in
trial order.  This process drops to one OpenBLAS thread before it forks
and restores its count after the trials, so each worker inherits one
thread.  A worker that set the count itself would restart the thread pool
OpenBLAS shuts down at fork, and that pool's thread spin-waits against the
workers before it sleeps.  Each trial seeds its own stream and runs at one
BLAS thread, in a worker or in this process, so the report bytes do not
depend on the worker count (without numpy's bundled OpenBLAS, trials run
in this process at its BLAS thread count).  ``teleport-check`` and
``dynamics-trace`` run in this process.

A ``lemma1-sweep`` or ``lemma2-sweep`` trial validates its inputs once: the
state, drawn as its eigen-ensemble, with ``check_ensemble``; the alternate
structure with its unitarity check; both structure/spec pairs with
``check_compatible``.  It then works in structure A's product basis with
the trusted kernels ``relativity._lemma1_in_basis`` and
``_lemma2_in_basis``, which ``trajectory`` runs too, passing A's spec for
both structures: B's basis enters as the transition matrix from B to A.
The trial adds the same-structure defect (``lemma1-sweep``) and the
idempotency residual ||P_A(P_A rho) - P_A rho||_1 (``lemma2-sweep``);
every defect and the residual keep their trace-residual checks.  The public
functions (``cross_relevance_matrix``, ``commutator_defect``,
``idempotency_defect``) give the same rows to roundoff and serve as the
tests' oracle.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .dynamics import GENERATOR_NAME, RandomStream, _ensemble_density, mix_seed, trajectory
from .linalg import (
    InvariantViolation,
    _checked_spectrum,
    _spectral_entropy,
    check_ensemble,
    kron,
    maximally_mixed,
    purity,
    trace_norm,
)
from .projections import (
    TypeIProjection,
    _project_in_basis,
    check_compatible,
    project,
    relevance_defect,
)
from .relativity import (
    TRACE_RESIDUAL_TOL,
    _checked_report,
    _lemma1_in_basis,
    _lemma2_in_basis,
    _split_entropies,
    bell_pair,
    commutator_defect,
    teleport_state,
)
from .structures import (
    Structure,
    _reduce,
    from_structure_basis,
    reduced_state,
    structure_from_grouping,
    structure_from_unitary,
    to_structure_basis,
    transition_matrix,
    vector_to_structure_basis,
)

DEFECT_THRESHOLD = 1e-6


@dataclass(frozen=True)
class ReportPaths:
    summary: Path
    series: Path


def fmt_float(x) -> str:
    """17 significant digits: enough for exact float64 round-trips."""
    return format(float(x), ".17g")


def _dump(obj, indent: int) -> str:
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{child}{json.dumps(str(k))}: {_dump(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = ",\n".join(f"{child}{_dump(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dump_json(obj) -> str:
    """Serialize a report object; floats carry 17 significant digits."""
    return _dump(obj, 0)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_report(output_dir: Path, summary: dict, header: list[str], rows: list[list]) -> ReportPaths:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else fmt_float(c) if isinstance(c, (float, np.floating)) else str(int(c)) for c in row])
    paths = ReportPaths(summary=output_dir / "summary.json", series=output_dir / "series.csv")
    _atomic_write(paths.series, buf.getvalue())
    _atomic_write(paths.summary, dump_json(summary) + "\n")
    return paths


def run_scenario(cfg: ScenarioConfig) -> ReportPaths:
    """Execute a validated config and write its report files."""
    runner = {
        "teleport-check": _teleport_check,
        "lemma1-sweep": _lemma1_sweep,
        "lemma2-sweep": _lemma2_sweep,
        "qcr-demo": _qcr_demo,
        "dynamics-trace": _dynamics_trace,
    }[cfg.scenario]
    results, header, rows = runner(cfg)
    summary = {
        "scenario": cfg.scenario,
        "generator": GENERATOR_NAME,
        "base_seed": cfg.base_seed,
        "config": cfg.echo,
        "results": results,
    }
    return write_report(cfg.output_dir, summary, header, rows)


def _fraction_above_threshold(values) -> float:
    return sum(v > DEFECT_THRESHOLD for v in values) / len(values)


def _descending(values: np.ndarray) -> list[float]:
    return [float(v) for v in sorted(values, reverse=True)]


def _teleport_check(cfg: ScenarioConfig):
    s_a = structure_from_grouping(cfg.layout, (0,))
    s_b = structure_from_grouping(cfg.layout, (0, 1))
    phi = bell_pair()
    spec_a = TypeIProjection(np.outer(phi, phi.conj()))
    spec_b = TypeIProjection(maximally_mixed(2))

    header = [
        "trial",
        "purity_P_rho",
        "relevance_defect",
        "lemma2_defect",
        "rho12_ev1",
        "rho12_ev2",
        "rho12_ev3",
        "rho12_ev4",
        "rho1_ev1",
        "rho1_ev2",
    ]
    rows = []
    for trial in range(cfg.trials):
        u = cfg.input_qubit if trial == 0 else RandomStream(mix_seed(cfg.base_seed, trial)).haar_pure(2)
        psi = teleport_state(u)
        rho = np.outer(psi, psi.conj())
        p_rho = project(rho, s_a, spec_a)
        pur = purity(p_rho)
        fixed_point_defect = trace_norm(p_rho - rho, hermitian=True)
        if fixed_point_defect > 1e-10:
            raise InvariantViolation(
                f"teleport-check: projection onto the entangled-pair reference should leave"
                f" the state invariant (defect {fixed_point_defect:.3e})"
            )
        rel = relevance_defect(rho, s_a, spec_a)
        defect2 = commutator_defect(rho, s_a, spec_a, s_b, spec_b)
        if defect2 <= DEFECT_THRESHOLD:
            raise InvariantViolation(
                f"teleport-check: commutator defect {defect2:.3e} unexpectedly small"
            )
        ev12 = _descending(np.linalg.eigvalsh(reduced_state(rho, s_b, "S")))
        ev1 = _descending(np.linalg.eigvalsh(reduced_state(rho, s_a, "S")))
        rows.append([trial, pur, rel, defect2, *ev12, *ev1])

    results = {
        "purity_P_rho": rows[0][1],
        "purity_P_rho_min": min(r[1] for r in rows),
        "relevance_defect_max": max(r[2] for r in rows),
        "lemma2_defect": rows[0][3],
        "lemma2_defect_min": min(r[3] for r in rows),
        "rho12_eigenvalues": rows[0][4:8],
        "rho1_eigenvalues": rows[0][8:10],
    }
    return results, header, rows


# Each worker's trials are split into this many contiguous chunks, so that
# one slow chunk leaves the other workers idle for a short time only.
_CHUNKS_PER_WORKER = 4

# (trial_fn, cfg) inside a pool worker; set by the worker's initializer.
_worker_task = None


@functools.cache
def _openblas_thread_api():
    """``(get_num_threads, set_num_threads)`` of numpy's bundled OpenBLAS,
    through ctypes, or None when that library is not found.  Looked up once
    per process."""
    import ctypes

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def _init_worker(trial_fn, cfg) -> None:
    global _worker_task
    _worker_task = (trial_fn, cfg)


def _run_chunk(bounds: tuple[int, int]) -> list[list]:
    trial_fn, cfg = _worker_task
    return [trial_fn(cfg, trial) for trial in range(*bounds)]


def _map_trials(trial_fn, cfg: ScenarioConfig, workers: int | None = None) -> list[list]:
    """The rows ``trial_fn(cfg, trial)`` for every trial, in trial order.

    Trials run at one OpenBLAS thread each: in forked worker processes, one
    per available CPU and at most one per trial (``workers`` overrides the
    CPU count), or in this process when there are fewer than 2 workers or
    no ``fork`` start method.  This process drops to one OpenBLAS thread
    before it forks and restores its count afterwards, so the workers
    inherit one thread and never set the count themselves: OpenBLAS shuts
    its thread pool down at fork, and a worker that set the count would
    restart it, with a thread that spin-waits against the workers.  Every
    trial seeds its own stream, so the rows do not depend on the worker
    count.  When numpy's OpenBLAS is not found, the trials run in this
    process at its BLAS thread count.  An exception raised by a trial is
    raised here.
    """
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    trials = cfg.trials
    workers = min(workers, trials)
    blas = _openblas_thread_api()
    if blas is None:
        return [trial_fn(cfg, trial) for trial in range(trials)]
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        if workers >= 2:
            # imported here: at module level they would slow down `import tpslab`
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                chunks = min(trials, workers * _CHUNKS_PER_WORKER)
                bounds = [(trials * k // chunks, trials * (k + 1) // chunks) for k in range(chunks)]
                # fork hands trial_fn and cfg to the workers without pickling them
                pool = ProcessPoolExecutor(
                    workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_worker,
                    initargs=(trial_fn, cfg),
                )
                try:
                    return [row for chunk in pool.map(_run_chunk, bounds) for row in chunk]
                finally:
                    pool.shutdown(cancel_futures=True)
        return [trial_fn(cfg, trial) for trial in range(trials)]
    finally:
        set_threads(threads)


def _haar_structure(stream: RandomStream, s_a: Structure) -> Structure:
    """The trial's alternate split: a Haar unitary with ``s_a``'s factor dims."""
    return structure_from_unitary(stream.haar_unitary(s_a.total_dim), s_a.dim_s, s_a.dim_e)


def _lemma_trial_inputs(
    cfg: ScenarioConfig, trial: int
) -> tuple[str, np.ndarray, np.ndarray, np.ndarray, Structure]:
    """``(state_kind, rho_a, rho_b, v, s_b)`` of one lemma trial, validated
    here once: the trial's state in structure A's product basis (``rho_a``)
    and in the alternate split B's (``rho_b``), ``v`` = B's product basis in
    A's coordinates, and B itself.  Operators change from A's to B's basis
    as ``v^H x v`` and back as ``v x v^H``.

    The state is drawn as its eigen-ensemble (weights, vectors) and checked
    with :func:`check_ensemble`: positive weights summing to 1 and
    orthonormal vectors make ``Psi diag(p) Psi^H`` Hermitian, unit-trace and
    positive semidefinite, so no density-matrix check follows.  B has A's
    factor dims, so it takes A's spec, the maximally mixed reference; both
    structure/spec pairs are checked.
    """
    s_a = cfg.structure_a
    dim = s_a.total_dim
    stream = RandomStream(mix_seed(cfg.base_seed, trial))
    # Even trials: Haar pure; odd trials: rank-2 Ginibre mixed.
    if trial % 2 == 0:
        kind, (weights, vectors) = "pure", (np.ones(1), stream.haar_pure(dim)[:, None])
    else:
        kind, (weights, vectors) = "mixed", stream.ginibre_ensemble(dim, min(2, dim))
    weights, vectors = check_ensemble(weights, vectors, name="rho")
    s_b = _haar_structure(stream, s_a)
    check_compatible(s_a, cfg.projection_a)
    check_compatible(s_b, cfg.projection_a)
    v = transition_matrix(s_b, s_a)
    psi_a = vector_to_structure_basis(vectors, s_a)
    rho_a = _ensemble_density(weights, psi_a)
    rho_b = _ensemble_density(weights, v.conj().T @ psi_a)
    return kind, rho_a, rho_b, v, s_b


def _lemma1_trial(cfg: ScenarioConfig, trial: int) -> list:
    s_a, spec = cfg.structure_a, cfg.projection_a
    kind, rho_a, rho_b, v, s_b = _lemma_trial_inputs(cfg, trial)
    rep_ab, rep_ba, q_a = _lemma1_in_basis(rho_a, rho_b, v, s_a, spec, s_b, spec)
    rep_aa = _checked_report(_reduce(q_a, s_a, "S"), "lemma1-sweep A->A")
    return [
        trial,
        kind,
        rep_ab.trace_norm_defect,
        rep_ba.trace_norm_defect,
        rep_aa.trace_norm_defect,
        max(rep_ab.trace_residual, rep_ba.trace_residual, rep_aa.trace_residual),
    ]


def _lemma1_sweep(cfg: ScenarioConfig):
    header = [
        "trial",
        "state_kind",
        "defect_a_to_b",
        "defect_b_to_a",
        "defect_same_structure",
        "trace_residual_max",
    ]
    rows = _map_trials(_lemma1_trial, cfg)
    d_ab = [r[2] for r in rows]
    results = {
        "trials": cfg.trials,
        "threshold": DEFECT_THRESHOLD,
        "state_policy": "alternating Haar pure / Ginibre rank-2",
        "fraction_above_threshold": _fraction_above_threshold(d_ab),
        "fraction_above_threshold_b_to_a": _fraction_above_threshold([r[3] for r in rows]),
        "defect_a_to_b_mean": float(np.mean(d_ab)),
        "defect_a_to_b_min": min(d_ab),
        "defect_a_to_b_max": max(d_ab),
        "same_structure_defect_max": max(r[4] for r in rows),
        "trace_residual_max": max(r[5] for r in rows),
    }
    return results, header, rows


def _lemma2_trial(cfg: ScenarioConfig, trial: int) -> list:
    s_a, spec = cfg.structure_a, cfg.projection_a
    kind, rho_a, rho_b, v, s_b = _lemma_trial_inputs(cfg, trial)
    defect, p_a_rho = _lemma2_in_basis(rho_a, rho_b, v, s_a, spec, s_b, spec)
    # the same-spec control: P_A is idempotent, so P_A(P_A rho) - P_A rho
    # stays at roundoff
    control = trace_norm(_project_in_basis(p_a_rho, s_a, spec) - p_a_rho, hermitian=True)
    if control > TRACE_RESIDUAL_TOL:
        raise InvariantViolation(f"lemma2-sweep: idempotency residual {control:.3e} exceeds {TRACE_RESIDUAL_TOL:.0e}")
    return [trial, kind, defect, control]


def _lemma2_sweep(cfg: ScenarioConfig):
    header = ["trial", "state_kind", "commutator_defect", "same_spec_defect"]
    rows = _map_trials(_lemma2_trial, cfg)
    defects = [r[2] for r in rows]
    results = {
        "trials": cfg.trials,
        "threshold": DEFECT_THRESHOLD,
        "state_policy": "alternating Haar pure / Ginibre rank-2",
        "fraction_above_threshold": _fraction_above_threshold(defects),
        "commutator_defect_mean": float(np.mean(defects)),
        "commutator_defect_min": min(defects),
        "commutator_defect_max": max(defects),
        "same_spec_defect_max": max(r[3] for r in rows),
    }
    return results, header, rows


def _qcr_trial(cfg: ScenarioConfig, trial: int) -> list:
    s_a = cfg.structure_a
    stream = RandomStream(mix_seed(cfg.base_seed, trial))
    rho_s = stream.ginibre_density(s_a.dim_s, s_a.dim_s)
    rho_e = stream.ginibre_density(s_a.dim_e, s_a.dim_e)
    rho = from_structure_basis(kron(rho_s, rho_e), s_a)
    s_b = _haar_structure(stream, s_a)
    rho, spectrum = _checked_spectrum(rho)
    entropy = _spectral_entropy(spectrum)
    row: list = [trial]
    for s in (s_a, s_b):
        _, entropy_s, entropy_e = _split_entropies(to_structure_basis(rho, s), s)
        row.append(entropy_s + entropy_e - entropy)
    return row


def _qcr_demo(cfg: ScenarioConfig):
    header = ["trial", "mi_own_structure", "mi_alternate_structure"]
    rows = _map_trials(_qcr_trial, cfg)
    alt = [r[2] for r in rows]
    results = {
        "trials": cfg.trials,
        "threshold": DEFECT_THRESHOLD,
        "fraction_above_threshold": _fraction_above_threshold(alt),
        "mi_own_structure_max": max(r[1] for r in rows),
        "mi_alternate_mean": float(np.mean(alt)),
        "mi_alternate_min": min(alt),
        "mi_alternate_max": max(alt),
    }
    return results, header, rows


def _dynamics_trace(cfg: ScenarioConfig):
    points = trajectory(
        cfg.initial_state,
        cfg.hamiltonian,
        cfg.time_grid,
        cfg.structure_a,
        cfg.projection_a,
        cfg.structure_b,
        cfg.projection_b,
    )
    header = [
        "t",
        "lemma1_AtoB_tracenorm",
        "lemma1_BtoA_tracenorm",
        "lemma1_trace_residual_max",
        "lemma2_tracenorm",
        "mi_A",
        "mi_B",
        "purity_S",
        "purity_Sprime",
    ]
    rows = [astuple(p) for p in points]  # fields in header order
    d_ab = [p.lemma1_a_to_b for p in points]
    results = {
        "points": len(points),
        "threshold": DEFECT_THRESHOLD,
        "fraction_lemma1_above_threshold": _fraction_above_threshold(d_ab),
        "lemma1_a_to_b_max": max(d_ab),
        "lemma1_a_to_b_min": min(d_ab),
        "trace_residual_max": max(p.lemma1_trace_residual_max for p in points),
        "lemma2_max": max(p.lemma2_defect for p in points),
        "final_purity_S": points[-1].purity_s,
        "final_purity_Sprime": points[-1].purity_sprime,
    }
    return results, header, rows

"""Scenario runner: executes named experiments and writes reports.

A report is a ``summary.json`` (config echo plus aggregate statistics) and a
``series.csv`` (per-trial or per-time rows).  Every float serializes with 17
significant digits so values round-trip exactly; identical config and seed
give byte-identical CSV on one platform.  Both files are written to temp
paths before either is atomically renamed into place.

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

``teleport-check``'s two structures are groupings of one layout, so it runs
the closed forms of ``dynamics._GroupingPair``, as a grouping-pair
``dynamics-trace`` does: the Lemma 2 value, which does not depend on the
state and is checked once, before the trials, and both system reductions.
The projection and the same-structure reduction come from one
``_project_in_basis`` of the state in A's product basis.

A ``lemma1-sweep`` or ``lemma2-sweep`` checks its fixed structure/spec pair
with ``check_compatible`` once, before the trials.  A trial validates its
inputs once: the state, drawn as its eigen-ensemble, with
``check_ensemble``, and the alternate structure with its unitarity check;
that structure has A's factor dims, so A's spec fits it by construction.
The trial then works in structure A's product basis, on the
state's weighted vectors y_a (rho_A = y_a y_a^H), with the trusted kernels
of ``relativity._lemma_terms``, which ``trajectory`` runs too, passing A's
spec for both structures: B's basis enters as the transition matrix from B
to A.  The kernels form no d x d state; Lemma 1 takes no d x d x d product
and Lemma 2 takes one.  Both lemma sweeps add a control on the dense route,
the same-structure reduction Tr_E(rho_A - P_A rho_A): ``lemma1-sweep``
reports its trace norm, with the Lemma 1 reports' trace-residual check;
``lemma2-sweep`` reports the idempotency residual ||P_A(P_A rho) -
P_A rho||_1, which is that same trace norm, since P_A(P_A rho) - P_A rho =
(Tr_E(P_A rho) - Tr_E rho) (x) R_A for a type_i spec and ||R_A||_1 = 1.  A
``qcr-demo`` trial works in A's basis too, on rho_s (x) rho_e; it validates
the two factors, not their product, and takes S(rho) = S(rho_s) +
S(rho_e), with the entropy floor applied per factor.  So a sweep trial
takes at most one d x d eigensolve, that of Lemma 2's commutator.

No scenario runs the public dense route.  Its functions
(``cross_relevance_matrix``, ``commutator_defect``, ``mutual_information``,
``reduced_state``) and the tests' dense oracles give every scenario's rows
to roundoff and serve as the tests' second route.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .dynamics import GENERATOR_NAME, RandomStream, _GroupingPair, mix_seed, trajectory
from .linalg import (
    InvariantViolation,
    _checked_spectrum,
    _kron,
    _openblas,
    _require_within,
    _spectral_entropy,
    check_ensemble,
    maximally_mixed,
    purity,
    trace_norm,
)
from .projections import (
    TypeIProjection,
    _project_in_basis,
    check_compatible,
)
from .relativity import (
    TRACE_RESIDUAL_TOL,
    _checked_report,
    _lemma1_in_basis,
    _lemma2_in_basis,
    _lemma_terms,
    _split_mutual_information,
    bell_pair,
    teleport_state,
)
from .structures import (
    Structure,
    _kron_rows,
    _reduce,
    _traced_rows,
    structure_from_grouping,
    structure_from_unitary,
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


def write_report(output_dir: Path, summary: dict, header: list[str], rows: list[list]) -> ReportPaths:
    """Write both report files to temp paths beside them, then rename each
    into place, so a failed write leaves the earlier pair as it was.  On any
    failure the temps of this call are removed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else fmt_float(c) if isinstance(c, (float, np.floating)) else str(int(c)) for c in row])
    paths = ReportPaths(summary=output_dir / "summary.json", series=output_dir / "series.csv")
    files = ((paths.series, buf.getvalue()), (paths.summary, dump_json(summary) + "\n"))
    temps = [path.with_name(path.name + f".tmp{os.getpid()}") for path, _ in files]
    output_dir.mkdir(parents=True, exist_ok=True)
    try:
        for tmp, (_, text) in zip(temps, files):
            tmp.write_text(text, encoding="utf-8")
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise
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
    check_compatible(s_a, spec_a)
    check_compatible(s_b, spec_b)
    pair = _GroupingPair(s_a.grouping, spec_a.rho_ref, s_b.grouping, spec_b.rho_ref)
    if not pair.lemma2 > DEFECT_THRESHOLD:
        raise InvariantViolation(f"teleport-check: commutator defect {pair.lemma2:.3e} unexpectedly small")

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
        psi = teleport_state(u)[:, None]
        _, _, defect2, (_, red_s), (_, red_sp) = pair.defects(psi)
        y_a = vector_to_structure_basis(psi, s_a)
        rho_a = y_a @ y_a.conj().T
        p_rho = _project_in_basis(rho_a, s_a, spec_a)
        what = "teleport-check: projection onto the entangled-pair reference should leave the state invariant: defect"
        _require_within(trace_norm(p_rho - rho_a), 1e-10, InvariantViolation, what)
        rel = trace_norm(_reduce(rho_a - p_rho, s_a, "S"))
        ev12 = _descending(_checked_spectrum(red_sp, "reduced S' state")[1])
        ev1 = _descending(_checked_spectrum(red_s, "reduced S state")[1])
        rows.append([trial, purity(p_rho), rel, defect2, *ev12, *ev1])

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


# Contiguous chunks per worker, so one slow chunk idles the others briefly.
# Over the three sweeps-d64 configs at 2 workers on a 2-vCPU host, 8 beat 4
# in 59 of 90 alternating rounds (by paired medians of 20-35 ms in about
# 720 ms, on inputs 0, 3 and 5); 16 beat 4 in 51 of 90.
_CHUNKS_PER_WORKER = 8

# (trial_fn, cfg) inside a pool worker; set by the worker's initializer.
_worker_task = None


def _init_worker(trial_fn, cfg) -> None:
    global _worker_task
    _worker_task = (trial_fn, cfg)


def _run_trial(trial: int) -> list:
    trial_fn, cfg = _worker_task
    return trial_fn(cfg, trial)


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
    blas = _openblas()
    if blas is None:
        return [trial_fn(cfg, trial) for trial in range(trials)]
    get_threads, set_threads, _ = blas
    threads = get_threads()
    set_threads(1)
    try:
        if workers >= 2:
            # imported here: at module level they would slow down `import tpslab`
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                # fork hands trial_fn and cfg to the workers without pickling them
                pool = ProcessPoolExecutor(
                    workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_init_worker,
                    initargs=(trial_fn, cfg),
                )
                try:
                    chunksize = math.ceil(trials / (workers * _CHUNKS_PER_WORKER))
                    return list(pool.map(_run_trial, range(trials), chunksize=chunksize))
                finally:
                    pool.shutdown(cancel_futures=True)
        return [trial_fn(cfg, trial) for trial in range(trials)]
    finally:
        set_threads(threads)


def _haar_structure(stream: RandomStream, s_a: Structure) -> Structure:
    """The trial's alternate split: a Haar unitary with ``s_a``'s factor dims."""
    return structure_from_unitary(stream.haar_unitary(s_a.total_dim), s_a.dim_s, s_a.dim_e)


def _lemma_trial_inputs(cfg: ScenarioConfig, trial: int) -> tuple[str, np.ndarray, np.ndarray, Structure]:
    """``(state_kind, y_a, v, s_b)`` of one lemma trial, validated here
    once: the trial's state as its weighted vectors in structure A's product
    basis, rho_A = y_a y_a^H, ``v`` = B's product basis in A's coordinates,
    and the trial's alternate split B itself.

    The state is drawn as its eigen-ensemble (weights, vectors) and checked
    with :func:`check_ensemble`: positive weights summing to 1 and
    orthonormal vectors make ``y_a y_a^H`` Hermitian, unit-trace and
    positive semidefinite, so no density-matrix check follows.  B has A's
    factor dims, so it takes A's spec, the maximally mixed reference, with
    no check of its own: the sweep checks A's pair once, before the trials.
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
    y_a = vector_to_structure_basis(vectors, s_a) * np.sqrt(weights)
    return kind, y_a, transition_matrix(s_b, s_a), s_b


def _same_structure_reduction(y_a: np.ndarray, s_a: Structure, spec) -> np.ndarray:
    """Tr_E(rho_A - P_A rho_A) for rho_A = y_a y_a^H, on the dense route:
    A's Lemma 1 defect against itself, zero up to roundoff.  The control of
    both lemma sweeps."""
    rho_a = y_a @ y_a.conj().T
    return _reduce(rho_a - _project_in_basis(rho_a, s_a, spec), s_a, "S")


def _lemma1_trial(cfg: ScenarioConfig, trial: int) -> list:
    s_a, spec = cfg.structure_a, cfg.projection_a
    kind, y_a, v, s_b = _lemma_trial_inputs(cfg, trial)
    rep_ab, rep_ba = _lemma1_in_basis(*_lemma_terms(y_a, v, s_a, spec, s_b, spec)[1:])
    rep_aa = _checked_report(_same_structure_reduction(y_a, s_a, spec), "lemma1-sweep A->A")
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
    check_compatible(cfg.structure_a, cfg.projection_a)
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
    kind, y_a, v, s_b = _lemma_trial_inputs(cfg, trial)
    tau_a, tau_b = _lemma_terms(y_a, v, s_a, spec, s_b, spec)[3:]
    defect = _lemma2_in_basis(v, tau_a, tau_b, spec, s_b, spec)
    # the same-spec control: P_A is idempotent, so P_A(P_A rho) - P_A rho =
    # (Tr_E(P_A rho) - Tr_E rho) (x) R_A stays at roundoff, and its trace norm
    # is ||Tr_E(rho - P_A rho)||_1, since ||R_A||_1 = tr R_A = 1
    control = trace_norm(_same_structure_reduction(y_a, s_a, spec))
    _require_within(control, TRACE_RESIDUAL_TOL, InvariantViolation, "lemma2-sweep: idempotency residual")
    return [trial, kind, defect, control]


def _lemma2_sweep(cfg: ScenarioConfig):
    header = ["trial", "state_kind", "commutator_defect", "same_spec_defect"]
    check_compatible(cfg.structure_a, cfg.projection_a)
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
    """The mutual information of rho = rho_s (x) rho_e, a product state of
    structure A, in A and in the trial's alternate split B.  Both work in
    A's basis: B's reductions of v^H rho v come from (rho_s (x) rho_e) v,
    with ``v = transition_matrix(s_b, s_a)``.  spec(rho) = spec(rho_s)
    spec(rho_e), so S(rho) = S(rho_s) + S(rho_e)."""
    s_a = cfg.structure_a
    stream = RandomStream(mix_seed(cfg.base_seed, trial))
    rho_s, spectrum_s = _checked_spectrum(stream.ginibre_density(s_a.dim_s, s_a.dim_s), "rho_s")
    rho_e, spectrum_e = _checked_spectrum(stream.ginibre_density(s_a.dim_e, s_a.dim_e), "rho_e")
    s_b = _haar_structure(stream, s_a)
    entropy = _spectral_entropy(spectrum_s) + _spectral_entropy(spectrum_e)
    rho = _kron(rho_s, rho_e)
    v = transition_matrix(s_b, s_a)
    x = _kron_rows(rho_s, rho_e, v, s_a)
    red_b = [_traced_rows(v, s_b, which).conj().T @ _traced_rows(x, s_b, which) for which in ("S", "E")]
    mi_a = _split_mutual_information(_reduce(rho, s_a, "S"), _reduce(rho, s_a, "E"), entropy)
    return [trial, mi_a, _split_mutual_information(*red_b, entropy)]


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

"""Workload definitions and their seeded input files.

The program receives only the files written here.  A workload seed selects
one of ``VARIANTS`` input variants (``seed % VARIANTS``); each variant has a
stored reference report, so every timed run can be checked against the
reports this benchmark was defined with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VARIANTS = 8

DYN_LAYOUT = [2] * 8  # d = 256
DYN_STEPS = 7  # 8 time points
SWEEP_LAYOUT = [2] * 6  # d = 64
SWEEP_TRIALS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    total_dim: int
    configs: tuple[str, ...]  # config names, run in this order
    units: int  # time points or trials completed by one pass over the configs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dyn-grouped",
            "dynamics-trace at d=256, grouping splits: time goes to full-dimension re-validation, dense"
            " permutation basis changes and propagation; boundary validation and index maps target it",
            256,
            ("dynamics",),
            DYN_STEPS + 1,
        ),
        Workload(
            "sweeps-d64",
            "lemma1, lemma2, qcr sweeps at d=64: many small trials (Haar sampling, small eigvalsh, Python"
            " glue), no propagation; shows BLAS-thread and trial-parallel policy, index maps barely touch it",
            64,
            ("lemma1", "lemma2", "qcr"),
            3 * SWEEP_TRIALS,
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _seeds(variant: int) -> dict[str, int]:
    rng = np.random.default_rng([variant, 0x7495])
    keys = ("gue", "state", "sweep")
    return {k: int(v) for k, v in zip(keys, rng.integers(0, 2**63, size=len(keys)))}


def write_inputs(workload: str, variant: int, directory: Path) -> dict[str, Path]:
    """Write the workload's config files for one variant; returns config
    name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    seeds = _seeds(variant)
    configs: dict[str, dict] = {}
    if workload == "dyn-grouped":
        configs["dynamics"] = {
            "version": 1,
            "scenario": "dynamics-trace",
            "base_seed": 0,
            "output_dir": "out",
            "layout": DYN_LAYOUT,
            "structure_a": {"grouping": [0]},
            "structure_b": {"grouping": [0, 1, 2, 3]},
            "projection_a": {"kind": "type_i", "rho_ref": "maximally_mixed"},
            "projection_b": {"kind": "type_i", "rho_ref": "maximally_mixed"},
            "hamiltonian": {"gue_seed": seeds["gue"]},
            "initial_state": {"kind": "random_pure", "seed": seeds["state"]},
            "time_grid": {"t0": 0.0, "t1": 2.0, "steps": DYN_STEPS},
        }
    elif workload == "sweeps-d64":
        for name, scenario in (("lemma1", "lemma1-sweep"), ("lemma2", "lemma2-sweep"), ("qcr", "qcr-demo")):
            configs[name] = {
                "version": 1,
                "scenario": scenario,
                "base_seed": seeds["sweep"],
                "output_dir": "out",
                "layout": SWEEP_LAYOUT,
                "structure_a": {"grouping": [0, 1, 2]},
                "trials": SWEEP_TRIALS,
            }
    else:
        raise KeyError(f"unknown workload {workload!r}")
    paths = {}
    for name, cfg in configs.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return paths


def write_teleport_config(directory: Path) -> Path:
    """teleport-check on the default input |0>: the paper's analytic case."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "teleport.json"
    cfg = {"version": 1, "scenario": "teleport-check", "base_seed": 0, "output_dir": "out", "trials": 1}
    path.write_text(json.dumps(cfg) + "\n", encoding="utf-8")
    return path

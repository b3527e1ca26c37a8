"""The traced layers: which public functions get spans, and the per-layer
metric names built from them.

Names are ``<module>.<function>.<calls|self_s>``.  A function that some
workload never calls reports no function-level ``self_s`` (it would be a
constant 0 there); its time still shows in its layer's ``<module>.self_s``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

LAYERS = {
    "linalg": ("check_density_matrix", "eigh", "trace_norm", "von_neumann_entropy", "partial_trace"),
    "structures": ("to_structure_basis", "from_structure_basis", "reduced_state", "structure_from_unitary"),
    "projections": ("apply_projection", "complement"),
    "relativity": ("cross_relevance_matrix", "commutator_defect", "mutual_information"),
    "dynamics": (
        "trajectory",
        "RandomStream.haar_unitary",
        "RandomStream.haar_pure",
        "RandomStream.ginibre_density",
    ),
    "config": ("load_config",),
    "scenarios": ("write_report", "run_scenario"),
}

# Not called on every workload (eigh and trajectory skip sweeps-d64;
# structure_from_unitary and the two samplers skip dyn-grouped).
NOT_ON_EVERY_WORKLOAD = {
    "linalg.eigh",
    "structures.structure_from_unitary",
    "dynamics.trajectory",
    "dynamics.RandomStream.haar_unitary",
    "dynamics.RandomStream.ginibre_density",
}

FULL_DIM_CALLS = "linalg.check_density_matrix.full_dim_calls"
BASIS_CHANGE_GFLOP = "structures.basis_change_gflop"
REPORT_BYTES = "scenarios.write_report.bytes"
OVERHEAD_RATIO = "trace.overhead_ratio"
BLAS1_UNITS_PER_S = "blas1.units_per_s"


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def per_layer_metrics() -> list[dict]:
    """The per-layer metric declarations, in ``BENCHMARK.json`` form."""
    out = []
    for name in span_names():
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        if name not in NOT_ON_EVERY_WORKLOAD:
            out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    out.append({"name": FULL_DIM_CALLS, "unit": "count", "better": "lower"})
    out.append({"name": BASIS_CHANGE_GFLOP, "unit": "GFLOP-computed", "better": "lower"})
    out.append({"name": REPORT_BYTES, "unit": "bytes", "better": "lower"})
    out.extend({"name": f"{layer}.self_s", "unit": "s", "better": "lower"} for layer in LAYERS)
    out.append({"name": OVERHEAD_RATIO, "unit": "ratio", "better": "lower"})
    out.append({"name": BLAS1_UNITS_PER_S, "unit": "1/s", "better": "higher"})
    return out


def targets(total_dim: int) -> list[tuple]:
    """``(span_name, owner, attribute, after)`` for :meth:`Tracer.install`."""

    def full_dim(tracer, args, kwargs, result):
        if len(args[0]) == total_dim:
            tracer.counters[FULL_DIM_CALLS] += 1

    def basis_change(tracer, args, kwargs, result):
        # two complex d x d matmuls of 8 d^3 real flops each; computed, not measured
        tracer.counters[BASIS_CHANGE_GFLOP] += 2 * 8 * len(args[0]) ** 3 / 1e9

    def report_bytes(tracer, args, kwargs, result):
        tracer.counters[REPORT_BYTES] += sum(Path(p).stat().st_size for p in (result.summary, result.series))

    hooks = {
        "linalg.check_density_matrix": full_dim,
        "structures.to_structure_basis": basis_change,
        "structures.from_structure_basis": basis_change,
        "scenarios.write_report": report_bytes,
    }
    out = []
    for layer, fns in LAYERS.items():
        module = importlib.import_module(f"tpslab.{layer}")
        for fn in fns:
            owner, attr = module, fn
            if "." in fn:
                cls, attr = fn.split(".")
                owner = getattr(module, cls)
            name = f"{layer}.{fn}"
            out.append((name, owner, attr, hooks.get(name)))
    return out

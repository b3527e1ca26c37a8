"""Correctness gate, independent-route oracle and invariant headroom.

Every report a timed run produces is compared with the stored reference
report of its workload variant: ``summary.json`` ``results`` and every
``series.csv`` cell.  Reports were byte-identical to the references when
they were recorded; a later change that alters the arithmetic may move a
value by at most its column's tolerance below.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Per-column tolerance (rel, abs): a value passes when
# |got - ref| <= max(abs, rel * |ref|).  Columns not listed must match exactly.
# Defects, entropies and purities are O(1e-2 .. 10) sums of eigenvalues, so
# 1e-9 relative leaves room for a reordered reduction; the residual columns
# sit at roundoff (~1e-16) and may move anywhere below 1e-12.
VALUE_TOL = (1e-9, 1e-12)
RESIDUAL_TOL = (0.0, 1e-12)
COLUMN_TOLERANCE = {
    # lemma1-sweep
    "defect_a_to_b": VALUE_TOL,
    "defect_b_to_a": VALUE_TOL,
    "defect_same_structure": RESIDUAL_TOL,
    "trace_residual_max": RESIDUAL_TOL,
    "defect_a_to_b_mean": VALUE_TOL,
    "defect_a_to_b_min": VALUE_TOL,
    "defect_a_to_b_max": VALUE_TOL,
    "same_structure_defect_max": RESIDUAL_TOL,
    # lemma2-sweep
    "commutator_defect": VALUE_TOL,
    "same_spec_defect": RESIDUAL_TOL,
    "commutator_defect_mean": VALUE_TOL,
    "commutator_defect_min": VALUE_TOL,
    "commutator_defect_max": VALUE_TOL,
    "same_spec_defect_max": RESIDUAL_TOL,
    # qcr-demo
    "mi_own_structure": RESIDUAL_TOL,
    "mi_alternate_structure": VALUE_TOL,
    "mi_own_structure_max": RESIDUAL_TOL,
    "mi_alternate_mean": VALUE_TOL,
    "mi_alternate_min": VALUE_TOL,
    "mi_alternate_max": VALUE_TOL,
    # dynamics-trace (B->A and lemma2 are roundoff-level for nested groupings)
    "lemma1_AtoB_tracenorm": VALUE_TOL,
    "lemma1_BtoA_tracenorm": VALUE_TOL,
    "lemma1_trace_residual_max": RESIDUAL_TOL,
    "lemma2_tracenorm": VALUE_TOL,
    "mi_A": VALUE_TOL,
    "mi_B": VALUE_TOL,
    "purity_S": VALUE_TOL,
    "purity_Sprime": VALUE_TOL,
    "lemma1_a_to_b_max": VALUE_TOL,
    "lemma1_a_to_b_min": VALUE_TOL,
    "lemma2_max": VALUE_TOL,
    "final_purity_S": VALUE_TOL,
    "final_purity_Sprime": VALUE_TOL,
}

INVARIANT_TOL = 1e-10
# Reported residual families that bound the headroom, where a scenario has them.
RESIDUAL_KEYS = ("trace_residual_max", "same_structure_defect_max", "same_spec_defect_max", "mi_own_structure_max")


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str, variant: int) -> dict:
    """``{config: {"results": {...}, "series": "<csv text>"}}`` for a variant."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["variants"][str(variant)]


def read_report(output_dir: Path) -> dict:
    summary = json.loads((output_dir / "summary.json").read_text(encoding="utf-8"))
    return {"results": summary["results"], "series": (output_dir / "series.csv").read_text(encoding="utf-8")}


def _close(column: str, got, ref) -> bool:
    if column not in COLUMN_TOLERANCE or isinstance(ref, str) or isinstance(got, str):
        return got == ref
    rel, abs_ = COLUMN_TOLERANCE[column]
    got, ref = float(got), float(ref)
    return abs(got - ref) <= max(abs_, rel * abs(ref))


def compare(report: dict, reference: dict) -> list[str]:
    """Mismatches of one report against its reference; empty when it passes."""
    problems = []
    got_r, ref_r = report["results"], reference["results"]
    if set(got_r) != set(ref_r):
        problems.append(f"results keys differ: {sorted(set(got_r) ^ set(ref_r))}")
    for key in ref_r:
        if key in got_r and not _close(key, got_r[key], ref_r[key]):
            problems.append(f"results.{key}: {got_r[key]!r} != reference {ref_r[key]!r}")
    if report["series"] == reference["series"]:
        return problems
    got_rows = list(csv.reader(io.StringIO(report["series"])))
    ref_rows = list(csv.reader(io.StringIO(reference["series"])))
    if len(got_rows) != len(ref_rows) or got_rows[0] != ref_rows[0]:
        return problems + [f"series shape or header differs ({len(got_rows)} vs {len(ref_rows)} rows)"]
    header = ref_rows[0]
    for i, (got, ref) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=1):
        for column, g, r in zip(header, got, ref):
            if g != r and not (column in COLUMN_TOLERANCE and _close(column, float(g), float(r))):
                problems.append(f"series row {i} {column}: {g} != reference {r}")
    return problems


def identical(report: dict, reference: dict) -> bool:
    return report["series"] == reference["series"] and report["results"] == reference["results"]


def headroom_decades(reports) -> float:
    """min over reports of log10(tolerance / largest reported residual).

    A residual of exactly 0 has unbounded headroom and is skipped."""
    worst = math.inf
    for report in reports:
        for key in RESIDUAL_KEYS:
            value = abs(float(report["results"].get(key, 0.0)))
            if value > 0.0:
                worst = min(worst, math.log10(INVARIANT_TOL / value))
    return worst


def check_teleport(results: dict) -> list[str]:
    """The paper's analytic values for |0> through the teleportation split."""
    expected = {
        "purity_P_rho": 1.0,
        "rho12_eigenvalues": [0.5, 0.5, 0.0, 0.0],
        "rho1_eigenvalues": [1.0, 0.0],
        "lemma2_defect": 1.5,
    }
    problems = []
    for key, want in expected.items():
        got = results[key]
        values = got if isinstance(got, list) else [got]
        wants = want if isinstance(want, list) else [want]
        if len(values) != len(wants) or any(abs(g - w) > 1e-12 for g, w in zip(values, wants)):
            problems.append(f"teleport-check {key}: {got!r}, expected {want!r}")
    return problems


def check_lemma1_oracle(config_path: Path, series_text: str, trials=(0, 2, 4)) -> tuple[list[str], float]:
    """Rebuild even (Haar-pure) lemma1-sweep trials from their per-trial seed
    and recompute the A->B defect through the expansion-coefficient route.

    Returns the problems and the largest deviation seen.
    """
    from tpslab import (
        FactorLayout,
        RandomStream,
        defect_matrix_pure_coeffs,
        maximally_mixed,
        mix_seed,
        structure_from_grouping,
        structure_from_unitary,
        trace_norm,
    )

    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    rows = list(csv.DictReader(io.StringIO(series_text)))
    s_a = structure_from_grouping(FactorLayout(tuple(cfg["layout"])), cfg["structure_a"]["grouping"])
    rho_ref = maximally_mixed(s_a.dim_e)
    problems, worst = [], 0.0
    for trial in trials:
        row = rows[trial]
        if row["state_kind"] != "pure":
            problems.append(f"lemma1 oracle: trial {trial} is {row['state_kind']}, expected pure")
            continue
        stream = RandomStream(mix_seed(cfg["base_seed"], trial))
        psi = stream.haar_pure(s_a.total_dim)
        s_b = structure_from_unitary(stream.haar_unitary(s_a.total_dim), s_a.dim_s, s_a.dim_e)
        oracle = trace_norm(defect_matrix_pure_coeffs(psi, s_a, rho_ref, s_b))
        reported = float(row["defect_a_to_b"])
        deviation = abs(oracle - reported)
        worst = max(worst, deviation)
        if deviation > 1e-10 * max(1.0, abs(reported)):
            problems.append(f"lemma1 oracle: trial {trial} coefficient route {oracle!r} vs reported {reported!r}")
    return problems, worst

"""Each scenario's report against a stored golden report.

Every directory under ``tests/golden/`` holds a ``config.json`` and the
``summary.json`` and ``series.csv`` it produced.  Strings and integer cells
must match exactly.  Floats must satisfy
``|got - want| <= FLOAT_RTOL * max(1, |want|)``: a relative tolerance for
values of magnitude 1 or more, and the same bound taken absolutely below
that, so that round-off residuals near zero are not compared digit by digit.
The ``output_dir`` echo is not compared, since each run writes to its own
directory.  Each config's ``validate`` echo is a fixed point: validating it
prints it unchanged, and running it writes the original's report bytes.

To regenerate a golden report after an intended change of the numbers, run
``PYTHONPATH=../../../src python -m tpslab.cli run config.json`` inside its
directory and move ``out/summary.json`` and ``out/series.csv`` up one level.
"""

import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from tpslab import dynamics, read_matrix_file
from tpslab.cli import main
from conftest import force_route, spy_routes

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").is_file())
FLOAT_RTOL = 1e-12

# Report cells and keys that hold integers; every other number is a float.
INT_NAMES = {"trial", "trials", "points", "version", "base_seed", "seed", "rank", "steps", "gue_seed",
             "layout", "grouping"}


def run(case: str, out: Path) -> Path:
    return run_config(GOLDEN / case / "config.json", out)


def run_config(config: Path, out: Path) -> Path:
    assert main(["run", str(config), "--output-dir", str(out)]) == 0
    return out


def same_float(got: float, want: float) -> bool:
    return abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want))


def check_value(got, want, name: str, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            if key != "output_dir":
                check_value(got[key], want[key], key, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            check_value(g, w, name, f"{where}[{i}]")
    elif isinstance(want, (str, bool)) or want is None or name in INT_NAMES:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"
    else:
        assert same_float(float(got), float(want)), f"{where}: {got!r} vs golden {want!r}"


def read_series(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(tmp_path, capsys, case):
    out = run(case, tmp_path / "out")
    assert capsys.readouterr().err == ""
    check_report(out, case)


DYNAMICS_CASES = [case for case in CASES if case.startswith("dynamics-")]
# The routes a forced run takes where it is not the forced one: a maximally
# mixed state is not propagated, and a zero H's Lanczos interval, the point
# [0, 0], fails its proof, so that run takes eigh.
FORCED_ROUTE_EXCEPTIONS = {
    "dynamics-maximally-mixed": [],
    "dynamics-zero-h": ["_eigh_route"],
    "dynamics-zero-h-d64": ["_eigh_route"],
}


@pytest.mark.parametrize("chebyshev", [True, False], ids=["chebyshev", "eigh"])
@pytest.mark.parametrize("case", DYNAMICS_CASES)
def test_dynamics_golden_on_both_propagation_routes(tmp_path, monkeypatch, case, chebyshev):
    # force each route, whichever the route rule picks
    assert len(DYNAMICS_CASES) == 9
    taken = force_route(monkeypatch, chebyshev)
    check_report(run(case, tmp_path / "out"), case)
    forced = ["_chebyshev_route" if chebyshev else "_eigh_route"]
    assert taken == FORCED_ROUTE_EXCEPTIONS.get(case, forced)


def check_report(out: Path, case: str) -> None:
    want = json.loads((GOLDEN / case / "summary.json").read_text(encoding="utf-8"))
    got = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    check_value(got, want, "", "summary")

    want_rows = read_series(GOLDEN / case / "series.csv")
    got_rows = read_series(out / "series.csv")
    assert len(got_rows) == len(want_rows)
    assert list(got_rows[0]) == list(want_rows[0])
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        for column, cell in w.items():
            where = f"series row {i} {column}"
            if column in INT_NAMES or column == "state_kind":
                assert g[column] == cell, f"{where}: {g[column]!r} != {cell!r}"
            else:
                assert same_float(float(g[column]), float(cell)), f"{where}: {g[column]} vs golden {cell}"


def test_teleport_check_has_the_analytic_values(tmp_path):
    # Input |0>: P(rho) = 1, rho_12 spectrum (1/2, 1/2, 0, 0), rho_1 spectrum
    # (1, 0), and a Lemma 2 defect of 3/2.  The first three hold for any input.
    out = run("teleport-check", tmp_path / "out")
    for results in (
        json.loads((out / "summary.json").read_text(encoding="utf-8"))["results"],
        json.loads((GOLDEN / "teleport-check" / "summary.json").read_text(encoding="utf-8"))["results"],
    ):
        assert results["purity_P_rho"] == pytest.approx(1.0, abs=1e-12)
        assert results["rho12_eigenvalues"] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)
        assert results["rho1_eigenvalues"] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert results["lemma2_defect"] == pytest.approx(1.5, abs=1e-12)
    for row in read_series(out / "series.csv"):
        assert float(row["purity_P_rho"]) == pytest.approx(1.0, abs=1e-12)
        spectrum = [float(row[f"rho12_ev{k}"]) for k in (1, 2, 3, 4)] + [float(row[f"rho1_ev{k}"]) for k in (1, 2)]
        assert spectrum == pytest.approx([0.5, 0.5, 0.0, 0.0, 1.0, 0.0], abs=1e-12)


@pytest.mark.parametrize(
    "case, taken",
    [("dynamics-zero-h-d64", ["_eigh_route"]), ("dynamics-negative-time", ["_chebyshev_route"])],
)
def test_the_route_rule_runs_the_interval_proof(tmp_path, monkeypatch, case, taken):
    # at these dimensions the rule asks for a Lanczos interval: the zero H's
    # interval [0, 0] fails its proof and the run takes eigh; the GUE H's
    # holds, and the series runs at negative times too
    lanczos, proofs = [], []
    interval, holds = dynamics._lanczos_interval, dynamics._holds_spectrum
    monkeypatch.setattr(dynamics, "_lanczos_interval", lambda h: lanczos.append(interval(h)) or lanczos[-1])
    monkeypatch.setattr(dynamics, "_holds_spectrum", lambda *args: proofs.append(holds(*args)) or proofs[-1])
    routes = spy_routes(monkeypatch)
    check_report(run(case, tmp_path / "out"), case)
    assert len(lanczos) == 1 and proofs == [taken == ["_chebyshev_route"]]
    assert routes == taken


def test_dynamics_rho_ref_lemma2_is_the_closed_form(tmp_path):
    # A = {0,1,2} | {3} with reference R_A, B = {1} | {0,2,3} with I/8: the
    # factor groups are a = {1}, b = {0,2}, c = {} and e = {3}, so the
    # commutator is rho_a (x) Delta with Delta = I/4 (x) (R_A - I/2) for
    # every state, and its trace norm is sum |lambda_k - 1/2| over R_A's
    # spectrum (0.2, 0.8): 0.6 at every time.
    rho_ref, _ = read_matrix_file(GOLDEN / "dynamics-rho-ref" / "rho_ref.tpsw")
    spectrum = np.linalg.eigvalsh(rho_ref)
    assert spectrum == pytest.approx([0.2, 0.8], abs=1e-12)
    closed_form = float(np.abs(spectrum - 0.5).sum())
    assert closed_form == pytest.approx(0.6, abs=1e-12)
    out = run("dynamics-rho-ref", tmp_path / "out")
    for series in (out / "series.csv", GOLDEN / "dynamics-rho-ref" / "series.csv"):
        for row in read_series(series):
            assert float(row["lemma2_tracenorm"]) == pytest.approx(closed_form, abs=1e-12)


@pytest.mark.parametrize("case", CASES)
def test_two_runs_give_byte_identical_series(tmp_path, case):
    first = run(case, tmp_path / "first") / "series.csv"
    second = run(case, tmp_path / "second") / "series.csv"
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("case", CASES)
def test_validate_echo_is_a_fixed_point(tmp_path, capsys, case):
    # the echo is written next to a copy of the config, so that file paths
    # in it resolve as they do for the original
    case_dir = shutil.copytree(GOLDEN / case, tmp_path / case)
    config, echo = case_dir / "config.json", case_dir / "echo.json"
    assert main(["validate", str(config)]) == 0
    echo_text = capsys.readouterr().out
    echo.write_text(echo_text, encoding="utf-8")
    assert main(["validate", str(echo)]) == 0
    assert capsys.readouterr().out == echo_text

    out = tmp_path / "out"
    reports = []
    for path in (config, echo):
        run_path = run_config(path, out)
        reports.append([(run_path / name).read_bytes() for name in ("summary.json", "series.csv")])
        shutil.rmtree(out)
    assert reports[0] == reports[1]

"""Guards on the repository's own sources."""

import ast
import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def imported_modules(source: str, filename: str = "<source>") -> list[str]:
    """Every absolute module name that an import statement in ``source`` names."""
    names = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize(
    "source", ["import scipy", "import numpy, scipy.special as sp", "from scipy.special import jv", "def f():\n    import scipy\n"]
)
def test_scipy_imports_are_found(source):
    assert "scipy" in {name.split(".")[0] for name in imported_modules(source)}


def test_no_scipy_import():
    # scipy is installed on some hosts but is not a declared dependency, and
    # CI does not install it
    assert SOURCES
    offenders = [
        f"{path.relative_to(ROOT)}: import {name}"
        for path in SOURCES
        for name in imported_modules(path.read_text(encoding="utf-8"), str(path))
        if name.split(".")[0] == "scipy"
    ]
    assert offenders == []


def basis_reads(source: str, filename: str = "<source>") -> list[int]:
    """The lines of ``source`` that read an attribute named ``basis``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, ast.Attribute) and node.attr == "basis"
    ]


@pytest.mark.parametrize("source", ["s.basis", "x = f(s).basis.ndim", "def g(cfg):\n    return cfg.structure_a.basis[0]\n"])
def test_basis_reads_are_found(source):
    assert basis_reads(source)


def test_only_structures_reads_the_stored_basis():
    # a structure stores a grouping's index map or a dense unitary, and only
    # structures.py decides between them; other modules test s.grouping and
    # call its functions, which never build a grouping's dense unitary
    modules = sorted((ROOT / "src" / "tpslab").glob("*.py"))
    assert "structures.py" in {path.name for path in modules}
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in modules
        if path.name != "structures.py"
        for line in basis_reads(path.read_text(encoding="utf-8"), str(path))
    ]
    assert offenders == []


def test_src_does_not_import_the_tests():
    # tier-1 puts tests/ on sys.path, so such an import passes there and
    # fails in the installed console script
    test_modules = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    assert "oracles" in test_modules
    offenders = [
        f"{path.relative_to(ROOT)}: import {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in imported_modules(path.read_text(encoding="utf-8"), str(path))
        if name.split(".")[0] in test_modules
    ]
    assert offenders == []


def top_level_names(source: str, filename: str = "<source>") -> set[str]:
    """The names that ``source`` defines at module level: its functions,
    classes and assignment targets, not the names it imports."""
    names = set()
    for node in ast.parse(source, filename=filename).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_top_level_names_are_found():
    source = "import a\nfrom b import c\nX = Y = 1\nZ: int = 2\nu, v = 3, 4\ndef f():\n    w = 5\nclass C:\n    k = 6\n"
    assert top_level_names(source) == {"X", "Y", "Z", "u", "v", "f", "C"}


def test_no_oracle_is_also_defined_in_src():
    # each of the paper's constructions has one home: src/ for what the CLI
    # runs, tests/oracles.py for the rest
    oracles = top_level_names((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    assert {"TypeIIProjection", "TypeIIIProjection"} <= oracles
    offenders = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / "src" / "tpslab").glob("*.py"))
        for name in sorted(top_level_names(path.read_text(encoding="utf-8"), str(path)) & oracles)
    ]
    assert offenders == []


TOLERANCE_NAMES = {"HERMITICITY_TOL", "UNITARITY_TOL", "TRACE_TOL", "PSD_FLOOR", "PURE_NORM_TOL", "TRACE_RESIDUAL_TOL"}


def tolerance_comparisons(source: str, filename: str = "<source>") -> list[int]:
    """The lines of ``source`` that compare a value with a named tolerance,
    anywhere in the comparison's operands."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, ast.Compare)
        and {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)} & TOLERANCE_NAMES
    ]


@pytest.mark.parametrize(
    "source",
    [
        "if defect > UNITARITY_TOL:\n    raise ValueError(defect)\n",
        "if w[0] < PSD_FLOOR:\n    raise ValueError(w)\n",
        "if not -w[0] <= -PSD_FLOOR:\n    raise ValueError(w)\n",
        "ok = linalg.TRACE_TOL >= abs(tr - 1.0)",
        "def f(control):\n    return control > TRACE_RESIDUAL_TOL\n",
    ],
)
def test_tolerance_comparisons_are_found(source):
    assert tolerance_comparisons(source)


def test_a_tolerance_passed_to_the_check_is_no_comparison():
    assert tolerance_comparisons('_require_within(abs(n - 1.0), PURE_NORM_TOL, ValueError, "psi: norm")') == []


def test_only_the_one_check_compares_with_a_tolerance():
    # linalg._require_within owns the rule "value <= tol", under which NaN
    # and inf fail; a hand-written "if value > tol: raise" lets NaN through
    modules = sorted((ROOT / "src" / "tpslab").glob("*.py"))
    assert "linalg.py" in {path.name for path in modules}
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in modules
        for line in tolerance_comparisons(path.read_text(encoding="utf-8"), str(path))
    ]
    assert offenders == []


# The public dense route: functions on d x d states in reference
# coordinates, which the tests hold as the second route to every report.
DENSE_ROUTE = {
    "apply_projection",
    "complement",
    "commutator_defect",
    "cross_relevance_matrix",
    "mutual_information",
    "reduced_state",
    "to_structure_basis",
    "from_structure_basis",
    "partial_trace",
}


def dense_route_uses(source: str, filename: str = "<source>") -> list[str]:
    """The dense-route names that ``source`` imports or reads as a module
    attribute."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom):
            found.extend(alias.name for alias in node.names if alias.name in DENSE_ROUTE)
        elif isinstance(node, ast.Attribute) and node.attr in DENSE_ROUTE:
            found.append(node.attr)
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from .structures import reduced_state",
        "from .relativity import (\n    bell_pair,\n    commutator_defect,\n)\n",
        "from . import structures\ndef f(m, s):\n    return structures.to_structure_basis(m, s)\n",
    ],
)
def test_dense_route_uses_are_found(source):
    assert dense_route_uses(source)


def test_scenarios_take_no_dense_route():
    # every scenario runs the trusted kernels; the dense route is the tests'
    # second route, and a scenario that ran it would check nothing twice
    path = ROOT / "src" / "tpslab" / "scenarios.py"
    assert dense_route_uses(path.read_text(encoding="utf-8"), str(path)) == []


def load_tool(name: str):
    """A script under tools/ as a module, loaded with tools/ on the path, as
    when it runs; its main() is not run."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "tools"))
        spec.loader.exec_module(module)
    return module


def test_report_deviations_passes_values_as_the_gate_does():
    # |change - parent| <= max(abs, rel * |parent|); unlisted columns are exact
    compare = load_tool("report_deviations")._compare
    assert compare([2.0, 1.0], [2.0 + 1.5e-9, 1.0], (1e-9, 1e-12)) == (pytest.approx(1.5e-9), pytest.approx(7.5e-10), True)
    assert not compare([2.0], [2.0 + 3e-9], (1e-9, 1e-12))[2]
    assert compare([0.0], [1e-13], (0.0, 1e-12))[2]
    assert not compare([0.0], [1e-15], None)[2]
    assert compare(["pure"], ["pure"], None)[2] and not compare(["pure"], ["mixed"], None)[2]
    assert compare([float("nan")], [float("nan")], (1e-9, 1e-12))[2]
    assert not compare([1.0], [float("nan")], (1e-9, 1e-12))[2]


# A synthetic lemma1-sweep report: what the CLI writes, cut down.
SUMMARY = {
    "scenario": "lemma1-sweep",
    "generator": "pcg64+splitmix64+box-muller:v1",
    "config": {"scenario": "lemma1-sweep", "trials": 2, "output_dir": "out"},
    "results": {"trials": 2, "state_policy": "alternating", "defect_a_to_b_mean": 0.5},
}
SERIES = [["trial", "defect_a_to_b"], [0, 0.25], [1, 0.75]]
CLI = [0, '{"scenario": "lemma1-sweep"}\n', 0]
TOLERANCES = {"defect_a_to_b": (1e-9, 1e-12), "defect_a_to_b_mean": (1e-9, 1e-12)}


def report(directory: Path, summary: dict, series: list) -> Path:
    """``directory`` holding ``summary`` and ``series`` as the CLI writes them."""
    directory.mkdir()
    (directory / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    (directory / "series.csv").write_text("".join(",".join(map(str, row)) + "\n" for row in series), encoding="utf-8")
    return directory


def verdict_against_the_parent(tmp_path, cli=CLI, summary=SUMMARY, series=SERIES):
    """report_deviations' lines for one config: the synthetic report as the
    parent, the given CLI results and report as the change."""
    parent = (CLI, report(tmp_path / "parent", SUMMARY, SERIES))
    change = (cli, report(tmp_path / "change", summary, series))
    return load_tool("report_deviations").verdict(parent, change, TOLERANCES)


def test_byte_equal_reports_are_identical(tmp_path):
    assert verdict_against_the_parent(tmp_path, cli=list(CLI)) == [("identical", False)]


def test_reports_differing_only_in_output_dir_are_identical(tmp_path):
    summary = copy.deepcopy(SUMMARY)
    summary["config"]["output_dir"] = str(tmp_path / "elsewhere")
    assert verdict_against_the_parent(tmp_path, summary=summary) == [("identical", False)]


def test_a_series_value_moved_within_its_tolerance_passes(tmp_path):
    lines = verdict_against_the_parent(tmp_path, series=[*SERIES[:2], [1, 0.75 * (1 + 1e-12)]])
    deviations = {text.split()[0]: (text.split()[1:3], exceeds) for text, exceeds in lines}
    results = {"results.trials", "results.state_policy", "results.defect_a_to_b_mean"}
    assert set(deviations) == results | {"trial", "defect_a_to_b"}
    (dev_abs, dev_rel), exceeds = deviations["defect_a_to_b"]
    assert float(dev_abs) == pytest.approx(7.5e-13, rel=1e-2) and float(dev_rel) == pytest.approx(1e-12, rel=1e-2)
    # no line exceeds, so the tool exits 0
    assert not any(exceeds for _, exceeds in lines)


def _config_echo():
    summary = copy.deepcopy(SUMMARY)
    summary["config"]["trials"] = 3
    return {"summary": summary}


@pytest.mark.parametrize(
    "change, line",
    [
        (lambda: {"cli": [0, CLI[1] + " ", 0]}, "validate echo differs"),
        (lambda: {"cli": [0, CLI[1], 1]}, "run exit code differs"),
        (_config_echo, "summary.config differs"),
        (lambda: {"summary": {**SUMMARY, "generator": "pcg64+splitmix64+box-muller:v2"}}, "summary.generator differs"),
    ],
    ids=["validate-echo", "exit-code", "config-echo", "generator"],
)
def test_an_exact_field_that_differs_exceeds(tmp_path, change, line):
    lines = verdict_against_the_parent(tmp_path, **change())
    # every value is equal, so only the exact field exceeds
    assert [text for text, exceeds in lines if exceeds] == [line]


# Functions under src/tpslab that no run of a valid config calls, each with
# the reason it stays.
NOT_RUN_BY_THE_CLI = {
    "cli._fail": "error path: the JSON error line of a rejected command line, config or run",
    "cli._Parser.error": "error path: a rejected command line",
    "config._reject_non_finite": "error path: a NaN or Infinity in a config",
    "cli.entry": "the installed console script's entry point, which calls main",
    "scenarios._init_worker": "runs in forked sweep workers; the guard runs the trials in-process",
    "scenarios._run_trial": "runs in forked sweep workers; the guard runs the trials in-process",
    "structures.write_matrix_file": "writes the matrix files that configs read",
    "linalg.eigh": "perfbench/layers.py traces it",
    "linalg.von_neumann_entropy": "perfbench/layers.py traces it",
    "relativity.cross_relevance_matrix": "perfbench/layers.py traces it",
    "relativity.mutual_information": "perfbench/layers.py traces it",
    "relativity.defect_matrix_pure_coeffs": "perfbench/gate.py's correctness pass imports it",
    "linalg.schmidt": "defect_matrix_pure_coeffs takes its Schmidt data",
    "linalg.SchmidtDecomposition.rank": "defect_matrix_pure_coeffs takes its Schmidt rank",
    "projections.apply_projection": "perfbench/layers.py traces it",
    "projections.complement": "perfbench/layers.py traces it",
    "relativity.commutator_defect": "perfbench/layers.py traces it",
    "structures.reduced_state": "perfbench/layers.py traces it",
    "structures.to_structure_basis": "perfbench/layers.py traces it",
    "structures.from_structure_basis": "perfbench/layers.py traces it",
    "linalg.partial_trace": "perfbench/layers.py traces it",
    "linalg._numpy_cholesky_succeeds": "runs where numpy bundles no OpenBLAS",
}


@pytest.fixture(scope="module")
def report_trace(tmp_path_factory):
    """tools/line_trace.py's one traced pass over every report config."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        trace = load_tool("line_trace").trace_report_configs(tmp_path_factory.mktemp("report-configs"))
    assert trace.failed == []
    return trace


def test_line_trace_names_each_line_by_its_innermost_function(tmp_path):
    source = "X = 1\n\nclass C:\n    def f(self):\n        return g(lambda: 0)\n\n    y = 2\n"
    (tmp_path / "m.py").write_text(source, encoding="utf-8")
    lines = load_tool("line_trace").executable_lines(tmp_path / "m.py")
    assert (lines[1], lines[4], lines[5], lines[7]) == ("<module>", "C.f", "C.f.<locals>.<lambda>", "C")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_line_trace_names_each_code_object_as_python_does():
    line_trace = load_tool("line_trace")
    paths = sorted(line_trace.PACKAGE.glob("*.py"))
    names = [(code.co_qualname, name) for path in paths for code, name, _ in line_trace.code_objects(path)]
    assert len(names) > 100
    assert [(want, got) for want, got in names if want != got] == []


def test_every_src_function_runs_under_the_cli(report_trace):
    never_entered = report_trace.never_entered()
    assert sorted(never_entered - NOT_RUN_BY_THE_CLI.keys()) == []
    # an entry whose function is gone, or now runs, goes too
    assert sorted(NOT_RUN_BY_THE_CLI.keys() - never_entered) == []


# The trusted kernels: the projection and Lemma kernels, the grouping-pair
# closed forms, the same-structure control, and the propagation interval
# with its proof and series coefficients.
KERNELS = (
    "_project_in_basis", "_cross_reduction", "_vector_reduction", "_kron_rows", "_GroupingPair.defects", "_cross_defect",
    "_diagonal_blocks", "_same_structure_reduction", "_lanczos_interval", "_holds_spectrum", "_positive_definite",
    "_chebyshev_coefficients",
)


def test_every_kernel_line_runs_under_the_cli(report_trace):
    # an unrun line is a branch that only the tests take, back in a kernel
    line_trace = load_tool("line_trace")
    names = {name for path in line_trace.PACKAGE.glob("*.py") for name in line_trace.executable_lines(path).values()}
    assert set(KERNELS) <= names
    unrun = report_trace.unrun_lines()
    assert [f"{path}:{line} {name}" for path, line, name in unrun if name.split(".<locals>.")[0] in KERNELS] == []

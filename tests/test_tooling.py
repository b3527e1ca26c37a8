"""Guards on the repository's own sources."""

import ast
import copy
import functools
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
    # call its functions, or read the dense s.w
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


def load_tool(name: str):
    """A script under tools/ as a module; its main() is not run."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
}
SWEEPS = ("lemma1-sweep", "lemma2-sweep", "qcr-demo")


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """``(file, first line) -> "module.qualname"`` of every function and
    method defined in ``package``'s modules.  The first line is that of the
    first decorator, if any, as in the function's ``co_firstlineno``."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, "")
    return found


def test_decorated_functions_start_at_their_first_decorator(tmp_path):
    (tmp_path / "m.py").write_text("class C:\n    @property\n    @staticmethod\n    def f():\n        pass\n", encoding="utf-8")
    assert defined_functions(tmp_path) == {(str(tmp_path / "m.py"), 2): "m.C.f"}


def test_every_src_function_runs_under_the_cli(tmp_path, monkeypatch):
    # validate, then run, the golden configs and variant 0 of each benchmark
    # workload, with the sweep trials in this process, and record every
    # Python function entered
    import tpslab
    from tpslab import scenarios
    from tpslab.cli import main

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    configs = sorted((ROOT / "tests" / "golden").glob("*/config.json"))
    for name in workloads.WORKLOADS:
        configs += workloads.write_inputs(name, 0, tmp_path / "inputs" / name).values()
    monkeypatch.setattr(scenarios, "_map_trials", functools.partial(scenarios._map_trials, workers=1))
    # an earlier test may have filled the cache, and a cached call enters no
    # Python function
    scenarios._openblas_thread_api.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, config in enumerate(configs):
            trials = ["--trials", "4"] if json.loads(config.read_text(encoding="utf-8"))["scenario"] in SWEEPS else []
            assert main(["validate", str(config)]) == 0, config
            assert main(["run", str(config), "--output-dir", str(tmp_path / str(i)), *trials]) == 0, config
    finally:
        sys.setprofile(previous)

    package = Path(tpslab.__file__).resolve().parent
    defined = defined_functions(package)
    called = {defined.get((str(Path(file).resolve()), line)) for file, line in entered} - {None}
    assert sorted(set(defined.values()) - called - NOT_RUN_BY_THE_CLI.keys()) == []
    # an entry whose function is gone, or now runs, goes too
    assert sorted(NOT_RUN_BY_THE_CLI.keys() - (set(defined.values()) - called)) == []

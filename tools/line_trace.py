"""Each line of ``src/tpslab`` that no report config runs.

Usage::

    python tools/line_trace.py

The report configs are the golden configs under ``tests/golden/`` and every
variant of every workload that ``perfbench/workloads.write_inputs`` writes,
into a temporary directory.  Each is validated, then run, through
``tpslab.cli.main`` in this one process: the sweeps with ``--trials 4`` and
their trials in-process (``scenarios._map_trials`` with ``workers=1``), as in
``tests/test_tooling.py::test_every_src_function_runs_under_the_cli``.
Line events are recorded under ``sys.settrace`` from before ``tpslab`` is
imported, so its module-level lines count too.  A module's executable lines
are those its code objects list in ``co_lines()``.

It prints ``file:line function`` for each line never run, then their total,
and exits 0: it is a report, not a check.  A config that exits nonzero is
named on stderr.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tpslab"
SWEEPS = ("lemma1-sweep", "lemma2-sweep", "qcr-demo")


def executable_lines(path: Path) -> dict[int, str]:
    """line -> qualified name of the innermost code object that lists it."""
    found = {}

    def visit(code: types.CodeType, depth: int) -> None:
        for _, _, line in code.co_lines():
            if line is not None and depth >= found.get(line, (-1, ""))[0]:
                found[line] = (depth, code.co_qualname)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const, depth + 1)

    visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), 0)
    return {line: name for line, (_, name) in found.items()}


def run_report_configs(directory: Path) -> None:
    """Validate, then run, every report config through ``cli.main``."""
    import workloads
    from tpslab import scenarios
    from tpslab.cli import main

    scenarios._map_trials = functools.partial(scenarios._map_trials, workers=1)
    configs = sorted((ROOT / "tests" / "golden").glob("*/config.json"))
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            configs += workloads.write_inputs(name, variant, directory / "inputs" / name / str(variant)).values()
    for i, config in enumerate(configs):
        sweep = json.loads(config.read_text(encoding="utf-8"))["scenario"] in SWEEPS
        for argv in (
            ["validate", str(config)],
            ["run", str(config), "--output-dir", str(directory / str(i)), *(["--trials", "4"] if sweep else [])],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            if code != 0:
                print(f"{argv[0]} {config} exited {code}", file=sys.stderr)


def traced_lines(run) -> set[tuple[str, int]]:
    """``(file, line)`` of every line of the package that ``run()`` runs."""
    prefix = f"{PACKAGE}/"
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def main() -> int:
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        seen = traced_lines(lambda: run_report_configs(Path(tmp)))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in sorted(executable_lines(path).items()):
            if (str(path), line) not in seen:
                print(f"{path.relative_to(ROOT)}:{line} {name}")
                total += 1
    print(f"total: {total} lines not run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

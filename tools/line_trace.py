"""Each line of ``src/tpslab`` that no report config runs.

Usage::

    python tools/line_trace.py

``trace_report_configs`` validates, then runs, each config of
``report_deviations.report_configs`` through ``tpslab.cli.main`` in this
process under ``sys.settrace``, the sweeps at ``--trials 4`` with their
trials in-process, and records each line of the package run and each code
object entered; ``tests/test_tooling.py`` guards both.  As a script it
traces ``import tpslab`` too.  It prints ``file:line function`` for each
line that a code object lists in ``co_lines()`` but no config ran, then
their total, and exits 0; a config that exits nonzero is named on stderr.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import tempfile
import types
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from report_deviations import report_configs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tpslab"
SWEEPS = ("lemma1-sweep", "lemma2-sweep", "qcr-demo")
COMPREHENSIONS = ("<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>")


def code_objects(path: Path) -> list[tuple[types.CodeType, str, int]]:
    """``(code object, qualified name, depth)`` of each code object compiled
    from ``path``, module first, named from ``co_name`` as 3.11's
    ``co_qualname``: ``.<locals>.`` below a function or lambda, else ``.``."""
    found = []

    def visit(code: types.CodeType, qualname: str, depth: int) -> None:
        found.append((code, qualname, depth))
        if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in COMPREHENSIONS:
            qualname += ".<locals>"
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const, f"{qualname}.{const.co_name}" if depth else const.co_name, depth + 1)

    visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>", 0)
    return found


def executable_lines(path: Path) -> dict[int, str]:
    """line -> qualified name of the innermost code object that lists it."""
    found = {}
    for code, qualname, depth in code_objects(path):
        for _, _, line in code.co_lines():
            if line is not None and depth >= found.get(line, (-1, ""))[0]:
                found[line] = (depth, qualname)
    return {line: name for line, (_, name) in found.items()}


class Trace(NamedTuple):
    """What one traced pass ran of the package."""
    lines: set[tuple[str, int]]  # (file, line) of each line of the package run
    entered: set[tuple[str, int]]  # (file, co_firstlineno) of each code object entered
    failed: list[str]  # each command that exited nonzero, with its config

    def unrun_lines(self) -> list[tuple[str, int, str]]:
        """``(file, line, qualified name)`` of each line never run."""
        return [
            (str(path.relative_to(ROOT)), line, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for line, name in sorted(executable_lines(path).items())
            if (str(path), line) not in self.lines
        ]

    def never_entered(self) -> set[str]:
        """``module.qualname`` of each function and method never entered."""
        return {
            f"{path.stem}.{name}"
            for path in PACKAGE.glob("*.py")
            for code, name, _ in code_objects(path)
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<")
            and (str(path), code.co_firstlineno) not in self.entered
        }


def trace_report_configs(directory: Path) -> Trace:
    """The traced pass, its files under ``directory``, with ``tpslab`` and
    ``perfbench/`` on the path; it restores what it patches."""
    prefix = f"{PACKAGE}/"
    lines, entered, failed = set(), set(), []

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            lines.add((frame.f_code.co_filename, frame.f_lineno))
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
            return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        from tpslab import linalg, scenarios
        from tpslab.cli import main

        # a cached call enters no Python function
        linalg._openblas.cache_clear()
        with mock.patch.object(scenarios, "_map_trials", functools.partial(scenarios._map_trials, workers=1)):
            for i, (label, config) in enumerate(report_configs(ROOT, directory / "inputs")):
                sweep = json.loads(config.read_text(encoding="utf-8"))["scenario"] in SWEEPS
                for argv in (
                    ["validate", str(config)],
                    ["run", str(config), "--output-dir", str(directory / str(i)), *(["--trials", "4"] if sweep else [])],
                ):
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        code = main(argv)
                    if code != 0:
                        failed.append(f"{argv[0]} {label} exited {code}")
    finally:
        sys.settrace(previous)
    return Trace(lines, entered, failed)


def main() -> int:
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        trace = trace_report_configs(Path(tmp))
    for failure in trace.failed:
        print(failure, file=sys.stderr)
    unrun = trace.unrun_lines()
    for path, line, name in unrun:
        print(f"{path}:{line} {name}")
    print(f"total: {len(unrun)} lines not run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

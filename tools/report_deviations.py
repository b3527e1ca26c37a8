"""Whether two checkouts' CLIs report the same, config by config.

Usage::

    python tools/report_deviations.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are roots of tpslab checkouts.  ``PARENT`` is
the reference: the configs are the golden configs under ``PARENT``'s
``tests/golden/`` and every variant of every workload that ``PARENT``'s
``perfbench/workloads.write_inputs`` writes, into a temporary directory,
and the tolerances are ``PARENT``'s, so a change cannot pick the configs or
widen the tolerances it is checked against.  Each checkout's CLI runs in
its own interpreter with its ``src/`` first on the path (nothing is
installed); it validates, then runs, each config.

A config reads ``identical`` when both exit codes, the ``validate`` echo,
``summary.json`` with its ``output_dir`` values masked and ``series.csv``
are byte-equal.  Otherwise each exact field that differs is one line: an
exit code, the ``validate`` echo, a ``summary.json`` key outside
``results`` (the config echo, ``generator``, ...) or the report's shape.
Then one line per ``results`` key and ``series.csv`` column gives the
largest absolute deviation of ``CHANGE`` from ``PARENT``, the largest
relative one, and the column's tolerance ``(rel, abs)`` from the
``COLUMN_TOLERANCE`` of ``PARENT``'s ``perfbench/gate.py``; a column that
table does not list must match exactly.  A value passes when ``|change -
parent| <= max(abs, rel * |parent|)``, as the benchmark's gate decides.
The exit code is 1 when an exact field differs or a value exceeds its
tolerance, else 0; it is 2 for a wrong command line.  Configs that
``CHANGE`` adds are not run here; ``tests/test_golden.py`` checks its
goldens.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_OUTPUT_DIR = re.compile(rb'("output_dir": )"(?:[^"\\]|\\.)*"')

# Run inside each checkout's interpreter: argv is (config, output_dir) pairs;
# prints one JSON line per config: [validate exit code, validate echo, run exit code].
_RUNNER = """
import contextlib, io, json, sys
from tpslab.cli import main
def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return [main(list(argv)), out.getvalue()]
args = sys.argv[1:]
for config, out in zip(args[0::2], args[1::2]):
    print(json.dumps(cli("validate", config) + cli("run", config, "--output-dir", out)[:1]), flush=True)
"""


def report_configs(root: Path, directory: Path) -> list[tuple[str, Path]]:
    """``(label, path)`` of every config compared: the golden configs under
    ``root``'s ``tests/golden/``, then every variant of every workload,
    written under ``directory`` by ``root``'s
    ``perfbench/workloads.write_inputs``, which must be first on the path."""
    import workloads

    configs = [(f"golden/{p.parent.name}", p) for p in sorted((root / "tests" / "golden").glob("*/config.json"))]
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            paths = workloads.write_inputs(name, variant, directory / name / str(variant))
            configs += [(f"{name}/v{variant}/{key}", path) for key, path in paths.items()]
    return configs


def _run(checkout: Path, configs: list[tuple[str, Path]], out: Path) -> list[list]:
    args = [str(a) for i, (_, config) in enumerate(configs) for a in (config, out / str(i))]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, *args], env=env, capture_output=True, text=True, check=True
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def _report(directory: Path) -> tuple[bytes | None, bytes | None]:
    """A run's ``summary.json``, its ``output_dir`` values masked, and its
    ``series.csv``; None for a file the run did not write."""
    summary, series = directory / "summary.json", directory / "series.csv"
    return (
        _OUTPUT_DIR.sub(rb'\1"<masked>"', summary.read_bytes()) if summary.is_file() else None,
        series.read_bytes() if series.is_file() else None,
    )


def _columns(summary: bytes | None, series: bytes | None) -> tuple[dict, dict[str, list]]:
    """A report's summary keys outside ``results``, and every results key
    and series column as a flat list of values."""
    fields = json.loads(summary) if summary else {}
    columns = {f"results.{k}": v if isinstance(v, list) else [v] for k, v in fields.pop("results", {}).items()}
    header, *rows = list(csv.reader(io.StringIO(series.decode()))) if series else [[]]
    for i, column in enumerate(header):
        columns[column] = [_number(row[i]) for row in rows]
    return fields, columns


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _compare(parent: list, change: list, tolerance) -> tuple[float, float, bool]:
    """``(largest absolute deviation, largest relative deviation, passes)``."""
    dev_abs = dev_rel = 0.0
    ok = True
    for p, c in zip(parent, change):
        if isinstance(p, str) or isinstance(c, str):
            ok = ok and p == c
            continue
        d = abs(float(c) - float(p))
        if d != d:  # NaN on one side or both
            ok = ok and (c != c) == (p != p)
            continue
        dev_abs = max(dev_abs, d)
        dev_rel = max(dev_rel, d / abs(p) if p else (0.0 if d == 0 else float("inf")))
        rel, abs_ = tolerance if tolerance else (0.0, 0.0)
        ok = ok and d <= max(abs_, rel * abs(float(p)))
    return dev_abs, dev_rel, ok


def verdict(parent: tuple[list, Path], change: tuple[list, Path], tolerances: dict) -> list[tuple[str, bool]]:
    """One config's lines, each ``(text, exceeds)``, from each side's CLI
    results ``[validate exit code, validate echo, run exit code]`` and
    report directory: one ``identical`` line when both sides are
    byte-equal, else a line per differing exact field and per column."""
    (cli_p, dir_p), (cli_c, dir_c) = parent, change
    report_p, report_c = _report(dir_p), _report(dir_c)
    if cli_p == cli_c and report_p == report_c:
        return [("identical", False)]
    names = ("validate exit code", "validate echo", "run exit code")
    lines = [(f"{name} differs", True) for name, p, c in zip(names, cli_p, cli_c) if p != c]
    (fields_p, before), (fields_c, after) = _columns(*report_p), _columns(*report_c)
    for key in sorted(fields_p.keys() | fields_c.keys()):
        if key not in fields_p or key not in fields_c or fields_p[key] != fields_c[key]:
            lines.append((f"summary.{key} differs", True))
    if before.keys() != after.keys():
        return lines + [(f"columns differ: {sorted(before.keys() ^ after.keys())}", True)]
    for column, values in before.items():
        tolerance = tolerances.get(column.removeprefix("results."))
        if len(values) != len(after[column]):
            dev_abs, dev_rel, ok = float("nan"), float("nan"), False
        else:
            dev_abs, dev_rel, ok = _compare(values, after[column], tolerance)
        shown = f"({tolerance[0]:.0e}, {tolerance[1]:.0e})" if tolerance else "exact"
        lines.append((f"{column:<36} {dev_abs:10.2e} {dev_rel:10.2e}  {shown}", not ok))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/report_deviations.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(parent / "perfbench"))
    from gate import COLUMN_TOLERANCE

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = report_configs(parent, tmp / "inputs")
        runs = {side: _run(root, configs, tmp / side) for side, root in (("parent", parent), ("change", change))}
        print(f"{'config':<28} {'column':<36} {'max_abs':>10} {'max_rel':>10}  tolerance (rel, abs)")
        for i, (label, _) in enumerate(configs):
            sides = [(runs[side][i], tmp / side / str(i)) for side in ("parent", "change")]
            for text, exceeds in verdict(*sides, COLUMN_TOLERANCE):
                print(f"{label:<28} {text}{'  EXCEEDS' if exceeds else ''}")
                failed += exceeds
    print(f"{failed} line(s) exceed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

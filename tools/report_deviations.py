"""Largest deviation per config and column between two checkouts' reports.

Usage::

    python tools/report_deviations.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are roots of tpslab checkouts.  Both checkouts'
CLIs run on the same configs, those of ``tools/report_digests.py`` as
``CHANGE`` lists them: the golden configs under ``CHANGE``'s
``tests/golden/`` and every variant of every workload that ``CHANGE``'s
``perfbench/workloads.write_inputs`` writes, into a temporary directory.
Each checkout runs in its own interpreter with its ``src/`` first on the
path; nothing is installed.

For each config, every ``summary.json`` ``results`` key and every
``series.csv`` column is compared.  One line per config and column gives
the largest absolute deviation of ``CHANGE`` from ``PARENT``, the largest
relative one, and the column's tolerance ``(rel, abs)`` from
``perfbench/gate.py``'s ``COLUMN_TOLERANCE``; a column that table does not
list must match exactly.  A value passes when ``|change - parent| <=
max(abs, rel * |parent|)``, as the benchmark's gate decides.  The exit code
is 1 when a value exceeds its tolerance, a non-numeric value differs, a
report's shape differs or the two CLIs exit differently, else 0.  Use it
where a change moves the last bits of reports, which
``tools/report_digests.py`` can only show as changed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Run inside each checkout's interpreter: argv is (config, output_dir) pairs;
# prints one exit code per config.
_RUNNER = """
import contextlib, io, sys
from tpslab.cli import main
args = sys.argv[1:]
for config, out in zip(args[0::2], args[1::2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", config, "--output-dir", out])
    print(code, flush=True)
"""


def _run(checkout: Path, configs: list[tuple[str, Path]], out: Path) -> list[int]:
    args = [str(a) for i, (_, config) in enumerate(configs) for a in (config, out / str(i))]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, *args], env=env, capture_output=True, text=True, check=True
    )
    return [int(line) for line in done.stdout.split()]


def _columns(report: Path) -> dict[str, list]:
    """Every results key and series column of a report, as a flat list of
    values; empty when the run wrote no report."""
    if not (report / "summary.json").is_file():
        return {}
    out = {}
    for key, value in json.loads((report / "summary.json").read_text(encoding="utf-8"))["results"].items():
        out[f"results.{key}"] = value if isinstance(value, list) else [value]
    rows = list(csv.reader(io.StringIO((report / "series.csv").read_text(encoding="utf-8"))))
    for i, column in enumerate(rows[0]):
        out[column] = [_number(row[i]) for row in rows[1:]]
    return out


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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/report_deviations.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(change / "perfbench"))
    from gate import COLUMN_TOLERANCE
    from report_digests import report_configs  # this script's directory is first on the path

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = report_configs(change, tmp / "inputs")
        codes = {side: _run(root, configs, tmp / side) for side, root in (("parent", parent), ("change", change))}
        print(f"{'config':<28} {'column':<36} {'max_abs':>10} {'max_rel':>10}  tolerance (rel, abs)")
        for i, (label, _) in enumerate(configs):
            if codes["parent"][i] != codes["change"][i]:
                print(f"{label:<28} exit codes differ: {codes['parent'][i]} vs {codes['change'][i]}  EXCEEDS")
                failed += 1
                continue
            before, after = _columns(tmp / "parent" / str(i)), _columns(tmp / "change" / str(i))
            if before.keys() != after.keys():
                print(f"{label:<28} columns differ: {sorted(before.keys() ^ after.keys())}  EXCEEDS")
                failed += 1
                continue
            for column, values in before.items():
                name = column.removeprefix("results.")
                tolerance = COLUMN_TOLERANCE.get(name)
                if len(values) != len(after[column]):
                    dev_abs, dev_rel, ok = float("nan"), float("nan"), False
                else:
                    dev_abs, dev_rel, ok = _compare(values, after[column], tolerance)
                shown = f"({tolerance[0]:.0e}, {tolerance[1]:.0e})" if tolerance else "exact"
                flag = "" if ok else "  EXCEEDS"
                print(f"{label:<28} {column:<36} {dev_abs:10.2e} {dev_rel:10.2e}  {shown}{flag}")
                failed += not ok
    print(f"{failed} column(s) outside tolerance")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

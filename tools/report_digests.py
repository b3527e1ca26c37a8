"""One SHA-256 digest per config of what a checkout's CLI reports.

Usage::

    python tools/report_digests.py [CHECKOUT] > digests.txt

``CHECKOUT`` is the root of a tpslab checkout (default: the one holding
this script); its ``src/`` and ``perfbench/`` are imported, nothing is
installed.  The configs are the golden configs under ``tests/golden/`` and
every variant of every workload that ``perfbench/workloads.write_inputs``
writes, into a temporary directory.  Each config is validated and run
through ``tpslab.cli.main``; its digest covers both exit codes, the
``validate`` echo, ``summary.json`` with its ``output_dir`` values masked,
and ``series.csv``.  The output is one ``<sha256>  <config>`` line per
config.  To show that a change leaves every report byte-identical, run this
at the change and at its parent (pass the parent's checkout as
``CHECKOUT``) and ``diff`` the two outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

_OUTPUT_DIR = re.compile(rb'("output_dir": )"(?:[^"\\]|\\.)*"')


def _cli(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def _digest(main, config: Path, out: Path) -> str:
    h = hashlib.sha256()
    code, echo = _cli(main, ["validate", str(config)])
    h.update(f"{code}\0{echo}\0".encode())
    code, _ = _cli(main, ["run", str(config), "--output-dir", str(out)])
    h.update(f"{code}\0".encode())
    for name in ("summary.json", "series.csv"):
        path = out / name
        data = path.read_bytes() if path.is_file() else b"<missing>"
        if name == "summary.json":
            data = _OUTPUT_DIR.sub(rb'\1"<masked>"', data)
        h.update(data + b"\0")
    return h.hexdigest()


def report_configs(root: Path, directory: Path) -> list[tuple[str, Path]]:
    """``(label, path)`` of every config the report tools run: the golden
    configs under ``root``'s ``tests/golden/``, then every variant of every
    workload, written under ``directory`` by ``root``'s
    ``perfbench/workloads.write_inputs``, which must be first on the path."""
    import workloads

    configs = [(f"golden/{p.parent.name}", p) for p in sorted((root / "tests" / "golden").glob("*/config.json"))]
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            paths = workloads.write_inputs(name, variant, directory / name / str(variant))
            configs += [(f"{name}/v{variant}/{key}", path) for key, path in paths.items()]
    return configs


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from tpslab.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = report_configs(root, tmp / "inputs")
        for i, (label, config) in enumerate(configs):
            print(f"{_digest(cli_main, config, tmp / 'out' / str(i))}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

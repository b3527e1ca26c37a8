"""Record the reference reports the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs every config of every workload variant once through ``tpslab.cli.main``
at the current sources and stores ``results`` and ``series.csv`` per
variant in ``perfbench/reference/<workload>.json.gz``.  Rerun only when a
change to the program is meant to change its reports, and say so.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import shutil
import sys

import envinfo
import gate
from run import ROOT, SRC, call_cli


def main() -> int:
    envinfo.pin_blas_threads_env(envinfo.nproc())
    sys.path.insert(0, str(SRC))
    import workloads
    from tpslab.cli import main as cli_main

    work = ROOT / ".perfbench_work" / "reference"
    try:
        for name in workloads.WORKLOADS:
            variants = {}
            for variant in range(workloads.VARIANTS):
                configs = workloads.write_inputs(name, variant, work / name / str(variant))
                variants[str(variant)] = {}
                for config, path in configs.items():
                    out = work / name / str(variant) / "out" / config
                    code, err = call_cli(cli_main, ["run", str(path), "--output-dir", str(out)])
                    if code != 0:
                        raise RuntimeError(f"{name} variant {variant} {config}: exit {code}: {err}")
                    variants[str(variant)][config] = gate.read_report(out)
            gate.REFERENCE_DIR.mkdir(exist_ok=True)
            payload = json.dumps({"workload": name, "variants": variants}, indent=1, sort_keys=True)
            with gzip.GzipFile(gate.reference_path(name), "wb", mtime=0) as fh:
                fh.write(payload.encode("utf-8"))
            print(f"{name}: {workloads.VARIANTS} variants -> {gate.reference_path(name)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tpslab benchmark: time the CLI scenarios end to end, check every report,
and trace the package's layers in a separate run.

Run from the repository root:

    python3 perfbench/run.py --workload dyn-grouped --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the details behind the numbers.  The program
is driven only through ``tpslab.cli.main`` (and ``load_config`` for the
set-up time), on input files this script writes from the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo
import gate
import layers
from tracer import Tracer, leftover_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tpslab; "
    "[tpslab.load_config(p) for p in sys.argv[2:]]"
)


def call_cli(cli_main, argv: list[str]) -> tuple[int, str]:
    """Run ``tpslab.cli.main``; returns (exit code, captured stderr or traceback)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except Exception:  # a raising run is a failed run, not a benchmark crash
        return -1, traceback.format_exc(limit=3)
    return code, err.getvalue()


class Runner:
    """Runs one pass over a workload's configs and gates every report."""

    def __init__(self, cli_main, configs: dict[str, Path], references: dict, out_dir: Path):
        self.cli_main = cli_main
        self.configs = configs
        self.references = references
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.identical_passes = 0
        self.problems: list[str] = []
        self.first_series: dict[tuple[str, int], str] = {}
        self.reports: dict[str, dict] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def one_pass(self, blas_threads: int = 0) -> dict[str, float]:
        """Wall seconds of each config's ``cli.main`` call; reports are
        checked after all calls, outside the timed region.

        Repeated runs must give byte-identical ``series.csv`` at one BLAS
        thread count; ``blas_threads`` names the count when it is not the
        default (other counts may round differently)."""
        times, codes = {}, {}
        for name, path in self.configs.items():
            t0 = time.perf_counter()
            codes[name] = call_cli(self.cli_main, ["run", str(path), "--output-dir", str(self.out_dir / name)])
            times[name] = time.perf_counter() - t0
        identical = [self._check(name, code, err, blas_threads) for name, (code, err) in codes.items()]
        self.identical_passes += all(identical)
        return times

    def _check(self, name: str, code: int, err: str, blas_threads: int) -> bool:
        """Gate one config's report; True when it is byte-identical to the reference."""
        self.attempted += 1
        if code != 0:
            self.fail(f"{name}: exit code {code}: {err.strip()[-300:]}")
            return False
        try:
            report = gate.read_report(self.out_dir / name)
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"{name}: unreadable report: {exc!r}")
            return False
        self.reports[name] = report
        mismatches = gate.compare(report, self.references[name])
        if report["series"] != self.first_series.setdefault((name, blas_threads), report["series"]):
            mismatches.append("series.csv differs from the first run of the same config")
        if mismatches:
            self.fail(f"{name}: " + "; ".join(mismatches[:5]))
        return gate.identical(report, self.references[name])

    def check_oracles(self, teleport_config: Path) -> dict:
        """Teleport-check analytic values, and the lemma1 coefficient route
        where the workload has a lemma1 sweep."""
        out = {}
        self.attempted += 1
        out_dir = teleport_config.parent / "out"
        code, err = call_cli(self.cli_main, ["run", str(teleport_config), "--output-dir", str(out_dir)])
        if code != 0:
            self.fail(f"teleport-check: exit code {code}: {err.strip()[-300:]}")
        else:
            results = gate.read_report(out_dir)["results"]
            problems = gate.check_teleport(results)
            if problems:
                self.fail("; ".join(problems))
            out["teleport_lemma2_defect"] = results["lemma2_defect"]
        if "lemma1" in self.reports:
            problems, worst = gate.check_lemma1_oracle(self.configs["lemma1"], self.reports["lemma1"]["series"])
            self.attempted += 1
            if problems:
                self.fail("; ".join(problems))
            out["lemma1_oracle_max_deviation"] = worst
        return out


def measure_setup(configs: dict[str, Path]) -> list[float]:
    """Wall seconds of fresh interpreters that import tpslab and load the configs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, configs.values())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return samples


def timed_loop(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` have passed and at least MIN_PASSES ran."""
    end = time.perf_counter() + seconds
    done = 0
    while done < MIN_PASSES or time.perf_counter() < end:
        step()
        done += 1


def end_to_end(args, runner, workload, configs, details) -> dict:
    setup = measure_setup(configs)
    runner.one_pass()  # warm-up, discarded
    passes = []
    timed_loop(args.seconds, lambda: passes.append(runner.one_pass()))
    run_s = sum(statistics.median(p[name] for p in passes) for name in configs)
    busy_s = sum(sum(p.values()) for p in passes)
    details.update(
        passes=len(passes),
        run_s_per_config={name: statistics.median(p[name] for p in passes) for name in configs},
        pass_s=[sum(p.values()) for p in passes],
        setup_samples_s=setup,
    )
    return {
        "run_s": {"value": run_s, "unit": "s"},
        "units_per_s": {"value": workload.units * len(passes) / busy_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(args, runner, workload, blas, details) -> dict:
    targets = layers.targets(workload.total_dim)
    tracer = Tracer()
    runner.one_pass()  # warm-up, discarded
    untraced, traced = [], []

    def step():
        untraced.append(sum(runner.one_pass().values()))
        tracer.reset()
        tracer.install(targets)
        try:
            total = sum(runner.one_pass().values())
        finally:
            tracer.uninstall()
        traced.append((total, dict(tracer.self_s), dict(tracer.calls), dict(tracer.counters)))

    timed_loop(args.seconds, step)
    leftovers = leftover_spans()
    if leftovers:
        runner.problems.append(f"span wrappers left installed: {leftovers}")
    if any((t[2], t[3]) != (traced[0][2], traced[0][3]) for t in traced):
        runner.problems.append("per-layer counts differ between traced passes")

    threads = blas.threads()
    blas.set_threads(1)
    try:
        blas1_s = sum(runner.one_pass(blas_threads=1).values())
    finally:
        blas.set_threads(threads)

    _, _, calls, counters = traced[0]
    values = {}
    for name in layers.span_names():
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = statistics.median(t[1].get(name, 0.0) for t in traced)
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = statistics.median(
            sum(v for k, v in t[1].items() if k.startswith(layer + ".")) for t in traced
        )
    for name in (layers.FULL_DIM_CALLS, layers.BASIS_CHANGE_GFLOP, layers.REPORT_BYTES):
        values[name] = counters.get(name, 0)
    values[layers.OVERHEAD_RATIO] = statistics.median(t[0] for t in traced) / statistics.median(untraced)
    values[layers.BLAS1_UNITS_PER_S] = workload.units / blas1_s
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in layers.per_layer_metrics()}
    details.update(traced_passes=len(traced), untraced_passes=len(untraced), blas1_pass_s=blas1_s)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tpslab" / "__init__.py").is_file():
        print(f"perfbench: no tpslab sources under {SRC}", file=sys.stderr)
        return 2

    # Pin BLAS to what a user gets by default, before numpy loads, so a stray
    # host setting cannot leak in.
    envinfo.pin_blas_threads_env(envinfo.nproc())
    sys.path.insert(0, str(SRC))
    import tpslab
    import workloads
    from tpslab.cli import main as cli_main

    if Path(tpslab.__file__).resolve().parent != (SRC / "tpslab").resolve():
        print(f"perfbench: imported tpslab from {tpslab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    variant = workloads.variant_of(args.seed)
    blas = envinfo.OpenBLAS()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        configs = workloads.write_inputs(args.workload, variant, work / "inputs")
        runner = Runner(cli_main, configs, gate.load_reference(args.workload, variant), work / "out")
        details: dict = {}
        if args.trace:
            metrics = per_layer(args, runner, workload, blas, details)
        else:
            metrics = end_to_end(args, runner, workload, configs, details)
        details.update(runner.check_oracles(workloads.write_teleport_config(work / "teleport")))
        headroom = gate.headroom_decades(runner.reports.values())
        if not math.isfinite(headroom):  # no report carried a nonzero residual
            runner.problems.append("no invariant residual reported")
            headroom = 0.0
        if not args.trace:
            metrics["invariant_headroom_dec"] = {"value": headroom, "unit": "decades"}
        details.update(
            error_rate={"value": runner.failed / runner.attempted, "unit": "ratio"},
            invariant_headroom_dec=headroom,
            passes_byte_identical_to_reference=runner.identical_passes,
            problems=runner.problems[:20],
        )
        env = envinfo.record(ROOT, blas, args.workload, args.seed, variant)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"env": env, "details": details}))
    correct = runner.failed == 0 and not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

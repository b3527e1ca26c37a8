"""Self-tests of the benchmark's own machinery (not of tpslab).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, leftover_spans  # noqa: E402


class TickClock:
    """Each reading is one unit later than the previous one."""

    def __init__(self):
        self.now = -1

    def __call__(self):
        self.now += 1
        return float(self.now)


class SpanBookkeeping(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        tracer = Tracer(clock=TickClock())
        leaf = tracer.wrap("leaf", lambda: None)

        def body():
            leaf()
            leaf()

        outer = tracer.wrap("outer", body)
        outer()
        # outer reads 0 and 5; the two leaves read (1, 2) and (3, 4)
        self.assertEqual(tracer.calls, {"outer": 1, "leaf": 2})
        self.assertEqual(tracer.self_s["leaf"], 2.0)
        self.assertEqual(tracer.self_s["outer"], 5.0 - 2.0)

    def test_raising_span_is_closed(self):
        tracer = Tracer(clock=TickClock())

        def boom():
            raise ValueError("x")

        inner = tracer.wrap("inner", boom)
        outer = tracer.wrap("outer", lambda: inner())
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual(tracer.self_s["inner"], 1.0)
        self.assertEqual(tracer.self_s["outer"], 2.0)
        self.assertEqual(tracer._stack, [])

    def test_trace_norm_nested_in_checked_report(self):
        from tpslab import linalg, relativity

        tracer = Tracer(clock=TickClock())
        tracer.install(
            [
                ("relativity._checked_report", relativity, "_checked_report", None),
                ("linalg.trace_norm", linalg, "trace_norm", None),
            ]
        )
        try:
            relativity._checked_report(np.diag([0.5, -0.5]).astype(complex), "selftest")
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.calls["linalg.trace_norm"], 1)
        self.assertEqual(tracer.self_s["linalg.trace_norm"], 1.0)
        self.assertEqual(tracer.self_s["relativity._checked_report"], 3.0 - 1.0)


class Bindings(unittest.TestCase):
    def test_every_importing_module_is_wrapped_and_restored(self):
        import tpslab.cli  # noqa: F401  (loads every module of the package)

        targets = layers.targets(64)
        originals = {name: owner.__dict__[attr] for name, owner, attr, _ in targets}
        modules = [m for n, m in sys.modules.items() if n == "tpslab" or n.startswith("tpslab.")]
        holders = [(m, a) for m in modules for a, v in vars(m).items() if v in originals.values()]
        self.assertIn((sys.modules["tpslab.scenarios"], "trace_norm"), holders)
        self.assertIn((sys.modules["tpslab.cli"], "load_config"), holders)

        tracer = Tracer()
        tracer.install(targets)
        try:
            for module, attr in holders:
                self.assertFalse(any(getattr(module, attr) is f for f in originals.values()), (module, attr))
            self.assertTrue(leftover_spans())
        finally:
            tracer.uninstall()
        self.assertEqual(leftover_spans(), [])
        for module, attr in holders:
            self.assertTrue(any(getattr(module, attr) is f for f in originals.values()), (module, attr))
        for name, owner, attr, _ in targets:
            self.assertIs(owner.__dict__[attr], originals[name])


class Gate(unittest.TestCase):
    def setUp(self):
        self.reference = gate.load_reference("sweeps-d64", 0)["lemma1"]

    def _with_cell(self, column: str, transform) -> dict:
        lines = self.reference["series"].splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        i = header.index(column)
        cells[i] = transform(cells[i])
        lines[1] = ",".join(cells)
        return {"results": self.reference["results"], "series": "\n".join(lines) + "\n"}

    def test_reference_passes_itself(self):
        self.assertEqual(gate.compare(self.reference, self.reference), [])
        self.assertTrue(gate.identical(self.reference, self.reference))

    def test_value_column_tolerance(self):
        nudged = self._with_cell("defect_a_to_b", lambda c: repr(float(c) * (1 + 1e-12)))
        self.assertEqual(gate.compare(nudged, self.reference), [])
        self.assertFalse(gate.identical(nudged, self.reference))
        moved = self._with_cell("defect_a_to_b", lambda c: repr(float(c) * (1 + 1e-6)))
        self.assertTrue(gate.compare(moved, self.reference))

    def test_exact_column(self):
        flipped = self._with_cell("state_kind", lambda c: "mixed")
        self.assertTrue(gate.compare(flipped, self.reference))

    def test_headroom_skips_exact_zero(self):
        reports = [{"results": {"trace_residual_max": 1e-16, "same_spec_defect_max": 0.0}}]
        self.assertAlmostEqual(gate.headroom_decades(reports), 6.0)

    def test_every_variant_has_a_reference(self):
        for name, workload in workloads.WORKLOADS.items():
            for variant in range(workloads.VARIANTS):
                self.assertEqual(set(gate.load_reference(name, variant)), set(workload.configs))


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            spec["workloads"], [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
        )
        self.assertEqual(spec["per_layer"], layers.per_layer_metrics())


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark, at a tiny scale (world scale 0.02, 2 days).

    python3 perfbench/selftest.py        # from the root of a source checkout

Checks that every workload runs with and without tracing and reports
every metric ``BENCHMARK.json`` names, that tracing leaves no wrapper
behind and survives a missing wrap target, that self time subtracts
child spans, and that a corrupted service payload counts as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Target, Tracer, install, installed_wrappers  # noqa: E402

TINY = {"scale": 0.02, "days": 2}


def tiny_run(workload: str, trace: int) -> Dict[str, Any]:
    saved = {name: dict(spec) for name, spec in run.WORKLOADS.items()}
    for spec in run.WORKLOADS.values():
        spec.update(TINY)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "5", "--seconds", "2",
                             "--trace", str(trace)])
    finally:
        for name, spec in saved.items():
            run.WORKLOADS[name] = spec
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return json.loads(out.getvalue().splitlines()[-1])


class WorkloadSmoke(unittest.TestCase):
    def setUp(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def check(self, result: Dict[str, Any], expected: Dict[str, str]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()}, expected
        )
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_reports_every_metric(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny_run(workload, 0)
                self.check(result, self.end_to_end)
                for name in self.end_to_end:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_traced_runs_report_every_layer_metric(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                # correct=True includes: traced store digest == untraced.
                result = tiny_run(workload, 1)
                self.check(result, self.per_layer)
                self.assertEqual(result["metrics"]["trace.unmeasured_targets"]["value"], 0)

    def test_benchmark_json_names_the_reported_metrics(self) -> None:
        self.assertEqual(self.end_to_end, run.END_TO_END)
        self.assertEqual(self.per_layer, layers.PER_LAYER)


class CorruptPayload(unittest.TestCase):
    def test_corrupted_service_payload_counts_as_failure(self) -> None:
        original = run.Run.step

        def corrupting(self: run.Run, task: str, args: Dict[str, Any], traced: bool = False):
            if task == "load":
                args = dict(args, corrupt=["small"])
            return original(self, task, args, traced)

        run.Run.step = corrupting  # type: ignore[method-assign]
        try:
            result = tiny_run("service", 0)
        finally:
            run.Run.step = original  # type: ignore[method-assign]
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class Tracing(unittest.TestCase):
    def test_wrappers_are_removed(self) -> None:
        originals: List[Any] = [t.resolve() for t in layers.TARGETS]
        self.assertNotIn(None, originals)
        tracer = Tracer("selftest")
        installation = install(tracer, layers.TARGETS)
        self.assertEqual(len(installed_wrappers(layers.TARGETS)), len(layers.TARGETS))
        installation.remove()
        self.assertEqual(installed_wrappers(layers.TARGETS), [])
        for target, (owner, attr, original) in zip(layers.TARGETS, originals):
            self.assertIs(target.resolve()[2], original, target.path)

    def test_missing_target_is_unmeasured(self) -> None:
        tracer = Tracer("selftest")
        missing = Target("core.scenario", "repro.core.scenario:no_such_function", "x")
        with install(tracer, [missing]):
            pass
        self.assertEqual(tracer.unmeasured, [f"core.scenario: {missing.path}"])

    def test_self_time_excludes_children(self) -> None:
        ticks = iter([0.0, 0.0, 2.0, 5.0, 10.0])
        tracer = Tracer("selftest", clock=lambda: next(ticks))
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        self.assertEqual(tracer.total("parent"), 10.0)
        self.assertEqual(tracer.self_time("parent"), 7.0)
        self.assertEqual(tracer.self_time("child"), 3.0)


if __name__ == "__main__":
    unittest.main()

"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload campaign_full --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout (it imports ``src/repro``).
Every measured step runs in its own child process (``worker.py``);
this file sequences the steps, checks their outputs, and turns their
raw timings into the metrics named in ``BENCHMARK.json``.  See
``perfbench/README.md`` for the workloads and the metric map.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records host facts.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones and writes a Chrome
trace to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, percentile  # noqa: E402
from tracing import write_chrome_trace  # noqa: E402
from worker import SERVICE_CLASSES  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Closed-loop service connections (one per core of the 2-core reference box).
CONNECTIONS = 2
#: Fixed work for the traced twin runs of time-bounded phases.
TRACED_QUERY_PASSES = 2
TRACED_REQUESTS_PER_CONNECTION = 150
STEP_TIMEOUT_S = 175

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # The six-month horizon: 360 small units, planner caches reused.
    "campaign_long": {"kind": "campaign", "scale": 0.05, "days": 180},
    # parse -> queue -> stream of cache-hit results.
    "service": {
        "kind": "service", "scale": 0.05, "days": 10,
        "specs": list(SERVICE_CLASSES.values()),
    },
}

#: Every workload reports all of these; ``ops_per_s`` and the latencies
#: come from its timed phase (see README.md for the per-workload meaning).
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "store_bytes_per_ping": "B",
    "ops_per_s": "1/s", "small_p50_ms": "ms", "small_tail_ms": "ms", "large_p50_ms": "ms",
}


class BenchError(RuntimeError):
    """A step could not run; the benchmark exits without a result."""


class Run:
    """State of one benchmark invocation inside a checkout."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.state = root / ".perfbench"
        self.work = self.state / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.trace_parts: List[Path] = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tree = tree_digest(root / "src")

    # -- steps -----------------------------------------------------------------

    def step(self, task: str, args: Dict[str, Any], traced: bool = False) -> Dict[str, Any]:
        args = dict(args, trace=traced)
        if traced:
            args["run_id"] = f"{self.name}-seed{self.seed}-{task}-{len(self.trace_parts)}"
            args["trace_out"] = str(self.work / f"trace-{len(self.trace_parts)}.json")
            self.trace_parts.append(Path(args["trace_out"]))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), task, json.dumps(args)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=STEP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"{task} step failed:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for problem in result.get("problems", []):
            self.problems.append(f"{task}: {problem}")
        return result

    def build(self, store: Optional[str], traced: bool = False, checks: bool = False) -> Dict[str, Any]:
        args = {"seed": self.seed, "scale": self.spec["scale"], "days": 0}
        if store is not None:
            args.update(days=self.spec["days"], store_dir=str(self.work / store), checks=checks)
        result = self.step("build", args, traced)
        if store is not None:
            self.attempted += result["units"] + result.get("queries", 0)
            self.failed += result["units_failed"]
            self.check_digest(result["digest"])
        return result

    def check_digest(self, digest: str) -> None:
        """Same code + same seed must give the same store, run after run."""
        ledger_path = self.state / "digests.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        key = (
            f"{self.name}|seed={self.seed}|scale={self.spec['scale']}"
            f"|days={self.spec['days']}|src={self.tree}"
        )
        known = ledger.setdefault(key, digest)
        if known != digest:
            self.problems.append(f"store digest {digest} differs from earlier run's {known}")
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        print(f"store_digest {digest}", file=sys.stderr)

    # -- service child -----------------------------------------------------------

    def serve(self) -> Tuple[subprocess.Popen, int]:
        """Start ``python -m repro.service`` on a free port.

        The rate limiter is opened wide: the closed loop is meant to
        measure serving, not 429s.
        """
        log = self.work / f"service-{len(self.trace_parts)}.log"
        with open(log, "w") as sink:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--port", "0",
                 "--store-root", str(self.work / "service-root"),
                 "--rate", "1e9", "--burst", "1e9"],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=sink,
            )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and proc.poll() is None:
            match = re.search(r"http://[^:]+:(\d+)", log.read_text())
            if match is not None:
                return proc, int(match.group(1))
            time.sleep(0.05)
        stop(proc)
        raise BenchError(f"service did not start:\n{log.read_text()[-2000:]}")


def stop(proc: subprocess.Popen) -> None:
    """Interrupt the service and wait for it; kill if it will not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_of(pid: int) -> float:
    """VmHWM of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def tree_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(root: Path, tree: str) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "commit": commit, "src_sha256": tree,
    }


# -- workloads (untraced: end-to-end metrics) -----------------------------------


def store_setups(run: Run) -> Dict[str, float]:
    """``SETUP_REPEATS`` fresh-process store builds; keeps ``store0``."""
    builds = [run.build(f"store{index}") for index in range(SETUP_REPEATS)]
    if len({build["digest"] for build in builds}) != 1:
        run.problems.append("set-up stores of one seed differ")
    for index in range(1, SETUP_REPEATS):
        shutil.rmtree(run.work / f"store{index}")
    return {
        "setup_s": statistics.median([b["build_s"] + b["campaign_s"] for b in builds]),
        "store_bytes_per_ping": builds[0]["store_bytes"] / builds[0]["pings"],
    }


def query_executions(result: Dict[str, Any]) -> int:
    """Query executions a ``query`` step made, its count check included."""
    return 1 + sum(len(p["cold"]) + len(p["warm"]) for p in result["passes"])


def campaign_e2e(run: Run) -> Dict[str, float]:
    setups = [run.build(None)["build_s"] for _ in range(SETUP_REPEATS - 1)]
    result = run.build("store", checks=True)
    setups.append(result["build_s"])
    # Units run platform-major, so Speedchecker units alone fill only the
    # first ~6 s of the campaign: too short a window on a noisy host.
    # Atlas units and whole days (one unit per platform) span the run.
    atlas = result["unit_ms"]["atlas"]
    days = [sc + at for sc, at in zip(result["unit_ms"]["speedchecker"], atlas)]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["rss_peak_mb"],
        "store_bytes_per_ping": result["store_bytes"] / result["pings"],
        "ops_per_s": result["pings"] / result["campaign_s"],
        "small_p50_ms": percentile(atlas, 50),
        "small_tail_ms": percentile(atlas, 90),
        "large_p50_ms": percentile(days, 50),
    }


def service_e2e(run: Run) -> Dict[str, float]:
    metrics = store_setups(run)
    store = str(run.work / "store0")
    # Fills the result cache the service then serves from, and checks
    # cold against warm payloads once.
    warmup = run.step("query", {"store_dir": store, "specs": run.spec["specs"], "passes": 1})
    run.attempted += query_executions(warmup)
    proc, port = run.serve()
    try:
        load = run.step("load", {
            "port": port, "store_dir": store, "seed": run.seed,
            "connections": CONNECTIONS, "seconds": run.seconds,
        })
        metrics["peak_rss_mb"] = peak_rss_of(proc.pid)
    finally:
        stop(proc)
    records = load["records"]
    run.attempted += len(records)
    run.failed += sum(1 for r in records if not r["ok"])

    def latencies(cls: str) -> List[float]:
        return [r["latency_s"] * 1e3 for r in records if r["class"] == cls]

    metrics.update({
        "ops_per_s": len(records) / load["elapsed_s"],
        "small_p50_ms": percentile(latencies("small"), 50),
        "small_tail_ms": percentile(latencies("small"), 99),
        "large_p50_ms": percentile(latencies("large"), 50),
    })
    return metrics


# -- traced twins (per-layer metrics) -------------------------------------------


def traced_layers(run: Run) -> Dict[str, float]:
    kind = run.spec["kind"]
    layer_values: Dict[str, float] = {}
    unmeasured: set = set()
    overhead = 0.0

    def absorb(result: Dict[str, Any]) -> None:
        layer_values.update(result.get("layers", {}))
        unmeasured.update(result.get("unmeasured", []))

    plain = run.build("plain", checks=kind == "campaign")
    traced = run.build("traced", traced=True, checks=kind == "campaign")
    if plain["digest"] != traced["digest"]:
        run.problems.append("traced store digest differs from untraced")
    overhead += traced["work_s"] - plain["work_s"]
    absorb(traced)
    if kind == "service":
        query_args = {"specs": run.spec["specs"], "passes": TRACED_QUERY_PASSES}
        q_plain = run.step("query", dict(query_args, store_dir=str(run.work / "plain")))
        q_traced = run.step("query", dict(query_args, store_dir=str(run.work / "traced")), traced=True)
        overhead += q_traced["work_s"] - q_plain["work_s"]
        run.attempted += query_executions(q_plain) + query_executions(q_traced)
        absorb(q_traced)
        store = str(run.work / "traced")
        proc, port = run.serve()
        try:
            load_args = {
                "port": port, "store_dir": store, "seed": run.seed,
                "connections": CONNECTIONS, "requests": TRACED_REQUESTS_PER_CONNECTION,
            }
            l_plain = run.step("load", load_args)
            l_traced = run.step("load", load_args, traced=True)
        finally:
            stop(proc)
        overhead += l_traced["work_s"] - l_plain["work_s"]
        for load in (l_plain, l_traced):
            run.attempted += len(load["records"])
            run.failed += sum(1 for r in load["records"] if not r["ok"])
        absorb(l_traced)
    metrics = {name: layer_values.get(name, 0.0) for name in PER_LAYER}
    metrics["trace.overhead_s"] = overhead
    metrics["trace.unmeasured_targets"] = len(unmeasured)
    if unmeasured:
        print(f"unmeasured layers: {sorted(unmeasured)}", file=sys.stderr)
    parts = [json.loads(p.read_text()) for p in run.trace_parts if p.exists()]
    out = run.state / "traces" / f"{run.name}-seed{run.seed}.json"
    write_chrome_trace(out, parts)
    print(f"trace written to {out.relative_to(run.root)}", file=sys.stderr)
    return metrics


def run_workload(run: Run) -> Dict[str, Any]:
    if run.trace:
        values = traced_layers(run)
        units = PER_LAYER
    else:
        kind = run.spec["kind"]
        values = {"campaign": campaign_e2e, "service": service_e2e}[kind](run)
        units = END_TO_END
    # Each failed check counts as one failed operation, beside the units
    # and requests the steps counted themselves.
    run.failed += len(run.problems)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a source checkout (src/repro not found)", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        result = run_workload(run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"perfbench: {args.workload} seed {args.seed} took "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps({"host": host_facts(root, run.tree)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

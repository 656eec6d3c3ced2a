"""The layers the benchmark traces, and the per-layer metrics derived from them.

Each :class:`~tracing.Target` names a public function or method in the
program.  Functions that a module imports by name are wrapped where the
caller looks them up (``repro.measure.campaign:execute_plan``), so the
wrapper sits on the call the campaign actually makes.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from tracing import Target, Tracer


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- observers (run outside the span, charged to trace.observe_s) -----------


def _observe_routes(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _d: float) -> None:
    topology, provider, continent = (*args, *kwargs.values())[:3]
    tracer.key("net.route_keys", (topology.network_code(provider), str(continent)))


def _observe_pairs(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _d: float) -> None:
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    tracer.count("path.pairs", len(pairs))
    keys = tracer.keys.setdefault("path.pair_keys", set())
    for probe, region in pairs:
        keys.add((probe.probe_id, region.provider_code, region.region_id))


def _observe_ping_batch(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _d: float) -> None:
    tracer.count("engine.samples", int(result.sample_count))


def _observe_trace_batch(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _d: float) -> None:
    tracer.count("engine.samples", sum(len(record.hops) for record in result))


def _observe_columnarize(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _d: float) -> None:
    tracer.count("results.trace_records", len(args[0]))


def _observe_write_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _d: float) -> None:
    tracer.count("store.shard_bytes", len(args[2]))


def _observe_unit(tracer: Tracer, args: tuple, kwargs: dict, result: Any, duration: float) -> None:
    tracer.sample(f"unit.{args[1].split(':')[0]}", duration)


def _observe_plan(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _d: float) -> None:
    summary = result.as_dict()
    tracer.count("query.shards_scanned", summary["shards_scanned"])
    tracer.count("query.shards_pruned", summary["shards_pruned"])
    tracer.count("query.rows_scanned", summary["rows_scanned"])


def _observe_cache_get(tracer: Tracer, args: tuple, kwargs: dict, result: Any, _d: float) -> None:
    tracer.count("query.cache_gets")
    if result is not None:
        tracer.count("query.cache_hits")


TARGETS: List[Target] = [
    Target("core.scenario", "repro.core.scenario:build_topology", "scenario.build_topology"),
    Target("core.scenario", "repro.core.scenario:deploy_probes", "scenario.deploy_probes"),
    Target("net", "repro.core.topology:Topology.routes_for", "net.routes_for",
           keep=False, observe=_observe_routes),
    Target("measure.path", "repro.measure.path:PathPlanner.plan_many", "path.plan_many",
           observe=_observe_pairs),
    Target("measure.engine", "repro.measure.engine:MeasurementEngine.ping_batch",
           "engine.ping_batch", observe=_observe_ping_batch),
    Target("measure.engine", "repro.measure.engine:MeasurementEngine.traceroute_batch",
           "engine.trace_batch", observe=_observe_trace_batch),
    Target("measure.results", "repro.measure.campaign:trace_block_from_records",
           "results.columnarize", observe=_observe_columnarize),
    Target("store", "repro.store.warehouse:DatasetStore.write_unit_shards",
           "store.write_unit_shards"),
    Target("store", "repro.store.warehouse:DatasetStore.journal_unit", "store.journal_unit"),
    Target("store", "repro.store.fileops:FileOps.write_bytes", "store.write_bytes",
           observe=_observe_write_bytes),
    Target("store", "repro.store.fileops:FileOps.replace", "store.replace"),
    Target("measure.resilience", "repro.measure.campaign:execute_plan", "unit.execute_plan"),
    Target("measure.resilience", "repro.measure.campaign:CheckpointExecutor.__call__",
           "unit.execute", observe=_observe_unit),
    Target("query", "repro.query.builder:build_plan", "query.build_plan", observe=_observe_plan),
    Target("query", "repro.query.builder:scan_shards", "query.scan"),
    Target("query", "repro.query.scan:GroupState.merge", "query.merge", keep=False),
    Target("query", "repro.query.builder:group_rows", "query.group_rows"),
    Target("query", "repro.query.cache:QueryCache.get", "query.cache_get",
           observe=_observe_cache_get),
    Target("query", "repro.query.cache:QueryCache.put", "query.cache_put"),
]

#: Root span the campaign worker opens around ``run_campaign_checkpointed``.
CAMPAIGN_SPAN = "campaign.run"


def campaign_metrics(tracer: Tracer, rss_mb: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign (world build included)."""
    if tracer.calls(CAMPAIGN_SPAN) == 0:
        return {}
    route_calls = tracer.calls("net.routes_for")
    pairs = tracer.counters.get("path.pairs", 0)
    plan_s = tracer.total("path.plan_many")
    ping_self = tracer.self_time("engine.ping_batch")
    trace_self = tracer.self_time("engine.trace_batch")
    samples = tracer.counters.get("engine.samples", 0)
    commits = [
        write + journal
        for write, journal in zip(
            tracer.durations("store.write_unit_shards"),
            tracer.durations("store.journal_unit"),
        )
    ]
    wall = tracer.total(CAMPAIGN_SPAN)
    metrics = {
        "scenario.build_topology_s": tracer.total("scenario.build_topology"),
        "scenario.deploy_probes_s": tracer.total("scenario.deploy_probes"),
        "net.routes_for_calls": route_calls,
        "net.routes_for_s": tracer.total("net.routes_for"),
        "net.route_reuse": (
            1 - len(tracer.keys.get("net.route_keys", ())) / route_calls
            if route_calls else 0.0
        ),
        "path.plan_many_self_s": tracer.self_time("path.plan_many"),
        "path.pairs": pairs,
        "path.pair_reuse": (
            1 - len(tracer.keys.get("path.pair_keys", ())) / pairs if pairs else 0.0
        ),
        "path.pairs_per_s": pairs / plan_s if plan_s else 0.0,
        "engine.ping_batch_self_s": ping_self,
        "engine.trace_batch_self_s": trace_self,
        "engine.samples": samples,
        "engine.samples_per_s": (
            samples / (ping_self + trace_self) if ping_self + trace_self else 0.0
        ),
        "results.columnarize_s": tracer.total("results.columnarize"),
        "results.trace_records": tracer.counters.get("results.trace_records", 0),
        "store.write_unit_shards_s": tracer.total("store.write_unit_shards"),
        "store.shard_bytes": tracer.counters.get("store.shard_bytes", 0),
        "store.fsyncs": tracer.calls("store.write_bytes") + tracer.calls("store.replace"),
        "store.journal_unit_s": tracer.total("store.journal_unit"),
        "store.commit_p50_ms": percentile(commits, 50) * 1e3,
        "store.commit_p95_ms": percentile(commits, 95) * 1e3,
        "unit.orchestration_s": tracer.self_time("unit.execute_plan"),
        "unit.schedule_self_s": tracer.self_time("unit.execute"),
        "campaign.rss_mb_per_unit": _slope(rss_mb),
        # Every layer span under the campaign root is a blocking step of
        # the serial unit loop, so what the root keeps as self time is
        # campaign wall time no listed layer explains.
        "trace.unaccounted_share": (
            tracer.self_time(CAMPAIGN_SPAN) / wall if wall else 0.0
        ),
    }
    for platform in ("speedchecker", "atlas"):
        times = tracer.samples.get(f"unit.{platform}", [])
        metrics[f"unit.{platform}_execute_p50_ms"] = percentile(times, 50) * 1e3
        metrics[f"unit.{platform}_execute_p95_ms"] = percentile(times, 95) * 1e3
    return metrics


def query_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of every traced ``repro.query.execute`` call."""
    gets = tracer.counters.get("query.cache_gets", 0)
    if tracer.calls("query.build_plan") == 0 and gets == 0:
        return {}
    scan_s = tracer.total("query.scan")
    return {
        "query.build_plan_s": tracer.total("query.build_plan"),
        "query.shards_scanned": tracer.counters.get("query.shards_scanned", 0),
        "query.shards_pruned": tracer.counters.get("query.shards_pruned", 0),
        "query.scan_self_s": tracer.self_time("query.scan"),
        "query.merge_s": tracer.total("query.merge"),
        "query.group_rows_s": tracer.total("query.group_rows"),
        "query.cache_get_s": tracer.total("query.cache_get"),
        "query.cache_put_s": tracer.total("query.cache_put"),
        "query.cache_hit_ratio": (
            tracer.counters.get("query.cache_hits", 0) / gets if gets else 0.0
        ),
        "query.rows_scanned_per_s": (
            tracer.counters.get("query.rows_scanned", 0) / scan_s if scan_s else 0.0
        ),
    }


def service_metrics(records: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Client-side service metrics from per-request (class, ttfb, stream, bytes)."""
    metrics: Dict[str, float] = {}
    for cls in ("small", "medium", "large"):
        ttfb = [r["ttfb_s"] * 1e3 for r in records if r["class"] == cls]
        stream = [r["stream_s"] * 1e3 for r in records if r["class"] == cls]
        metrics[f"service.{cls}_ttfb_p50_ms"] = percentile(ttfb, 50)
        metrics[f"service.{cls}_stream_p50_ms"] = percentile(stream, 50)
    metrics["service.small_ttfb_p99_ms"] = percentile(
        [r["ttfb_s"] * 1e3 for r in records if r["class"] == "small"], 99
    )
    total_bytes = sum(r["bytes"] for r in records)
    stream_s = sum(r["stream_s"] for r in records)
    metrics["service.response_bytes"] = total_bytes
    metrics["service.stream_mb_per_s"] = (
        total_bytes / 1e6 / stream_s if stream_s else 0.0
    )
    return metrics


def _slope(values: Sequence[float]) -> float:
    """Least-squares slope of ``values`` against their index."""
    n = len(values)
    if n < 2:
        return 0.0
    xs = range(n)
    mean_x = (n - 1) / 2
    mean_y = statistics.fmean(values)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, values))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


#: Every per-layer metric the traced run reports, with its unit.  A layer a
#: workload does not exercise reports 0 (the service client metrics outside
#: ``service``).
PER_LAYER: Dict[str, str] = {
    "scenario.build_topology_s": "s",
    "scenario.deploy_probes_s": "s",
    "net.routes_for_calls": "count",
    "net.routes_for_s": "s",
    "net.route_reuse": "ratio",
    "path.plan_many_self_s": "s",
    "path.pairs": "count",
    "path.pair_reuse": "ratio",
    "path.pairs_per_s": "1/s",
    "engine.ping_batch_self_s": "s",
    "engine.trace_batch_self_s": "s",
    "engine.samples": "count",
    "engine.samples_per_s": "1/s",
    "results.columnarize_s": "s",
    "results.trace_records": "count",
    "store.write_unit_shards_s": "s",
    "store.shard_bytes": "B",
    "store.fsyncs": "count",
    "store.journal_unit_s": "s",
    "store.commit_p50_ms": "ms",
    "store.commit_p95_ms": "ms",
    "unit.speedchecker_execute_p50_ms": "ms",
    "unit.speedchecker_execute_p95_ms": "ms",
    "unit.atlas_execute_p50_ms": "ms",
    "unit.atlas_execute_p95_ms": "ms",
    "unit.orchestration_s": "s",
    "unit.schedule_self_s": "s",
    "campaign.rss_mb_per_unit": "MB/unit",
    "query.build_plan_s": "s",
    "query.shards_scanned": "count",
    "query.shards_pruned": "count",
    "query.scan_self_s": "s",
    "query.merge_s": "s",
    "query.group_rows_s": "s",
    "query.cache_get_s": "s",
    "query.cache_put_s": "s",
    "query.cache_hit_ratio": "ratio",
    "query.rows_scanned_per_s": "1/s",
    "service.small_ttfb_p50_ms": "ms",
    "service.small_ttfb_p99_ms": "ms",
    "service.medium_ttfb_p50_ms": "ms",
    "service.large_ttfb_p50_ms": "ms",
    "service.small_stream_p50_ms": "ms",
    "service.medium_stream_p50_ms": "ms",
    "service.large_stream_p50_ms": "ms",
    "service.response_bytes": "B",
    "service.stream_mb_per_s": "MB/s",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_s": "s",
    "trace.unmeasured_targets": "count",
}

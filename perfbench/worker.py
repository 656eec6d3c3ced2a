"""Benchmark child processes: one task per process, result on the last line.

Every measured step runs in a fresh interpreter, as a user's command
would: a process-wide cache warmed by one set-up (the route-table memo,
for example) must not make the next one faster, and a world frozen into
the collector's permanent generation must not inflate the next step's
memory high-water mark.

    python perfbench/worker.py <task> '<json arguments>'

Tasks:

- ``build``: ``build_world`` and, with ``days`` > 0, a serial
  ``run_campaign_checkpointed`` into ``store_dir``, then the store checks
  (``verify``, every planned unit committed, canonical digest) and, with
  ``checks``, the per-platform ``count`` queries.
- ``query``: cold and warm passes of named query specs over a store
  (fills the result cache the service serves from).
- ``load``: the closed-loop client of a running ``repro.service``.

With ``trace`` set, the task wraps the layer functions
(:data:`layers.TARGETS`), writes its spans to ``trace_out`` and returns
the per-layer metrics it saw.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
from tracing import Tracer, install

clock = time.perf_counter

# -- query specs --------------------------------------------------------------

#: Specs as ``QuerySpec`` keyword arguments (JSON-safe, so the orchestrator
#: and the service client can pass them on unchanged).
SPECS: Dict[str, Dict[str, Any]] = {
    # Service request classes.  ``large`` returns ~5.2k rows whichever the
    # seed; the per-probe group-by of analysis/nearest.py returns 2.8k-4.7k
    # rows on a 10-day store, so the seed, not the code, would set its
    # latency.
    "provider": {"group_by": ["provider"]},
    "country_provider_q": {
        "group_by": ["country", "provider"], "quantiles": [50.0, 90.0],
    },
    "country_region_protocol": {"group_by": ["country", "provider", "region", "protocol"]},
    # Output checks: per-platform counts must add up to the store's pings.
    "count_speedchecker": {
        "platform": "speedchecker", "group_by": ["provider"], "aggregates": ["count"],
    },
    "count_atlas": {
        "platform": "atlas", "group_by": ["provider"], "aggregates": ["count"],
    },
}

SERVICE_CLASSES = {
    "small": "provider", "medium": "country_provider_q", "large": "country_region_protocol",
}
#: One block of the request mix (90% / 8% / 2%).  Each connection sends
#: seeded shuffles of whole blocks, so the seed changes the order but a
#: 10-second run cannot draw twice the share of large streams by chance.
SERVICE_BLOCK = ["small"] * 45 + ["medium"] * 4 + ["large"]


def spec(name: str) -> Any:
    from repro.query import QuerySpec

    return QuerySpec(**SPECS[name])


def canonical(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


# -- process facts -------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    try:
        with open("/proc/self/statm", "rb") as fh:
            resident = int(fh.read().split()[1])
    except OSError:
        return peak_rss_mb()
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def store_bytes(run_dir: Path) -> int:
    """Shard, journal and manifest bytes; derived caches excluded."""
    from repro.exec.digest import DERIVED_DIRS

    total = 0
    for path in run_dir.rglob("*"):
        relative = path.relative_to(run_dir).parts
        if path.is_file() and relative[0] not in DERIVED_DIRS:
            total += path.stat().st_size
    return total


def _tracer(args: Dict[str, Any]) -> Optional[Tracer]:
    return Tracer(args["run_id"]) if args.get("trace") else None


def _finish_trace(tracer: Optional[Tracer], args: Dict[str, Any], task: str) -> None:
    if tracer is None:
        return
    part = {
        "pid": os.getpid(), "label": f"{task} {args['run_id']}",
        "events": tracer.chrome_events(os.getpid()),
    }
    with open(args["trace_out"], "w", encoding="utf-8") as fh:
        json.dump(part, fh)


# -- build --------------------------------------------------------------------


def _timed_queries(store: Any, names: List[str], cache: bool) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from repro.query import execute

    times: Dict[str, float] = {}
    results: Dict[str, Any] = {}
    for name in names:
        started = clock()
        results[name] = execute(store, spec(name), cache=cache)
        times[name] = clock() - started
    return times, results


def task_build(args: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.scenario import build_world

    tracer = _tracer(args)
    installation = install(tracer, layers.TARGETS) if tracer else contextlib.nullcontext()
    out: Dict[str, Any] = {"problems": []}
    with installation:
        started = clock()
        world = build_world(seed=args["seed"], scale=args["scale"])
        built = clock()
        out["build_s"] = built - started
        if args["days"]:
            out.update(_campaign(world, args, tracer))
        out["work_s"] = clock() - started
    out["rss_peak_mb"] = peak_rss_mb()
    if tracer is not None:
        out["layers"] = {
            **layers.campaign_metrics(tracer, out.get("rss_per_unit_mb", [])),
            **layers.query_metrics(tracer),
        }
        out["unmeasured"] = tracer.unmeasured
    _finish_trace(tracer, args, "build")
    return out


def _campaign(world: Any, args: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.exec.digest import store_digest
    from repro.measure.campaign import (
        CHECKPOINT_PLATFORMS,
        plan_units,
        run_campaign_checkpointed,
    )

    commits: List[Tuple[float, str, float]] = []

    def on_commit(entry: Dict[str, Any]) -> None:
        commits.append((clock(), str(entry.get("unit")), current_rss_mb()))

    run_dir = Path(args["store_dir"])
    span = tracer.span(layers.CAMPAIGN_SPAN) if tracer else contextlib.nullcontext()
    started = clock()
    with span:
        store = run_campaign_checkpointed(
            world, run_dir, days=args["days"], workers=1, on_commit=on_commit
        )
    campaign_s = clock() - started

    problems: List[str] = list(store.verify())
    planned = plan_units(args["days"], list(CHECKPOINT_PLATFORMS))
    coverage = store.coverage()
    if store.completed_units() != planned or coverage.partial or coverage.skipped:
        problems.append(
            f"units: planned {len(planned)}, completed {coverage.completed}, "
            f"partial {coverage.partial}, skipped {coverage.skipped}"
        )
    unit_ms: Dict[str, List[float]] = {"speedchecker": [], "atlas": []}
    previous = started
    for at, unit, _rss in commits:
        unit_ms.setdefault(unit.split(":")[0], []).append((at - previous) * 1e3)
        previous = at
    out: Dict[str, Any] = {
        "campaign_s": campaign_s,
        "pings": store.ping_count,
        "units": len(planned),
        "units_failed": len(planned) - coverage.completed,
        "unit_ms": unit_ms,
        "rss_per_unit_mb": [rss for _at, _unit, rss in commits],
        "digest": store_digest(run_dir),
        "store_bytes": store_bytes(run_dir),
    }
    if args.get("checks"):
        names = ["count_speedchecker", "count_atlas"]
        _cold, cold_results = _timed_queries(store, names, cache=True)
        _warm, warm_results = _timed_queries(store, names, cache=True)
        counted = 0
        for name in names:
            if canonical(cold_results[name].payload()) != canonical(warm_results[name].payload()):
                problems.append(f"{name}: warm payload differs from cold")
            if warm_results[name].meta.get("cache") != "hit":
                problems.append(f"{name}: warm run missed the cache")
            counted += sum(row["count"] for row in cold_results[name].rows)
        if counted != store.ping_count:
            problems.append(f"count queries sum to {counted}, store has {store.ping_count}")
        out["queries"] = 2 * len(names)
    out["problems"] = problems
    return out


# -- query --------------------------------------------------------------------


def _differences(results: Dict[str, Any], reference: Dict[str, bytes], label: str) -> List[str]:
    """Problems: payloads that differ from the reference digests, warm misses."""
    problems = []
    for name, result in results.items():
        if hashlib.sha256(canonical(result.payload())).digest() != reference[name]:
            problems.append(f"{name}: {label} payload differs")
        if label == "warm" and result.meta.get("cache") != "hit":
            problems.append(f"{name}: warm run missed the cache")
    return problems


def task_query(args: Dict[str, Any]) -> Dict[str, Any]:
    """Prime the result cache, then ``passes`` passes: every spec cold
    (``cache=False``), then every spec warm (a cache hit).  Every payload
    must match the priming run's."""
    from repro.query import execute
    from repro.store import DatasetStore

    tracer = _tracer(args)
    installation = install(tracer, layers.TARGETS) if tracer else contextlib.nullcontext()
    names: List[str] = args["specs"]
    problems: List[str] = []
    passes: List[Dict[str, Any]] = []
    with installation:
        started = clock()
        store = DatasetStore.open(args["store_dir"])
        reference = {
            name: hashlib.sha256(canonical(execute(store, spec(name)).payload())).digest()
            for name in names
        }
        for _pass in range(args["passes"]):
            cold, results = _timed_queries(store, names, cache=False)
            problems.extend(_differences(results, reference, "cold"))
            warm, results = _timed_queries(store, names, cache=True)
            problems.extend(_differences(results, reference, "warm"))
            passes.append({"cold": cold, "warm": warm})
        count = execute(store, spec("provider").with_(aggregates=("count",)), cache=False)
        counted = sum(row["count"] for row in count.rows)
        if counted != store.ping_count:
            problems.append(f"provider counts sum to {counted}, store has {store.ping_count}")
        out: Dict[str, Any] = {"work_s": clock() - started}
    out.update(passes=passes, problems=problems, rss_peak_mb=peak_rss_mb())
    if tracer is not None:
        out["layers"] = layers.query_metrics(tracer)
        out["unmeasured"] = tracer.unmeasured
    _finish_trace(tracer, args, "query")
    return out


# -- load ---------------------------------------------------------------------


def _request_bytes(store_dir: str, name: str, tenant: str) -> bytes:
    body = json.dumps({"spec": spec(name).canonical(), "store": store_dir}, sort_keys=True)
    head = (
        "POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
        f"X-Tenant: {tenant}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body.encode("utf-8")


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
) -> Tuple[int, bytes, float, float, float]:
    """Send one request; (status, body bytes, sent, first byte, last byte)."""
    sent = clock()
    writer.write(request)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    first = clock()
    status = int(head.split(b" ", 2)[1])
    lowered = head.lower()
    if b"transfer-encoding: chunked" in lowered:
        body = bytearray()
        while not body.endswith(b"\r\n0\r\n\r\n") and body != b"0\r\n\r\n":
            chunk = await reader.read(1 << 16)
            if not chunk:
                raise ConnectionError("service closed the connection mid-stream")
            body += chunk
        payload = bytes(body)
    else:
        length = 0
        for line in lowered.split(b"\r\n"):
            if line.startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        payload = await reader.readexactly(length)
    return status, payload, sent, first, clock()


def _decode_stream(body: bytes) -> List[Dict[str, Any]]:
    """NDJSON events of a chunked body (used once per class at set-up)."""
    events = []
    view = memoryview(body)
    pos = 0
    while True:
        eol = body.index(b"\r\n", pos)
        size = int(body[pos:eol], 16)
        if size == 0:
            return events
        events.append(json.loads(bytes(view[eol + 2: eol + 2 + size])))
        pos = eol + 2 + size + 2


async def _load(args: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.query import execute
    from repro.store import DatasetStore

    port, store_dir = args["port"], args["store_dir"]
    problems: List[str] = []
    conns = [await asyncio.open_connection("127.0.0.1", port) for _ in range(args["connections"])]
    requests = {
        (cls, index): _request_bytes(store_dir, name, f"tenant-{index}")
        for cls, name in SERVICE_CLASSES.items()
        for index in range(len(conns))
    }
    # Reference bytes: one response per class, checked row for row
    # against the same query executed in-process.
    store = DatasetStore.open(store_dir)
    reference: Dict[str, bytes] = {}
    for cls, name in SERVICE_CLASSES.items():
        status, body, *_ = await _exchange(*conns[0], requests[(cls, 0)])
        events = _decode_stream(body) if status == 200 else []
        expected = execute(store, spec(name)).payload()
        rows = [{k: v for k, v in e.items() if k not in ("event", "index")} for e in events[1:]]
        if status != 200 or rows != expected["rows"] or events[0]["row_count"] != len(rows):
            problems.append(f"{cls}: service response differs from execute()")
        reference[cls] = body
    for cls in args.get("corrupt", []):
        reference[cls] = reference[cls][:-8] + b"corrupt!"

    records: List[Dict[str, Any]] = []
    deadline = clock() + args.get("seconds", 0)
    budget = args.get("requests")

    async def drive(index: int) -> None:
        reader, writer = conns[index]
        rng = random.Random(f"{args['seed']}:{index}")
        block: List[str] = []
        sent_count = 0
        while (budget is None and clock() < deadline) or (budget is not None and sent_count < budget):
            if not block:
                block = list(SERVICE_BLOCK)
                rng.shuffle(block)
            cls = block.pop()
            status, body, sent, first, last = await _exchange(reader, writer, requests[(cls, index)])
            sent_count += 1
            ok = status == 200 and body == reference[cls]
            records.append({
                "class": cls, "ok": ok, "bytes": len(body),
                "latency_s": last - sent, "ttfb_s": first - sent, "stream_s": last - first,
            })
            if tracer is not None:
                tracer.record(f"service.{cls}.ttfb", sent, first, lane=index + 1)
                tracer.record(f"service.{cls}.stream", first, last, lane=index + 1)

    started = clock()
    await asyncio.gather(*(drive(index) for index in range(len(conns))))
    elapsed = clock() - started
    for _reader, writer in conns:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()
    return {"records": records, "elapsed_s": elapsed, "problems": problems}


def task_load(args: Dict[str, Any]) -> Dict[str, Any]:
    tracer = _tracer(args)
    started = clock()
    out = asyncio.run(_load(args, tracer))
    out["work_s"] = clock() - started
    if tracer is not None:
        out["layers"] = layers.service_metrics(out["records"])
        out["unmeasured"] = []
    _finish_trace(tracer, args, "load")
    return out


TASKS = {"build": task_build, "query": task_query, "load": task_load}


def main(argv: List[str]) -> int:
    if len(argv) != 3 or argv[1] not in TASKS:
        print(f"usage: worker.py {{{','.join(TASKS)}}} '<json>'", file=sys.stderr)
        return 2
    result = TASKS[argv[1]](json.loads(argv[2]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

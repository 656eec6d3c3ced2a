"""Service-layer load benchmarks: the sustained-throughput gate.

The contract of ``repro.service`` (docs/SERVICE.md): one service
instance on a single event loop sustains **>= 500 requests/second at
64 concurrent clients** running streamed ``POST /v1/query`` requests
against a 20%-scale world's store, within a p99 latency budget and a
peak-RSS budget.  The workload is the intended steady state of a
deployed instance: repeated query specs served as ``.querycache`` hits,
the scan itself dispatched once through the executor bridge and then
amortized by the cache.

The rate limiter stays in the admission path (every request pays for
its token-bucket charge) but is provisioned so it never rejects --
throttling behaviour has its own tests in
``tests/integration/test_service.py``.  Every measurement lands in
``BENCH_service.json`` so CI archives the trend.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
from pathlib import Path

import pytest

from memprof import peak_rss_mb
from repro import build_world
from repro.exec.digest import store_digest
from repro.measure.campaign import run_campaign_checkpointed
from repro.service import ServiceApp, ServiceClient, TenantPolicy

SERVICE_SEED = 7
SERVICE_SCALE = 0.2
SERVICE_DAYS = 1

CLIENTS = 64
REQUESTS_PER_CLIENT = 25
SUBSCRIBERS = 64

#: The CI gates: sustained admission rate across all clients, tail
#: latency of one streamed query under full concurrency, and the
#: process-wide RSS high-water mark after the run.
MIN_THROUGHPUT_RPS = 500.0
P99_BUDGET_MS = 500.0
RSS_BUDGET_MB = 1024.0

#: The query every client repeats: a grouped aggregate over the ping
#: table -- exactly the shape the ``.querycache`` memoizes.
QUERY_SPEC = {
    "kind": "pings",
    "group_by": ["provider"],
    "aggregates": ["count", "mean"],
}

#: The wide-stream case: a few clients repeat a group-by whose result
#: has thousands of rows, so each response is a long NDJSON stream and
#: the per-request cost is streaming, not admission.
WIDE_CLIENTS = 4
WIDE_REQUESTS_PER_CLIENT = 10
WIDE_QUERY_SPEC = {
    "kind": "pings",
    "group_by": ["country", "provider", "region", "protocol"],
    "aggregates": ["count", "mean"],
}
WIDE_MIN_ROWS = 1000
WIDE_P50_BUDGET_MS = 60.0

#: Generous enough that 64 clients x 25 requests never see a 429; the
#: bucket charge itself still runs on every admission.
LOAD_POLICY = TenantPolicy(rate=1e6, burst=1e6)

RESULTS_PATH = Path(os.environ.get("BENCH_SERVICE_JSON", "BENCH_service.json"))


@pytest.fixture(scope="module")
def results():
    """Accumulates every measurement; written as JSON on teardown."""
    data: dict = {
        "schema": "bench-service/1",
        "seed": SERVICE_SEED,
        "scale": SERVICE_SCALE,
        "days": SERVICE_DAYS,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "budgets": {
            "min_throughput_rps": MIN_THROUGHPUT_RPS,
            "p99_ms": P99_BUDGET_MS,
            "peak_rss_mb": RSS_BUDGET_MB,
            "wide_p50_ms": WIDE_P50_BUDGET_MS,
        },
    }
    yield data
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\nservice benchmark results written to {RESULTS_PATH}")


@pytest.fixture(scope="module")
def service_world():
    """A 20%-scale world: the workload class of the parallel benches."""
    return build_world(seed=SERVICE_SEED, scale=SERVICE_SCALE)


@pytest.fixture(scope="module")
def service_store(service_world, tmp_path_factory):
    """One finished campaign day at 20% scale -- the query target."""
    run_dir = tmp_path_factory.mktemp("bench-service") / "store"
    return run_campaign_checkpointed(
        service_world, run_dir, days=SERVICE_DAYS
    ).run_dir


def _percentile(samples, q):
    ordered = sorted(samples)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def test_query_load_gate(results, service_world, service_store, tmp_path):
    """64 clients x 25 streamed queries: >= 500 req/s, p99 in budget."""

    async def scenario():
        app = ServiceApp(
            tmp_path / "svc", default_policy=LOAD_POLICY, concurrency=1
        )
        app.scheduler._worlds[(SERVICE_SEED, SERVICE_SCALE)] = service_world
        port = await app.start("127.0.0.1", 0)
        body = {"store": str(service_store), "spec": QUERY_SPEC}
        clients = [
            ServiceClient("127.0.0.1", port) for _ in range(CLIENTS)
        ]
        try:
            # One cold request populates the .querycache; every measured
            # request after it is the steady-state cache-hit path.
            cold_start = time.perf_counter()
            status, _, lines = await clients[0].collect(
                "POST", "/v1/query", body
            )
            cold_s = time.perf_counter() - cold_start
            assert status == 200, lines
            expected_rows = lines[1:]
            assert lines[0]["row_count"] == len(expected_rows) >= 1

            async def drive(client):
                latencies = []
                for _ in range(REQUESTS_PER_CLIENT):
                    start = time.perf_counter()
                    status, _, lines = await client.collect(
                        "POST", "/v1/query", body
                    )
                    latencies.append(time.perf_counter() - start)
                    assert status == 200
                    assert lines[1:] == expected_rows
                return latencies

            load_start = time.perf_counter()
            per_client = await asyncio.gather(
                *(drive(client) for client in clients)
            )
            elapsed = time.perf_counter() - load_start
        finally:
            for client in clients:
                await client.close()
            await app.close()
        return cold_s, per_client, elapsed

    cold_s, per_client, elapsed = asyncio.run(scenario())
    latencies = [latency for batch in per_client for latency in batch]
    total = len(latencies)
    throughput = total / elapsed
    p50_ms = _percentile(latencies, 0.50) * 1e3
    p99_ms = _percentile(latencies, 0.99) * 1e3
    rss = peak_rss_mb()
    results["query_load"] = {
        "requests": total,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(throughput, 1),
        "cold_query_ms": round(cold_s * 1e3, 2),
        "p50_ms": round(p50_ms, 2),
        "p99_ms": round(p99_ms, 2),
        "peak_rss_mb": round(rss, 1),
    }
    print(
        f"\n{total} requests over {CLIENTS} clients in {elapsed:.2f}s: "
        f"{throughput:.0f} req/s, p50 {p50_ms:.1f} ms, p99 {p99_ms:.1f} ms "
        f"(cold {cold_s * 1e3:.0f} ms), peak RSS {rss:.0f} MB"
    )
    assert throughput >= MIN_THROUGHPUT_RPS, (
        f"sustained {throughput:.0f} req/s under {CLIENTS} clients "
        f"(contract: >= {MIN_THROUGHPUT_RPS:.0f} req/s)"
    )
    assert p99_ms <= P99_BUDGET_MS, (
        f"p99 latency {p99_ms:.1f} ms exceeds the {P99_BUDGET_MS:.0f} ms "
        "budget"
    )
    assert rss <= RSS_BUDGET_MB, (
        f"peak RSS {rss:.0f} MB exceeds the {RSS_BUDGET_MB:.0f} MB budget"
    )


async def _raw_exchange(reader, writer, request):
    """Send one raw request; (status, chunked body bytes as received).

    The wide case compares response bytes instead of decoding NDJSON
    rows, so the client's JSON parsing stays out of the measurement.
    """
    writer.write(request)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    body = bytearray()
    while not body.endswith(b"\r\n0\r\n\r\n") and body != b"0\r\n\r\n":
        chunk = await reader.read(1 << 16)
        if not chunk:
            raise ConnectionError("service closed the connection mid-stream")
        body += chunk
    return status, bytes(body)


def test_wide_stream_gate(results, service_store, tmp_path):
    """A few clients repeat a thousands-of-rows query: p50 in budget."""
    payload = json.dumps(
        {"store": str(service_store), "spec": WIDE_QUERY_SPEC}
    ).encode("utf-8")
    request = (
        b"POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
        + f"Content-Length: {len(payload)}\r\n\r\n".encode("latin-1")
        + payload
    )

    async def scenario():
        app = ServiceApp(
            tmp_path / "svc", default_policy=LOAD_POLICY, concurrency=1
        )
        port = await app.start("127.0.0.1", 0)
        client = ServiceClient("127.0.0.1", port)
        conns = [
            await asyncio.open_connection("127.0.0.1", port)
            for _ in range(WIDE_CLIENTS)
        ]
        try:
            # A decoded cold request fills the cache and counts the rows;
            # its first raw repeat is the reference for every response.
            status, _, lines = await client.collect(
                "POST", "/v1/query", json.loads(payload)
            )
            assert status == 200, lines
            rows = lines[0]["row_count"]
            assert rows == len(lines) - 1
            status, reference = await _raw_exchange(*conns[0], request)
            assert status == 200

            async def drive(reader, writer):
                latencies = []
                for _ in range(WIDE_REQUESTS_PER_CLIENT):
                    start = time.perf_counter()
                    status, body = await _raw_exchange(reader, writer, request)
                    latencies.append(time.perf_counter() - start)
                    assert status == 200
                    assert body == reference
                return latencies

            load_start = time.perf_counter()
            per_client = await asyncio.gather(
                *(drive(reader, writer) for reader, writer in conns)
            )
            elapsed = time.perf_counter() - load_start
        finally:
            await client.close()
            for _, writer in conns:
                writer.close()
                await writer.wait_closed()
            await app.close()
        return rows, len(reference), per_client, elapsed

    rows, body_bytes, per_client, elapsed = asyncio.run(scenario())
    latencies = [latency for batch in per_client for latency in batch]
    p50_ms = _percentile(latencies, 0.50) * 1e3
    results["wide_stream"] = {
        "clients": WIDE_CLIENTS,
        "rows": rows,
        "body_bytes": body_bytes,
        "requests": len(latencies),
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(len(latencies) / elapsed, 1),
        "p50_ms": round(p50_ms, 2),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 2),
    }
    print(
        f"\n{len(latencies)} wide queries ({rows} rows, {body_bytes} B each) "
        f"over {WIDE_CLIENTS} clients in {elapsed:.2f}s: p50 {p50_ms:.1f} ms"
    )
    assert rows >= WIDE_MIN_ROWS, (
        f"the wide query returned {rows} rows (expected >= {WIDE_MIN_ROWS})"
    )
    assert p50_ms <= WIDE_P50_BUDGET_MS, (
        f"wide-stream p50 {p50_ms:.1f} ms exceeds the "
        f"{WIDE_P50_BUDGET_MS:.0f} ms budget"
    )


def test_event_stream_fanout(results, service_world, tmp_path):
    """One 20%-scale campaign day over HTTP, 64 concurrent subscribers:
    every stream is identical and the store digest matches the job dir."""

    async def scenario():
        app = ServiceApp(
            tmp_path / "svc", default_policy=LOAD_POLICY, concurrency=1
        )
        app.scheduler._worlds[(SERVICE_SEED, SERVICE_SCALE)] = service_world
        port = await app.start("127.0.0.1", 0)
        clients = [
            ServiceClient("127.0.0.1", port) for _ in range(SUBSCRIBERS)
        ]
        try:
            start = time.perf_counter()
            status, _, job = await clients[0].request(
                "POST",
                "/v1/campaigns",
                {
                    "seed": SERVICE_SEED,
                    "scale": SERVICE_SCALE,
                    "days": SERVICE_DAYS,
                },
            )
            assert status == 202, job
            streams = await asyncio.gather(
                *(
                    client.collect(
                        "GET", f"/v1/campaigns/{job['job']}/events"
                    )
                    for client in clients
                )
            )
            elapsed = time.perf_counter() - start
        finally:
            for client in clients:
                await client.close()
            await app.close()
        return job, streams, elapsed

    job, streams, elapsed = asyncio.run(scenario())
    events = streams[0][2]
    assert all(status == 200 for status, _, _ in streams)
    assert all(other == events for _, _, other in streams[1:])
    assert events[-1]["event"] == "done"
    assert events[-1]["store_digest"] == store_digest(
        tmp_path / "svc" / "jobs" / job["job"]
    )
    results["stream_fanout"] = {
        "subscribers": SUBSCRIBERS,
        "events_per_stream": len(events),
        "campaign_s": round(elapsed, 3),
    }
    print(
        f"\n{SUBSCRIBERS} subscribers x {len(events)} events, campaign + "
        f"fanout in {elapsed:.2f}s"
    )

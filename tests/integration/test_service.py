"""End-to-end service tests: sockets, streaming, quotas, determinism.

Each test boots a real :class:`repro.service.ServiceApp` on an
ephemeral port inside one ``asyncio.run`` and talks to it with the
stdlib :class:`repro.service.ServiceClient`.  The determinism contract
is asserted at full strength:

- a campaign submitted over HTTP produces a store whose canonical
  digest equals the offline :func:`run_campaign_checkpointed` run of
  the same spec -- with and without fault injection;
- the NDJSON event stream is byte-identical across two fresh service
  instances and across early and late subscribers;
- N concurrent clients can never over-issue a tenant's unit quota, and
  rate-limited requests get 429 with a sufficient ``Retry-After``
  (driven on a virtual clock -- no wall-time sleeps anywhere).

Worlds are pre-seeded into the scheduler cache from the session
fixture so no test rebuilds the 2%-scale world.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exec.digest import store_digest
from repro.faults import FaultConfig, RetryPolicy
from repro.measure.campaign import run_campaign_checkpointed
from repro.service import ServiceApp, ServiceClient, TenantPolicy, VirtualClock
from repro.service.streams import encode_event
from tests.conftest import STUDY_SCALE, STUDY_SEED

#: The campaign every test submits: one atlas day at the study scale.
CAMPAIGN = {
    "seed": STUDY_SEED,
    "scale": STUDY_SCALE,
    "days": 1,
    "platforms": ["atlas"],
}

#: Deterministic fault overlay for the faulty-parity test.
FAULTS = {"reply_loss_rate": 0.05, "api_timeout_rate": 0.1}


def _app(tmp_path, world, clock=None, policy=None, name="svc"):
    """A service instance with the session world pre-seeded."""
    app = ServiceApp(
        tmp_path / name,
        clock=clock,
        default_policy=policy,
        concurrency=1,
    )
    app.scheduler._worlds[(STUDY_SEED, STUDY_SCALE)] = world
    return app


async def _start(app):
    port = await app.start("127.0.0.1", 0)
    return ServiceClient("127.0.0.1", port)


async def _submit_and_finish(client, body, tenant=None):
    """Submit a campaign and collect its full event stream."""
    headers = {"X-Tenant": tenant} if tenant else None
    status, _, job = await client.request(
        "POST", "/v1/campaigns", body, headers=headers
    )
    assert status in (200, 202), job
    events_status, _, events = await client.collect(
        "GET", f"/v1/campaigns/{job['job']}/events", headers=headers
    )
    assert events_status == 200
    return job, events


class TestDigestParity:
    def test_http_campaign_store_matches_offline_run(self, tmp_path, world):
        async def scenario():
            app = _app(tmp_path, world)
            client = await _start(app)
            try:
                job, events = await _submit_and_finish(client, CAMPAIGN)
            finally:
                await client.close()
                await app.close()
            return job, events

        job, events = asyncio.run(scenario())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "done"
        assert "unit" in kinds
        # Units stream in canonical commit order: the planned order.
        streamed_units = [e["unit"] for e in events if e["event"] == "unit"]
        assert streamed_units == events[0]["units"]
        # The determinism contract: byte-identical to the offline store.
        offline = run_campaign_checkpointed(
            world, tmp_path / "offline", days=1, platforms=["atlas"]
        )
        assert events[-1]["store_digest"] == store_digest(offline.run_dir)
        assert events[-1]["store_digest"] == store_digest(
            tmp_path / "svc" / "jobs" / job["job"]
        )

    def test_parity_holds_under_fault_injection(self, tmp_path, world):
        body = dict(CAMPAIGN, faults=FAULTS, max_attempts=3)

        async def scenario():
            app = _app(tmp_path, world)
            client = await _start(app)
            try:
                _, events = await _submit_and_finish(client, body)
            finally:
                await client.close()
                await app.close()
            return events

        events = asyncio.run(scenario())
        assert events[-1]["event"] == "done"
        offline = run_campaign_checkpointed(
            world,
            tmp_path / "offline",
            days=1,
            platforms=["atlas"],
            faults=FaultConfig.from_dict(FAULTS),
            retry=RetryPolicy(max_attempts=3),
        )
        assert events[-1]["store_digest"] == store_digest(offline.run_dir)

    def test_event_stream_is_identical_across_instances_and_subscribers(
        self, tmp_path, world
    ):
        async def one_instance(name):
            app = _app(tmp_path, world, name=name)
            client = await _start(app)
            try:
                _, events = await _submit_and_finish(client, CAMPAIGN)
                # A late subscriber replays the identical sequence.
                _, _, replay = await client.collect(
                    "GET", f"/v1/campaigns/{events[0]['job']}/events"
                )
            finally:
                await client.close()
                await app.close()
            return events, replay

        async def scenario():
            first, first_replay = await one_instance("svc-a")
            second, second_replay = await one_instance("svc-b")
            return first, first_replay, second, second_replay

        first, first_replay, second, second_replay = asyncio.run(scenario())

        def ndjson(events):
            return b"".join(encode_event(event) for event in events)

        assert ndjson(first) == ndjson(second)
        assert ndjson(first) == ndjson(first_replay)
        assert ndjson(second) == ndjson(second_replay)


class TestTenancy:
    def test_concurrent_clients_never_over_issue_unit_quota(
        self, tmp_path, world
    ):
        """6 clients race for a 3-unit quota; exactly 3 jobs are accepted."""
        clock = VirtualClock()
        policy = TenantPolicy(rate=0.0, burst=100.0, unit_quota=3)

        async def scenario():
            app = _app(tmp_path, world, clock=clock, policy=policy)
            port = await app.start("127.0.0.1", 0)
            clients = [ServiceClient("127.0.0.1", port) for _ in range(6)]

            async def submit(index, client):
                # Distinct max_attempts makes six distinct 1-unit jobs.
                body = dict(CAMPAIGN, max_attempts=index + 1)
                status, _, payload = await client.request(
                    "POST",
                    "/v1/campaigns",
                    body,
                    headers={"X-Tenant": "metered"},
                )
                return status, payload

            try:
                results = await asyncio.gather(
                    *(
                        submit(index, client)
                        for index, client in enumerate(clients)
                    )
                )
                _, _, tenant = await clients[0].request(
                    "GET", "/v1/tenants/metered"
                )
            finally:
                for client in clients:
                    await client.close()
                await app.close()
            return results, tenant

        results, tenant = asyncio.run(scenario())
        statuses = sorted(status for status, _ in results)
        assert statuses == [202, 202, 202, 403, 403, 403]
        assert tenant["units_issued"] == 3
        assert tenant["units_remaining"] == 0
        for status, payload in results:
            if status == 403:
                assert "error" in payload

    def test_rate_limited_request_gets_429_with_sufficient_retry_after(
        self, tmp_path, world
    ):
        clock = VirtualClock()
        policy = TenantPolicy(rate=0.5, burst=2.0)

        async def scenario():
            app = _app(tmp_path, world, clock=clock, policy=policy)
            client = await _start(app)
            try:
                first, _, job = await client.request(
                    "POST", "/v1/campaigns", CAMPAIGN
                )
                second, _, resubmit = await client.request(
                    "POST", "/v1/campaigns", CAMPAIGN
                )
                third, headers, error = await client.request(
                    "POST", "/v1/campaigns", CAMPAIGN
                )
                retry_after = float(headers.get("retry-after", "nan"))
                clock.advance(retry_after)
                fourth, _, _ = await client.request(
                    "POST", "/v1/campaigns", CAMPAIGN
                )
            finally:
                await client.close()
                await app.close()
            return (first, job), (second, resubmit), (third, headers, error), fourth, retry_after

        (first, job), (second, resubmit), (third, _, error), fourth, retry_after = (
            asyncio.run(scenario())
        )
        assert first == 202
        # An identical resubmission is idempotent: same job, no new charge.
        assert second == 200
        assert resubmit["job"] == job["job"]
        assert third == 429
        assert "rate-limited" in error["error"]
        # The advertised wait is exactly the bucket's refill time, and
        # honouring it is sufficient on the virtual clock.
        assert retry_after == pytest.approx(1.0 / 0.5)
        assert fourth == 200

    def test_health_is_never_rate_limited(self, tmp_path, world):
        clock = VirtualClock()
        policy = TenantPolicy(rate=0.0, burst=1.0)

        async def scenario():
            app = _app(tmp_path, world, clock=clock, policy=policy)
            client = await _start(app)
            try:
                statuses = []
                for _ in range(5):
                    status, _, _ = await client.request("GET", "/v1/health")
                    statuses.append(status)
            finally:
                await client.close()
                await app.close()
            return statuses

        assert asyncio.run(scenario()) == [200] * 5


class TestQueryEndpoint:
    def test_query_streams_rows_from_a_finished_job(self, tmp_path, world):
        spec = {
            "kind": "pings",
            "group_by": ["provider"],
            "aggregates": ["count", "mean"],
        }

        async def scenario():
            app = _app(tmp_path, world)
            client = await _start(app)
            try:
                job, _ = await _submit_and_finish(client, CAMPAIGN)
                status, _, lines = await client.collect(
                    "POST",
                    "/v1/query",
                    {"job": job["job"], "spec": spec},
                )
                missing, _, _ = await client.request(
                    "POST",
                    "/v1/query",
                    {"job": "nope", "spec": spec},
                )
                invalid, _, _ = await client.request(
                    "POST",
                    "/v1/query",
                    {"job": job["job"], "spec": {"kind": "nope"}},
                )
            finally:
                await client.close()
                await app.close()
            return status, lines, missing, invalid

        status, lines, missing, invalid = asyncio.run(scenario())
        assert status == 200
        header, rows = lines[0], lines[1:]
        assert header["event"] == "result"
        assert header["row_count"] == len(rows) >= 1
        assert header["spec"]["kind"] == "pings"
        assert all(row["event"] == "row" for row in rows)
        assert all("count" in row for row in rows)
        assert missing == 404
        assert invalid == 400

    def test_query_by_store_path_matches_offline_payload(
        self, tmp_path, world
    ):
        from repro.query.builder import execute as execute_query
        from repro.query.spec import QuerySpec
        from repro.store import DatasetStore

        offline = run_campaign_checkpointed(
            world, tmp_path / "offline", days=1, platforms=["atlas"]
        )
        spec = {"kind": "pings", "group_by": ["platform"]}

        async def scenario():
            app = _app(tmp_path, world)
            client = await _start(app)
            try:
                status, _, lines = await client.collect(
                    "POST",
                    "/v1/query",
                    {"store": str(offline.run_dir), "spec": spec},
                )
            finally:
                await client.close()
                await app.close()
            return status, lines

        status, lines = asyncio.run(scenario())
        assert status == 200
        expected = execute_query(
            DatasetStore.open(offline.run_dir), QuerySpec.from_dict(dict(spec))
        ).payload()
        streamed_rows = [
            {k: v for k, v in row.items() if k not in ("event", "index")}
            for row in lines[1:]
        ]
        expected_rows = json.loads(
            json.dumps(expected["rows"])  # normalize tuples/np scalars
        )
        assert streamed_rows == expected_rows


#: One spec per response shape: a small group-by, quantiles, ``first``
#: coordinates, collected value arrays, traceroutes, and no rows at all.
WIRE_SPECS = {
    "small-group-by": {"kind": "pings", "group_by": ["provider"]},
    "quantiles": {
        "kind": "pings",
        "group_by": ["country", "provider"],
        "quantiles": [50, 90],
    },
    "first": {
        "kind": "pings",
        "group_by": ["region"],
        "aggregates": ["count", "first"],
    },
    "collect": {
        "kind": "pings",
        "group_by": ["protocol"],
        "platform": "atlas",
        "collect": True,
    },
    "traces": {"kind": "traces", "group_by": ["provider"], "quantiles": [50]},
    "zero-rows": {
        "kind": "pings",
        "group_by": ["provider"],
        "day_range": [40, 41],
    },
}


@pytest.fixture(scope="module")
def query_run_dir(world, tmp_path_factory):
    """One finished atlas day (pings and traceroutes) to query."""
    return run_campaign_checkpointed(
        world,
        tmp_path_factory.mktemp("query-store") / "store",
        days=1,
        platforms=["atlas"],
    ).run_dir


async def _raw_query(port, body):
    """One ``POST /v1/query`` on a fresh connection: (status, raw body).

    The body is returned exactly as sent -- chunk-size lines, chunk
    data and the terminating zero-length chunk included.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode("utf-8")
        writer.write(
            b"POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
            b"Connection: close\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode("latin-1")
            + payload
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        if b"transfer-encoding: chunked" not in head.lower():
            # An error response: a buffered JSON body.
            return status, await reader.read()
        raw = bytearray()
        while True:
            size_line = await reader.readline()
            raw += size_line
            size = int(size_line.strip(), 16)
            raw += await reader.readexactly(size + 2)
            if size == 0:
                return status, bytes(raw)
    finally:
        writer.close()
        await writer.wait_closed()


class TestQueryWireBytes:
    @pytest.mark.parametrize("name", sorted(WIRE_SPECS))
    def test_query_body_is_byte_identical_to_event_oracle(
        self, tmp_path, world, query_run_dir, name
    ):
        """Raw chunked bodies equal the event-at-a-time encoding, on a
        cold miss and on the cache hit that follows."""
        import shutil

        from repro.query import QuerySpec, execute
        from repro.store import DatasetStore
        from tests.oracles.result_stream import result_stream_bytes

        spec = WIRE_SPECS[name]
        shutil.rmtree(query_run_dir / ".querycache", ignore_errors=True)
        body = {"store": str(query_run_dir), "spec": spec}

        async def scenario():
            app = _app(tmp_path, world)
            port = await app.start("127.0.0.1", 0)
            try:
                miss = await _raw_query(port, body)
                hit = await _raw_query(port, body)
            finally:
                await app.close()
            return miss, hit

        miss, hit = asyncio.run(scenario())
        payload = execute(
            DatasetStore.open(query_run_dir),
            QuerySpec.from_dict(dict(spec)),
            cache=False,
        ).payload()
        expected = result_stream_bytes(payload)
        assert miss == (200, expected)
        assert hit == (200, expected)
        if name == "zero-rows":
            assert payload["rows"] == []
        else:
            assert payload["rows"]

    def test_concurrent_cold_queries_both_succeed(
        self, tmp_path, world, query_run_dir
    ):
        """Two cold requests for one spec race to fill the cache entry;
        both get 200 and the same body."""
        import shutil

        shutil.rmtree(query_run_dir / ".querycache", ignore_errors=True)
        body = {"store": str(query_run_dir), "spec": WIRE_SPECS["quantiles"]}

        async def scenario():
            app = ServiceApp(tmp_path / "svc", concurrency=1)
            port = await app.start("127.0.0.1", 0)
            try:
                return await asyncio.gather(
                    _raw_query(port, body), _raw_query(port, body)
                )
            finally:
                await app.close()

        first, second = asyncio.run(scenario())
        assert first[0] == second[0] == 200
        assert first[1] == second[1]

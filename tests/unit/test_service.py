"""Unit tests for the service layer's loop-free pieces.

Everything here runs without opening a socket or building a world:
request validation, the clock shim, event shapes, the router, the
tenant registry on a virtual clock, and the executor bridge.  The
socket-level behaviour (concurrency, streaming, digest parity) lives in
``tests/integration/test_service.py``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading

import pytest

from repro.measure.campaign import CHECKPOINT_PLATFORMS, plan_units
from repro.measure.quota import QuotaError
from repro.service import (
    CampaignRequest,
    ExecutorBridge,
    QueryRequest,
    RateLimited,
    RequestError,
    TenantPolicy,
    TenantRegistry,
    VirtualClock,
    job_id_for,
)
from repro.service.http import (
    HttpError,
    Request,
    Response,
    Router,
    serve_connection,
)
from repro.service.streams import (
    accepted_event,
    commit_event,
    done_event,
    encode_event,
)
from repro.store.journal import SKIP_ENTRY, UNIT_ENTRY


class TestCampaignRequest:
    def test_defaults_round_trip(self):
        request = CampaignRequest.from_dict({})
        assert request.seed == 7
        assert request.scale == 0.02
        assert request.platforms == CHECKPOINT_PLATFORMS
        assert request.planned_units() == plan_units(
            request.days, list(request.platforms)
        )

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="unknown campaign request"):
            CampaignRequest.from_dict({"days": 1, "dayz": 2})

    @pytest.mark.parametrize(
        "payload",
        [
            {"scale": 0.0},
            {"scale": 1.5},
            {"days": 0},
            {"workers": 0},
            {"max_attempts": 0},
            {"platforms": []},
            {"platforms": ["atlas", "atlas"]},
            {"platforms": ["ripe"]},
            {"days": "two point five and a bit"},
            {"faults": {"not_a_fault_knob": 1.0}},
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(RequestError):
            CampaignRequest.from_dict(payload)

    def test_digest_is_stable_and_field_sensitive(self):
        a = CampaignRequest.from_dict({"days": 3})
        b = CampaignRequest.from_dict({"days": 3})
        c = CampaignRequest.from_dict({"days": 4})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_spec_digest_ignores_workers(self):
        serial = CampaignRequest.from_dict({"days": 3, "workers": 1})
        parallel = CampaignRequest.from_dict({"days": 3, "workers": 4})
        assert serial.spec_digest() == parallel.spec_digest()
        assert serial.digest() != parallel.digest()

    def test_job_id_separates_tenants(self):
        request = CampaignRequest.from_dict({"days": 1})
        assert job_id_for("alice", request) != job_id_for("bob", request)
        assert job_id_for("alice", request) == job_id_for("alice", request)
        assert len(job_id_for("alice", request)) == 12

    def test_fault_configs_parse_through_offline_parsers(self):
        request = CampaignRequest.from_dict(
            {"faults": {"probe_disconnect_rate": 0.1}, "max_attempts": 5}
        )
        assert request.fault_config() is not None
        assert request.retry_policy().max_attempts == 5


class TestQueryRequest:
    def test_needs_exactly_one_of_job_or_store(self):
        spec = {"kind": "pings"}
        with pytest.raises(RequestError, match="exactly one"):
            QueryRequest.from_dict({"spec": spec})
        with pytest.raises(RequestError, match="exactly one"):
            QueryRequest.from_dict(
                {"spec": spec, "job": "j", "store": "s"}
            )
        request = QueryRequest.from_dict({"spec": spec, "job": "j"})
        assert request.job == "j"
        assert request.store is None

    def test_spec_validated_through_query_engine(self):
        with pytest.raises(RequestError):
            QueryRequest.from_dict(
                {"spec": {"kind": "pings", "no_such_field": 1}, "job": "j"}
            )
        with pytest.raises(RequestError, match="needs a 'spec'"):
            QueryRequest.from_dict({"job": "j"})

    def test_workers_validated(self):
        with pytest.raises(RequestError, match="workers"):
            QueryRequest.from_dict(
                {"spec": {"kind": "pings"}, "job": "j", "workers": 0}
            )


class TestVirtualClock:
    def test_advance_moves_time(self):
        clock = VirtualClock(start=5.0)
        assert clock.now() == 5.0
        clock.advance(2.5)
        assert clock.now() == 7.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError, match="backwards"):
            VirtualClock().advance(-1.0)

    def test_sleep_consumes_no_wall_time(self):
        clock = VirtualClock()

        async def scenario():
            await clock.sleep(3600.0)
            return clock.now()

        assert asyncio.run(scenario()) == 3600.0


class TestStreamEvents:
    def test_commit_event_wraps_unit_and_skip_entries(self):
        unit = commit_event("j1", {"type": UNIT_ENTRY, "unit": "atlas:000"})
        assert unit["event"] == UNIT_ENTRY
        assert unit["job"] == "j1"
        assert "type" not in unit
        skip = commit_event(
            "j1", {"type": SKIP_ENTRY, "unit": "atlas:001", "reason": "x"}
        )
        assert skip["event"] == SKIP_ENTRY

    def test_commit_event_rejects_non_streamable_entries(self):
        with pytest.raises(ValueError, match="not a streamable"):
            commit_event("j1", {"type": "begin"})

    def test_encoding_is_canonical(self):
        event = done_event("j1", "digest", {"completed": 2})
        line = encode_event(event)
        assert line.endswith(b"\n")
        assert line == encode_event(dict(reversed(list(event.items()))))
        assert json.loads(line) == event

    def test_accepted_event_carries_plan(self):
        event = accepted_event("j1", {"days": 1}, ["atlas:000"])
        assert event["units"] == ["atlas:000"]
        assert event["event"] == "accepted"


class TestRouter:
    def _router(self):
        router = Router()

        async def handler(request):
            return Response(200, dict(request.params))

        router.add("GET", "/v1/jobs/{job}", handler)
        router.add("POST", "/v1/jobs", handler)
        return router

    def test_resolves_with_params(self):
        handler, params, known = self._router().resolve("GET", "/v1/jobs/abc")
        assert handler is not None
        assert params == {"job": "abc"}
        assert known

    def test_unknown_path_vs_wrong_method(self):
        router = self._router()
        handler, _, known = router.resolve("GET", "/v1/nope")
        assert handler is None and not known  # -> 404
        handler, _, known = router.resolve("DELETE", "/v1/jobs")
        assert handler is None and known  # -> 405

    def test_request_json_errors(self):
        request = Request("POST", "/x", {}, b"")
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400
        bad = Request("POST", "/x", {}, b"{nope")
        with pytest.raises(HttpError):
            bad.json()

    def test_http_error_carries_headers(self):
        error = HttpError(429, "slow down", headers={"Retry-After": "1.5"})
        assert error.headers == {"Retry-After": "1.5"}


def _exchange(router, raw_requests):
    """Send each raw request on its own connection; return raw replies."""

    async def run():
        server = await asyncio.start_server(
            lambda reader, writer: serve_connection(router, reader, writer),
            "127.0.0.1",
            0,
        )
        port = server.sockets[0].getsockname()[1]
        replies = []
        try:
            for raw in raw_requests:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(raw)
                await writer.drain()
                replies.append(await reader.read())
                writer.close()
                await writer.wait_closed()
        finally:
            server.close()
            await server.wait_closed()
        return replies

    return asyncio.run(run())


class TestUnhandledHandlerError:
    REQUEST = b"GET /v1/boom HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"

    def test_client_gets_an_opaque_id_and_the_log_gets_the_traceback(
        self, caplog
    ):
        router = Router()

        async def boom(request):
            raise RuntimeError("secret handler detail")

        router.add("GET", "/v1/boom", boom)
        with caplog.at_level(logging.ERROR, logger="repro.service"):
            replies = _exchange(router, [self.REQUEST, self.REQUEST])

        payloads = []
        for raw in replies:
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 500 ")
            assert b"Traceback" not in raw
            assert b"secret handler detail" not in raw
            assert b".py" not in raw
            payload = json.loads(body)
            assert payload["error"] == "internal error"
            assert set(payload) == {"error", "error_id"}
            payloads.append(payload)
        first, second = (payload["error_id"] for payload in payloads)
        assert second == first + 1

        logged = [r for r in caplog.records if r.name == "repro.service"]
        assert len(logged) == 2
        for record, payload in zip(logged, payloads):
            assert str(payload["error_id"]) in record.getMessage()
            assert record.exc_info[0] is RuntimeError
            assert "secret handler detail" in record.exc_text


class TestTenantRegistry:
    def test_admission_drains_bucket_then_rate_limits(self):
        clock = VirtualClock()
        registry = TenantRegistry(
            clock.now, TenantPolicy(rate=1.0, burst=2.0)
        )
        registry.admit("alice")
        registry.admit("alice")
        with pytest.raises(RateLimited) as excinfo:
            registry.admit("alice")
        assert excinfo.value.retry_after == pytest.approx(1.0)
        clock.advance(excinfo.value.retry_after)
        registry.admit("alice")  # the advertised wait is sufficient

    def test_tenants_are_isolated(self):
        clock = VirtualClock()
        registry = TenantRegistry(clock.now, TenantPolicy(rate=0.0, burst=1.0))
        registry.admit("alice")
        registry.admit("bob")  # bob has his own bucket
        with pytest.raises(RateLimited):
            registry.admit("alice")

    def test_per_tenant_policy_override(self):
        clock = VirtualClock()
        registry = TenantRegistry(
            clock.now,
            TenantPolicy(rate=0.0, burst=1.0),
            policies={"vip": TenantPolicy(rate=0.0, burst=50.0, unit_quota=9)},
        )
        state = registry.tenant("vip")
        assert state.policy.burst == 50.0
        assert state.as_dict()["unit_quota"] == 9

    def test_unit_quota_charging_and_refund(self):
        clock = VirtualClock()
        registry = TenantRegistry(
            clock.now, TenantPolicy(unit_quota=5)
        )
        registry.charge_units("alice", "job-a", 4)
        with pytest.raises(QuotaError):
            registry.charge_units("alice", "job-b", 2)
        assert registry.refund_units("alice", "job-a") == 4
        registry.charge_units("alice", "job-b", 2)
        assert registry.tenant("alice").as_dict()["units_issued"] == 2


class TestExecutorBridge:
    def test_runs_callable_off_loop(self):
        bridge = ExecutorBridge(max_workers=1)

        def blocking(x, y=0):
            return (threading.current_thread().name, x + y)

        async def scenario():
            name, total = await bridge.run_blocking(blocking, 2, y=3)
            return name, total

        try:
            name, total = asyncio.run(scenario())
        finally:
            bridge.shutdown()
        assert total == 5
        assert name.startswith("repro-service")
        assert name != threading.main_thread().name

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExecutorBridge(max_workers=0)

    def test_shutdown_is_idempotent(self):
        bridge = ExecutorBridge()
        bridge.shutdown()
        bridge.shutdown()

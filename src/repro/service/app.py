"""The measurement-service application: routes, tenancy, streaming.

Endpoints (see ``docs/SERVICE.md`` for schemas):

- ``GET  /v1/health`` -- liveness; never rate-limited.
- ``POST /v1/campaigns`` -- submit a campaign request (idempotent on
  (tenant, canonical request)); 202 with the job summary, 200 for a
  resubmission, 429 + ``Retry-After`` when rate-limited, 403 when the
  tenant's unit quota cannot cover the campaign.
- ``GET  /v1/campaigns/{job}`` -- job summary (state, digest, coverage).
- ``GET  /v1/campaigns/{job}/events`` -- the NDJSON event stream:
  buffered prefix replayed, then live events until ``done``/``error``.
- ``POST /v1/query`` -- run a :class:`repro.query.spec.QuerySpec`
  against a finished (or still-running) job's store or an explicit
  store path; results stream as NDJSON rows.  Served from the
  ``.querycache``-backed warehouse, so repeated specs are cache hits
  that stream the cache entry's stored bytes.
- ``GET  /v1/tenants/{tenant}`` -- the tenant's quota accounting.

Identity comes from the ``X-Tenant`` header (default ``"public"``).
Handlers never block: campaign execution and query scans dispatch
through the executor bridge (lint rule ``SVC001`` enforces this).
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, AsyncIterator, Dict, Optional

from repro.measure.quota import QuotaError
from repro.query.builder import execute_lines
from repro.service.bridge import ExecutorBridge
from repro.service.clock import Clock, SystemClock
from repro.service.http import (
    HttpError,
    Request,
    Response,
    Router,
    StreamResponse,
    frame_lines,
    serve_connection,
)
from repro.service.requests import CampaignRequest, QueryRequest, RequestError
from repro.service.scheduler import DONE, Job, ServiceScheduler
from repro.service.streams import encode_event
from repro.service.tenants import RateLimited, TenantPolicy, TenantRegistry
from repro.store.warehouse import DatasetStore, StoreError

DEFAULT_TENANT = "public"


class ServiceApp:
    """One service instance: scheduler + tenants + router."""

    def __init__(
        self,
        store_root: Path,
        clock: Optional[Clock] = None,
        default_policy: Optional[TenantPolicy] = None,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        concurrency: int = 1,
        bridge: Optional[ExecutorBridge] = None,
    ) -> None:
        self.clock = clock if clock is not None else SystemClock()
        self.bridge = bridge if bridge is not None else ExecutorBridge()
        self.scheduler = ServiceScheduler(
            Path(store_root), bridge=self.bridge, concurrency=concurrency
        )
        self.tenants = TenantRegistry(
            self.clock.now, default_policy, policies
        )
        self.router = Router()
        self.router.add("GET", "/v1/health", self.handle_health)
        self.router.add("POST", "/v1/campaigns", self.handle_submit)
        self.router.add("GET", "/v1/campaigns/{job}", self.handle_job)
        self.router.add(
            "GET", "/v1/campaigns/{job}/events", self.handle_events
        )
        self.router.add("POST", "/v1/query", self.handle_query)
        self.router.add("GET", "/v1/tenants/{tenant}", self.handle_tenant)
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start accepting connections; returns the bound port."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sockets = self._server.sockets or []
        return int(sockets[0].getsockname()[1]) if sockets else port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()
        self.bridge.shutdown()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        await serve_connection(self.router, reader, writer)

    # -- helpers -------------------------------------------------------------

    def _tenant_of(self, request: Request) -> str:
        return request.header("x-tenant", DEFAULT_TENANT) or DEFAULT_TENANT

    def _admit(self, request: Request) -> str:
        """Rate-limit admission; 429 + Retry-After when the bucket is dry."""
        tenant = self._tenant_of(request)
        try:
            self.tenants.admit(tenant)
        except RateLimited as exc:
            raise HttpError(
                429,
                str(exc),
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            ) from exc
        return tenant

    # -- handlers ------------------------------------------------------------

    async def handle_health(self, request: Request) -> Response:
        return Response(
            200,
            {
                "status": "ok",
                "jobs": len(self.scheduler.jobs()),
                "tenants": len(self.tenants.states()),
            },
        )

    async def handle_submit(self, request: Request) -> Response:
        tenant = self._admit(request)
        try:
            campaign = CampaignRequest.from_dict(request.json())
        except RequestError as exc:
            return Response(400, {"error": str(exc)})
        from repro.service.scheduler import job_id_for

        job_id = job_id_for(tenant, campaign)
        existing = self.scheduler.job(job_id)
        if existing is not None:
            return Response(200, existing.as_dict())
        units = campaign.planned_units()
        try:
            # Charge before enqueueing: the whole admit->charge->submit
            # sequence runs on the event-loop thread, so concurrent
            # clients serialize here and quota can never over-issue.
            self.tenants.charge_units(tenant, job_id, len(units))
        except QuotaError as exc:
            return Response(403, {"error": str(exc)})
        job, _created = self.scheduler.submit(tenant, campaign)
        return Response(202, job.as_dict())

    async def handle_job(self, request: Request) -> Response:
        job = self.scheduler.job(request.params["job"])
        if job is None:
            return Response(404, {"error": f"no job {request.params['job']!r}"})
        return Response(200, job.as_dict())

    async def handle_events(self, request: Request) -> Any:
        job = self.scheduler.job(request.params["job"])
        if job is None:
            return Response(404, {"error": f"no job {request.params['job']!r}"})
        return StreamResponse(_event_chunks(job))

    async def handle_query(self, request: Request) -> Any:
        tenant = self._admit(request)
        del tenant
        try:
            query = QueryRequest.from_dict(request.json())
        except RequestError as exc:
            return Response(400, {"error": str(exc)})
        if query.job is not None:
            job = self.scheduler.job(query.job)
            if job is None:
                return Response(404, {"error": f"no job {query.job!r}"})
            run_dir = job.run_dir
            if job.state != DONE and not run_dir.exists():
                return Response(
                    409, {"error": f"job {query.job!r} has no store yet"}
                )
        else:
            assert query.store is not None
            run_dir = Path(query.store)
        try:
            body = await self.bridge.run_blocking(_run_query, run_dir, query)
        except (FileNotFoundError, StoreError) as exc:
            return Response(404, {"error": str(exc)})
        except ValueError as exc:
            return Response(400, {"error": str(exc)})
        return StreamResponse(body)

    async def handle_tenant(self, request: Request) -> Response:
        state = self.tenants.tenant(request.params["tenant"])
        return Response(200, state.as_dict())


def _run_query(run_dir: Path, query: QueryRequest) -> bytes:
    """Execute one query off-loop (bridge thread); the chunk-framed body.

    The store is pinned to one journal prefix first
    (:meth:`repro.store.warehouse.DatasetStore.snapshot`), so querying a
    *live* job's store -- a campaign mid-write -- scans a consistent
    set of committed units instead of racing the writer.  A cache hit
    frames the entry's stored NDJSON lines as they are; a miss encodes
    the result once, caches it and frames the same bytes.
    """
    store = DatasetStore.open(run_dir).snapshot()
    lines = execute_lines(store, query.spec, workers=query.workers)
    return frame_lines(lines)


async def _event_chunks(job: Job) -> AsyncIterator[bytes]:
    async for event in job.events():
        yield frame_lines(encode_event(event))

"""Fault-injecting wrappers around the platform, engine, and file layers.

Each wrapper delegates to a real object and consults the per-attempt
fault generators in an :class:`~repro.faults.plan.AttemptFaults` before
(or after) the real operation:

- :class:`FaultySpeedchecker` / :class:`FaultyAtlas` fail platform API
  calls with timeouts, HTTP-5xx-style errors, and mid-unit quota races;
- :class:`FaultyEngine` loses ping replies, disconnects a probe
  mid-batch, and truncates traceroutes;
- :class:`FaultyFileOps` tears shard writes, flips bytes, and fails
  fsyncs.

Every fired fault appends a human-readable event to the attempt's log so
the resilient runner can journal exactly what happened.  All draws come
from the attempt's forked generators -- the schedule is a pure function
of (seed, unit, attempt, config), never of wall-clock or call order
across units.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.faults.errors import FsyncFailure, PlatformError, PlatformTimeout, TornWrite
from repro.faults.plan import AttemptFaults
from repro.measure.batch import RequestBatch
from repro.measure.engine import BatchEngine
from repro.measure.results import TRACE_COLUMN_DTYPES, PingBlock, TraceBlock
from repro.platforms.probe import Probe
from repro.platforms.protocols import AtlasLike, SpeedcheckerLike
from repro.platforms.speedchecker import VPSnapshot
from repro.store.fileops import FileOps


def _draw_api_fault(faults: AttemptFaults, platform: str, operation: str) -> None:
    """One API-fault draw; raises if the call should fail."""
    config = faults.config
    if config.api_timeout_rate + config.api_error_rate <= 0.0:
        return
    draw = float(faults.api.random())
    if draw < config.api_timeout_rate:
        faults.record(f"api-timeout:{operation}")
        raise PlatformTimeout(f"{platform}: {operation} timed out")
    if draw < config.api_timeout_rate + config.api_error_rate:
        faults.record(f"api-error:{operation}")
        raise PlatformError(f"{platform}: {operation} returned HTTP 503")


class FaultySpeedchecker:
    """A Speedchecker platform whose API calls can fail.

    Structurally a :class:`~repro.platforms.protocols.SpeedcheckerLike`.
    Inventory queries (``countries`` etc.) are pure local bookkeeping
    and pass straight through; the remote-API-shaped operations --
    snapshots and probe selection -- draw for timeout/error faults, and
    quota charging can lose a race against a simulated concurrent
    consumer that drains part of the remaining budget.
    """

    def __init__(self, inner: SpeedcheckerLike, faults: AttemptFaults) -> None:
        self._inner = inner
        self._faults = faults
        self._race_checked = False

    @property
    def name(self) -> str:
        return self._inner.name

    # -- pure passthrough --------------------------------------------------

    def countries(self) -> List[str]:
        return self._inner.countries()

    def countries_with_at_least(self, minimum: int) -> List[str]:
        return self._inner.countries_with_at_least(minimum)

    def connected_in_country(
        self, iso: str, snapshot: VPSnapshot
    ) -> List[Probe]:
        return self._inner.connected_in_country(iso, snapshot)

    @property
    def daily_quota(self) -> int:
        return self._inner.daily_quota

    @property
    def remaining_quota(self) -> int:
        return self._inner.remaining_quota

    def refresh_quota(self) -> None:
        self._inner.refresh_quota()

    # -- faulted API calls -------------------------------------------------

    def snapshot(
        self, day: int, hour: int, rng: np.random.Generator
    ) -> VPSnapshot:
        _draw_api_fault(self._faults, self.name, "snapshot")
        return self._inner.snapshot(day, hour, rng=rng)

    def select_probes(
        self,
        iso: str,
        snapshot: VPSnapshot,
        count: int,
        pool: List[Probe],
        rng: np.random.Generator,
    ) -> List[Probe]:
        _draw_api_fault(self._faults, self.name, "select_probes")
        return self._inner.select_probes(iso, snapshot, count, pool=pool, rng=rng)

    def _maybe_quota_race(self) -> None:
        """At most once per attempt, a concurrent consumer may steal quota."""
        if self._race_checked:
            return
        self._race_checked = True
        config = self._faults.config
        if config.quota_race_rate <= 0.0:
            return
        if float(self._faults.api.random()) >= config.quota_race_rate:
            return
        stolen = int(self._inner.remaining_quota * config.quota_race_fraction)
        if stolen <= 0:
            return
        self._inner.charge(stolen)
        self._faults.record(f"quota-race:{stolen}")

    def charge(self, requests: int = 1) -> None:
        self._maybe_quota_race()
        self._inner.charge(requests)

    def charge_up_to(self, requests: int) -> int:
        self._maybe_quota_race()
        return self._inner.charge_up_to(requests)


class FaultyAtlas:
    """An Atlas platform whose connected-set query can fail."""

    def __init__(self, inner: AtlasLike, faults: AttemptFaults) -> None:
        self._inner = inner
        self._faults = faults

    @property
    def name(self) -> str:
        return self._inner.name

    def connected_probes(self, rng: np.random.Generator) -> List[Probe]:
        _draw_api_fault(self._faults, self.name, "connected_probes")
        return self._inner.connected_probes(rng=rng)


class FaultyEngine:
    """A batch engine with reply loss, probe disconnects, and truncation.

    Structurally a :class:`~repro.measure.engine.BatchEngine`.  The
    disconnect decision is made once per attempt, on the ping batch: the
    victim probe keeps only the pings issued before the disconnect and
    loses all of its traceroutes (a disconnected device answers
    nothing).  Reply loss and trace truncation are per-request draws
    from the measurement fault stream.
    """

    def __init__(self, inner: BatchEngine, faults: AttemptFaults) -> None:
        self._inner = inner
        self._faults = faults
        self._disconnect_decided = False
        self._disconnect_victim: Optional[str] = None
        self._disconnect_after = 0

    def _decide_disconnect(self, batch: RequestBatch) -> None:
        """One disconnect draw per attempt, over the ping batch."""
        if self._disconnect_decided:
            return
        self._disconnect_decided = True
        config = self._faults.config
        if config.probe_disconnect_rate <= 0.0 or not len(batch):
            return
        if float(self._faults.measure.random()) >= config.probe_disconnect_rate:
            return
        probe_ids = sorted(
            {
                batch.probes[code].probe_id
                for code in np.unique(batch.probe_codes).tolist()
            }
        )
        victim = probe_ids[int(self._faults.measure.integers(len(probe_ids)))]
        owned = int(np.count_nonzero(_rows_of(batch, victim)))
        self._disconnect_victim = victim
        self._disconnect_after = int(self._faults.measure.integers(owned))
        self._faults.record(
            f"probe-disconnect:{victim}@{self._disconnect_after}"
        )

    def ping_batch(
        self,
        batch: RequestBatch,
        rng: Optional[np.random.Generator] = None,
    ) -> PingBlock:
        self._decide_disconnect(batch)
        if self._disconnect_victim is not None:
            # The victim answers only the pings issued before it left.
            victim = _rows_of(batch, self._disconnect_victim)
            batch = batch.take(
                ~victim | (np.cumsum(victim) <= self._disconnect_after)
            )
        config = self._faults.config
        if config.reply_loss_rate > 0.0 and len(batch):
            answered = (
                self._faults.measure.random(len(batch)) >= config.reply_loss_rate
            )
            lost = len(batch) - int(np.count_nonzero(answered))
            if lost:
                batch = batch.take(answered)
                self._faults.record(f"reply-loss:{lost}")
        return self._inner.ping_batch(batch, rng=rng)

    def traceroute_batch(
        self,
        batch: RequestBatch,
        rng: Optional[np.random.Generator] = None,
    ) -> TraceBlock:
        if self._disconnect_victim is not None:
            victim = _rows_of(batch, self._disconnect_victim)
            dropped = int(np.count_nonzero(victim))
            if dropped:
                self._faults.record(f"trace-drop:{dropped}")
                batch = batch.take(~victim)
        block = self._inner.traceroute_batch(batch, rng=rng)
        config = self._faults.config
        if config.trace_truncation_rate <= 0.0 or not len(block):
            return block
        draws = self._faults.measure.random(len(block))
        lengths = np.diff(block.hop_offsets)
        kept = lengths.copy()
        # One cut draw per truncated trace, in row order.
        for index in np.flatnonzero(
            (draws < config.trace_truncation_rate) & (lengths > 1)
        ).tolist():
            cut = self._faults.measure.integers(int(lengths[index]) - 1)
            kept[index] = 1 + int(cut)
        truncated = int(np.count_nonzero(kept != lengths))
        if not truncated:
            return block
        self._faults.record(f"trace-truncated:{truncated}")
        return _truncate_hops(block, kept)


def _rows_of(batch: RequestBatch, probe_id: str) -> np.ndarray:
    """The mask of the batch rows measured by probe ``probe_id``."""
    owned = np.array([probe.probe_id == probe_id for probe in batch.probes], bool)
    rows: np.ndarray = owned[batch.probe_codes]
    return rows


def _truncate_hops(block: TraceBlock, kept: np.ndarray) -> TraceBlock:
    """``block`` with trace ``i`` cut to its first ``kept[i]`` hops: the
    hop columns are compacted, every other column carries over."""
    hop_of = np.repeat(np.arange(len(block)), np.diff(block.hop_offsets))
    keep = np.arange(block.hop_count) - block.hop_offsets[hop_of] < kept[hop_of]
    columns = {name: getattr(block, name) for name in TRACE_COLUMN_DTYPES}
    columns["hop_offsets"] = np.concatenate(([0], np.cumsum(kept)))
    columns["hop_addresses"] = block.hop_addresses[keep]
    columns["hop_rtts"] = block.hop_rtts[keep]
    return TraceBlock(
        block.probes,
        block.regions,
        epochs=block.epochs,
        outage_ids=block.outage_ids,
        **columns,
    )


class FaultyFileOps(FileOps):
    """Shard file operations that can tear, corrupt, or fail fsync.

    One storage draw per shard write decides its fate: a *torn write*
    leaves an unsynced prefix on disk and raises; a *corrupt write*
    flips one byte and returns silently (only the post-write CRC
    verification catches it); an *fsync failure* writes everything but
    raises before durability is guaranteed.
    """

    def __init__(self, faults: AttemptFaults) -> None:
        self._faults = faults

    def write_bytes(self, path: Path, payload: bytes) -> None:
        config = self._faults.config
        total = (
            config.torn_write_rate
            + config.corrupt_write_rate
            + config.fsync_failure_rate
        )
        if total <= 0.0 or not payload:
            super().write_bytes(path, payload)
            return
        draw = float(self._faults.storage.random())
        if draw < config.torn_write_rate:
            cut = int(self._faults.storage.integers(len(payload)))
            with open(path, "wb") as fh:
                fh.write(payload[:cut])
            self._faults.record(f"torn-write:{path.name}@{cut}")
            raise TornWrite(f"{path}: write torn at byte {cut}")
        if draw < config.torn_write_rate + config.corrupt_write_rate:
            index = int(self._faults.storage.integers(len(payload)))
            corrupted = bytearray(payload)
            corrupted[index] ^= 0xFF
            super().write_bytes(path, bytes(corrupted))
            self._faults.record(f"corrupt-write:{path.name}@{index}")
            return
        if draw < total:
            with open(path, "wb") as fh:
                fh.write(payload)
                fh.flush()
            self._faults.record(f"fsync-failure:{path.name}")
            raise FsyncFailure(f"{path}: fsync failed after write")
        super().write_bytes(path, payload)

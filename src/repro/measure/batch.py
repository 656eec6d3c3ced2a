"""The vectorized measurement executors.

Every ping and traceroute runs through here.  Requests arrive as a
:class:`RequestBatch` -- integer code columns over probe and region
tables, no per-request objects.  Each distinct (probe, region) pair is
planned once, and *all* jitter / congestion / ICMP-penalty / last-mile
noise for every sample of every request is drawn as a handful of NumPy
arrays, instead of a few scalar RNG calls per RTT sample.

The results are columnar :class:`~repro.measure.results.PingBlock` /
:class:`~repro.measure.results.TraceBlock` objects -- no per-request
record (nor per-hop :class:`~repro.measure.results.TraceHop`) objects
are allocated on the hot path; analysis code materializes the record
views lazily via :meth:`MeasurementDataset.pings` / ``.traceroutes``.

Determinism: the draw order inside a batch is fixed (core-path arrays
first, then last-mile arrays -- see
:func:`repro.measure.latency.sample_path_rtt_block`), so the same seed
and the same request batch always produce an identical block.  The
KS-equivalence tests in ``tests/unit/test_batch.py`` compare the batch
noise against a record-at-a-time reference sampler
(``tests/oracles/scalar_ping.py``); ``tests/unit/test_ping_batch_parity.py``
holds the executor byte for byte to a request-at-a-time oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.cloud.regions import CloudRegion
from repro.core.config import SimulationConfig
from repro.lastmile.base import AccessKind
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
    sample_hop_rtt_block,
    sample_path_rtt_block,
)
from repro.measure.path import HOME_ROUTER_ADDRESS
from repro.measure.results import (
    PROTOCOL_CODES,
    PingBlock,
    Protocol,
    TraceBlock,
    ping_block_from_records,
    trace_block_from_records,
)
from repro.platforms.probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measure.engine import MeasurementEngine


@dataclass(eq=False)
class RequestBatch:
    """A columnar list of measurement requests.

    Row ``i`` asks probe ``probes[probe_codes[i]]`` to measure region
    ``regions[region_codes[i]]`` over protocol ``protocol_codes[i]`` on
    ``days[i]``, drawing ``samples[i]`` RTT samples (pings only;
    traceroutes ignore the column).  The tables may hold entries no row
    refers to -- a slice or :meth:`take` shares its parent's tables --
    so the executors intern each block's tables from the rows, in
    first-seen row order.
    """

    probes: List[Probe]
    regions: List[CloudRegion]
    probe_codes: np.ndarray
    region_codes: np.ndarray
    protocol_codes: np.ndarray
    samples: np.ndarray
    days: np.ndarray

    @classmethod
    def of(
        cls, requests: Iterable[Tuple[Probe, CloudRegion, Protocol, int, int]]
    ) -> "RequestBatch":
        """A batch of ``(probe, region, protocol, samples, day)`` rows."""
        tables = RequestTables()
        rows = [
            (tables.probe_code(p), tables.region_code(r), PROTOCOL_CODES[c], s, d)
            for p, r, c, s, d in requests
        ]
        return tables.batch(*np.array(rows, np.int64).reshape(-1, 5).T)

    def __len__(self) -> int:
        return len(self.probe_codes)

    def __getitem__(self, rows: slice) -> "RequestBatch":
        return self.take(rows)

    def take(self, rows: Union[slice, np.ndarray]) -> "RequestBatch":
        """The batch of the selected rows (an index array, a boolean
        mask or a slice), in that order, over the same tables."""
        return RequestBatch(
            self.probes,
            self.regions,
            self.probe_codes[rows],
            self.region_codes[rows],
            self.protocol_codes[rows],
            self.samples[rows],
            self.days[rows],
        )


class RequestTables:
    """Probe and region tables interned in first-seen order.

    A scheduler interns each probe and region once and builds its
    batches from the integer codes -- no per-request objects.
    """

    def __init__(self) -> None:
        self.probes: List[Probe] = []
        self.regions: List[CloudRegion] = []
        self._probe_codes: Dict[str, int] = {}
        self._region_codes: Dict[Tuple[str, str], int] = {}

    def probe_code(self, probe: Probe) -> int:
        code = self._probe_codes.setdefault(probe.probe_id, len(self.probes))
        if code == len(self.probes):
            self.probes.append(probe)
        return code

    def region_code(self, region: CloudRegion) -> int:
        key = (region.provider_code, region.region_id)
        code = self._region_codes.setdefault(key, len(self.regions))
        if code == len(self.regions):
            self.regions.append(region)
        return code

    def batch(
        self,
        probe_codes: npt.ArrayLike,
        region_codes: npt.ArrayLike,
        protocol_codes: npt.ArrayLike,
        samples: npt.ArrayLike,
        days: npt.ArrayLike,
    ) -> RequestBatch:
        """A batch over these tables; scalar columns are broadcast."""
        n = np.size(probe_codes)

        def column(values: npt.ArrayLike, dtype: type) -> np.ndarray:
            return np.array(np.broadcast_to(values, n), dtype)

        return RequestBatch(
            self.probes,
            self.regions,
            column(probe_codes, np.int32),
            column(region_codes, np.int32),
            column(protocol_codes, np.uint8),
            column(samples, np.int32),
            column(days, np.int32),
        )


def _first_seen(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``codes`` in first-seen order, and each
    row's index into them."""
    values, first, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return values[order], rank[inverse.reshape(-1)]


#: A batch's block tables and codes, and each row's planner arena row.
_Endpoints = Tuple[
    List[Probe],
    List[CloudRegion],
    np.ndarray,
    np.ndarray,
    np.ndarray,
]


def _endpoints(engine: "MeasurementEngine", batch: RequestBatch) -> _Endpoints:
    """Intern the block tables in first-seen row order and plan each
    distinct (probe, region) pair once.  The planner sees the pairs in
    first-seen order, so it draws as if it planned the rows one by one;
    each request row gets its pair's arena row."""
    probe_table, probe_codes = _first_seen(batch.probe_codes)
    region_table, region_codes = _first_seen(batch.region_codes)
    probes = [batch.probes[code] for code in probe_table.tolist()]
    regions = [batch.regions[code] for code in region_table.tolist()]
    width = len(regions)
    pairs, pair_of = _first_seen(probe_codes.astype(np.int64) * width + region_codes)
    rows = engine.planner.plan_many(
        [(probes[pair // width], regions[pair % width]) for pair in pairs.tolist()]
    )
    return probes, regions, probe_codes, region_codes, rows[pair_of]


def _cycle_multipliers(days: np.ndarray, config: SimulationConfig) -> np.ndarray:
    """Each row's weekly congestion-cycle multiplier."""
    values, day_of = np.unique(days, return_inverse=True)
    per_day = [congestion_cycle_multiplier(day, config) for day in values.tolist()]
    multipliers: np.ndarray = np.array(per_day, np.float64)[day_of.reshape(-1)]
    return multipliers


def execute_ping_batch(
    engine: "MeasurementEngine",
    batch: RequestBatch,
    rng: Optional[np.random.Generator] = None,
) -> PingBlock:
    """Execute a request batch in one vectorized pass.

    Phase 1 works on the batch's columns: each distinct (probe, region)
    pair is planned once (the planner caches across batches), and base
    RTT, jitter sigma and congestion are gathered by arena row, last-mile
    parameters and the ICMP penalty per probe and the congestion cycle
    per day.  Phase 2 is pure array math over every sample of every
    request.

    ``rng`` overrides the engine's measurement stream -- checkpointed
    campaigns pass a per-unit generator so a unit's draws are independent
    of every other unit's.
    """
    n = len(batch)
    config = engine.config
    if rng is None:
        rng = engine.rng
    if n == 0:
        return ping_block_from_records([])
    counts = batch.samples.astype(np.int64)
    if int(counts.min()) < 1:
        bad = int(counts[np.argmax(counts < 1)])
        raise ValueError(f"samples must be >= 1, got {bad}")

    probes, regions, probe_codes, region_codes, rows = _endpoints(engine, batch)
    planned = engine.planner.arena.pairs
    protocol_codes = np.ascontiguousarray(batch.protocol_codes)
    icmp = protocol_codes == PROTOCOL_CODES[Protocol.ICMP]
    base = planned.base_path_rtt_ms[rows]
    sigma = planned.jitter_sigma[rows]
    congestion_p = planned.congestion_probability[rows] * _cycle_multipliers(
        batch.days, config
    )
    penalty = np.array(
        [icmp_penalty_probability_for(p.continent, config) for p in probes]
    )
    icmp_p = np.where(icmp, penalty[probe_codes], 0.0)
    lastmile = np.array(
        [engine.lastmile_model(p).batch_params() for p in probes], np.float64
    )[probe_codes]

    # -- phase 2: one vectorized pass over every sample --------------------
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    sample_of = np.repeat(np.arange(n), counts)

    core = sample_path_rtt_block(
        base[sample_of],
        sigma[sample_of],
        congestion_p[sample_of],
        icmp[sample_of],
        icmp_p[sample_of],
        config,
        rng,
    )

    m = sample_of.shape[0]
    z_air = rng.standard_normal(m)
    u_bloat = rng.random(m)
    z_wire = rng.standard_normal(m)
    per_sample = lastmile[sample_of]
    air_median = per_sample[:, 0]
    air = np.where(
        air_median > 0.0, air_median * np.exp(per_sample[:, 1] * z_air), 0.0
    )
    air = np.where(u_bloat < per_sample[:, 4], air * per_sample[:, 5], air)
    wire_median = per_sample[:, 2]
    wire = np.where(
        wire_median > 0.0, wire_median * np.exp(per_sample[:, 3] * z_wire), 0.0
    )

    return PingBlock(
        probes=probes,
        regions=regions,
        probe_codes=probe_codes,
        region_codes=region_codes,
        days=np.ascontiguousarray(batch.days),
        protocol_codes=protocol_codes,
        sample_values=np.round(air + wire + core, 3),
        sample_offsets=offsets,
    )


def execute_traceroute_batch(
    engine: "MeasurementEngine",
    batch: RequestBatch,
    rng: Optional[np.random.Generator] = None,
) -> TraceBlock:
    """Execute a traceroute batch in one vectorized pass.

    Phase 1 plans each distinct pair (cached), interns probes/regions
    in first-seen row order and gathers per-probe and per-request
    parameter columns; one array draw resolves every trace's access
    medium.  Phase 2 samples jitter / congestion /
    ICMP penalty / control-plane processing for *every hop of every
    trace* as flat arrays and writes them straight into the block's hop
    columns: home probes measuring from behind a NAT router get a
    private first-hop slot, and unresponsive hops (never the
    destination) are written in-band as ``NO_ADDRESS`` / ``NaN``.

    ``rng`` overrides the engine's measurement stream (see
    :func:`execute_ping_batch`).
    """
    n = len(batch)
    if n == 0:
        return trace_block_from_records([])
    config = engine.config
    if rng is None:
        rng = engine.rng
    unresponsive_p = config.path_model.hop_unresponsive_probability

    # Plan (or fetch) every trace's path first so the planner's own RNG
    # draws stay grouped ahead of the measurement draws below.
    probes, regions, probe_codes, region_codes, rows = _endpoints(engine, batch)
    arena = engine.planner.arena

    # Per-probe columns, indexed by probe code.
    probe_penalty = np.array(
        [icmp_penalty_probability_for(p.continent, config) for p in probes]
    )
    probe_params = np.array(
        [engine.lastmile_model(p).batch_params() for p in probes], np.float64
    )
    probe_wireless = np.array([p.access.is_wireless for p in probes], bool)
    probe_wifi = np.array([p.access is AccessKind.HOME_WIFI for p in probes])
    probe_nat = np.array([p.device_address != p.public_address for p in probes])
    probe_sources = np.array([p.device_address for p in probes], np.int64)

    # Per-request columns.
    days = np.ascontiguousarray(batch.days)
    protocol_codes = np.ascontiguousarray(batch.protocol_codes)
    icmp_mask = protocol_codes == PROTOCOL_CODES[Protocol.ICMP]
    counts, hop_index = arena.hop_index(rows)
    dest_addresses = arena.pairs.dest_address[rows]
    sigma = arena.pairs.jitter_sigma[rows]
    congestion_p = arena.pairs.congestion_probability[rows] * _cycle_multipliers(
        days, config
    )
    icmp_p = np.where(icmp_mask, probe_penalty[probe_codes], 0.0)

    # One array draw decides every trace's access switch: Android
    # devices occasionally switch between WiFi and cellular mid-study (a
    # section-5 caveat), which flips the trace's first-hop signature and
    # produces classification false positives.
    switch_p = config.last_mile.access_switch_probability
    switched = probe_wireless[probe_codes] & (rng.random(n) < switch_p)
    lastmile = probe_params[probe_codes]
    for i in np.flatnonzero(switched).tolist():
        probe = probes[probe_codes[i]]
        other = (
            AccessKind.CELLULAR
            if probe.access is AccessKind.HOME_WIFI
            else AccessKind.HOME_WIFI
        )
        lastmile[i] = engine.lastmile_model(probe, other).batch_params()
    # Hop 1 is the home router when measuring over WiFi from behind a
    # NAT (a cellular probe switched onto WiFi always is).
    wifi = probe_wifi[probe_codes]
    behind_router = (wifi ^ switched) & (~wifi | probe_nat[probe_codes])

    # One last-mile draw per trace (all traces at once; draw order is
    # air noise, bufferbloat uniforms, wire noise, router processing).
    z_air = rng.standard_normal(n)
    u_bloat = rng.random(n)
    z_wire = rng.standard_normal(n)
    air_median = lastmile[:, 0]
    air = np.where(
        air_median > 0.0, air_median * np.exp(lastmile[:, 1] * z_air), 0.0
    )
    air = np.where(u_bloat < lastmile[:, 4], air * lastmile[:, 5], air)
    wire_median = lastmile[:, 2]
    wire = np.where(
        wire_median > 0.0, wire_median * np.exp(lastmile[:, 3] * z_wire), 0.0
    )
    lastmile_total = air + wire
    # Hop-1 home-router RTT for probes measuring from behind a NAT: the
    # WiFi air segment plus the router's own processing.
    router_rtts = np.round(air + rng.exponential(0.3, n), 3)

    # -- phase 2: one vectorized pass over every hop of every trace ---------
    total = len(hop_index)
    hop_of = np.repeat(np.arange(n), counts)
    hop_core = sample_hop_rtt_block(
        arena.hops.base_rtt[hop_index],
        sigma[hop_of],
        congestion_p[hop_of],
        icmp_mask[hop_of],
        icmp_p[hop_of],
        config,
        rng,
    )
    rtts = np.round(lastmile_total[hop_of] + hop_core, 3)
    addresses = arena.hops.address[hop_index].astype(np.int64)
    blank = (addresses != dest_addresses[hop_of]) & (
        rng.random(total) < unresponsive_p
    )

    # Trace i owns slots hop_offsets[i]:hop_offsets[i+1] -- the router
    # slot first when it has one, then its path hops in order.
    hop_offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts + behind_router, out=hop_offsets[1:])
    router_slots = hop_offsets[:-1][behind_router]
    path_slots = np.arange(total) + np.cumsum(behind_router)[hop_of]
    hop_addresses = np.empty(int(hop_offsets[-1]), np.int64)
    hop_rtts = np.empty(int(hop_offsets[-1]), np.float64)
    hop_addresses[router_slots] = HOME_ROUTER_ADDRESS
    hop_rtts[router_slots] = router_rtts[behind_router]
    hop_addresses[path_slots] = np.where(blank, TraceBlock.NO_ADDRESS, addresses)
    hop_rtts[path_slots] = np.where(blank, np.nan, rtts)

    return TraceBlock(
        probes=probes,
        regions=regions,
        probe_codes=probe_codes,
        region_codes=region_codes,
        days=days,
        protocol_codes=protocol_codes,
        source_addresses=probe_sources[probe_codes],
        dest_addresses=dest_addresses,
        hop_offsets=hop_offsets,
        hop_addresses=hop_addresses,
        hop_rtts=hop_rtts,
    )

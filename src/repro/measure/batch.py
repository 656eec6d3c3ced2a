"""The vectorized measurement executors.

Every ping and traceroute runs through here: a whole request list is
planned, grouped by forwarding path, and *all* jitter / congestion /
ICMP-penalty / last-mile noise for every sample of every request is
drawn as a handful of NumPy arrays, instead of a few scalar RNG calls
per RTT sample.

The results are columnar :class:`~repro.measure.results.PingBlock` /
:class:`~repro.measure.results.TraceBlock` objects -- no per-request
record (nor per-hop :class:`~repro.measure.results.TraceHop`) objects
are allocated on the hot path; analysis code materializes the record
views lazily via :meth:`MeasurementDataset.pings` / ``.traceroutes``.

Determinism: the draw order inside a batch is fixed (core-path arrays
first, then last-mile arrays -- see
:func:`repro.measure.latency.sample_path_rtt_block`), so the same seed
and the same request list always produce an identical block.  The
KS-equivalence tests in ``tests/unit/test_batch.py`` compare the batch
noise against a record-at-a-time reference sampler
(``tests/oracles/scalar_ping.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloud.regions import CloudRegion
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
    trace_block_from_records,
)
from repro.platforms.probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measure.engine import MeasurementEngine


@dataclass(frozen=True)
class PingRequest:
    """One planned ping request: ``samples`` RTT draws probe -> region."""

    probe: Probe
    region: CloudRegion
    protocol: Protocol = Protocol.TCP
    samples: int = 4
    day: int = 0


@dataclass(frozen=True)
class TraceRequest:
    """One planned traceroute request probe -> region."""

    probe: Probe
    region: CloudRegion
    protocol: Protocol = Protocol.ICMP
    day: int = 0


def _intern_endpoints(
    requests: Sequence[Union[PingRequest, TraceRequest]],
) -> Tuple[List[Probe], List[CloudRegion], List[int], List[int]]:
    """The batch's probe and region tables plus each request's codes.

    Codes are assigned in first-seen request order -- inherently
    sequential, and the RNG draws downstream depend on that order.
    """
    probes: List[Probe] = []
    probe_codes_by_id: Dict[str, int] = {}
    regions: List[CloudRegion] = []
    region_codes_by_key: Dict[Tuple[str, str], int] = {}
    probe_codes: List[int] = []
    region_codes: List[int] = []
    for request in requests:
        probe = request.probe
        probe_code = probe_codes_by_id.setdefault(probe.probe_id, len(probes))
        if probe_code == len(probes):
            probes.append(probe)
        region = request.region
        region_key = (region.provider_code, region.region_id)
        region_code = region_codes_by_key.setdefault(region_key, len(regions))
        if region_code == len(regions):
            regions.append(region)
        probe_codes.append(probe_code)
        region_codes.append(region_code)
    return probes, regions, probe_codes, region_codes


def execute_ping_batch(
    engine: "MeasurementEngine",
    requests: Sequence[PingRequest],
    rng: Optional[np.random.Generator] = None,
) -> PingBlock:
    """Execute a request batch in one vectorized pass.

    Phase 1 walks the request list once in Python: paths are planned (the
    planner caches per pair), per-path noise parameters and per-probe
    last-mile parameters are interned, and probe/region code columns are
    built.  Phase 2 is pure array math over every sample of every
    request.

    ``rng`` overrides the engine's measurement stream -- checkpointed
    campaigns pass a per-unit generator so a unit's draws are independent
    of every other unit's.
    """
    n = len(requests)
    config = engine.config
    if rng is None:
        rng = engine.rng
    if n == 0:
        return PingBlock(
            probes=[],
            regions=[],
            probe_codes=np.empty(0, np.int32),
            region_codes=np.empty(0, np.int32),
            days=np.empty(0, np.int32),
            protocol_codes=np.empty(0, np.uint8),
            sample_values=np.empty(0, np.float64),
            sample_offsets=np.zeros(1, np.int64),
        )

    # Plan every pair in one vectorized pass; the loop below reuses the
    # returned paths directly instead of re-probing the planner cache.
    paths = engine.planner.plan_many(
        [(request.probe, request.region) for request in requests]
    )

    probes, regions, probe_code_list, region_code_list = _intern_endpoints(
        requests
    )
    #: Per-probe last-mile parameters, indexed by probe code.
    lastmile_params = [engine.lastmile_model(p).batch_params() for p in probes]
    #: Per-(continent,) ICMP penalty probability and per-day congestion
    #: cycle multiplier.
    icmp_probability: Dict[object, float] = {}
    cycle_multiplier: Dict[int, float] = {}
    #: Noise-parameter rows (10 floats), interned per distinct
    #: (probe, region, protocol, day) combination -- a batch of many
    #: requests over few paths pays the parameter lookups only once.
    rows: List[Tuple[float, ...]] = []
    row_by_key: Dict[Tuple[int, int, int, int], int] = {}

    day_list: List[int] = []
    proto_list: List[int] = []
    count_list: List[int] = []
    row_code_list: List[int] = []

    # Validation plus dict-based row interning -- inherently sequential.
    for i, request in enumerate(requests):  # repro-lint: disable=PERF001
        if request.samples < 1:
            raise ValueError(f"samples must be >= 1, got {request.samples}")
        probe = request.probe
        probe_code = probe_code_list[i]
        region_code = region_code_list[i]
        proto_code = PROTOCOL_CODES[request.protocol]
        day = request.day
        key = (probe_code, region_code, proto_code, day)
        row_code = row_by_key.get(key)
        if row_code is None:
            path = paths[i]
            multiplier = cycle_multiplier.get(day)
            if multiplier is None:
                multiplier = congestion_cycle_multiplier(day, config)
                cycle_multiplier[day] = multiplier
            if request.protocol is Protocol.ICMP:
                penalty = icmp_probability.get(probe.continent)
                if penalty is None:
                    penalty = icmp_penalty_probability_for(
                        probe.continent, config
                    )
                    icmp_probability[probe.continent] = penalty
            else:
                penalty = 0.0
            row_code = len(rows)
            rows.append(
                (
                    path.base_path_rtt_ms,
                    path.jitter_sigma,
                    path.congestion_probability * multiplier,
                    penalty,
                )
                + lastmile_params[probe_code]
            )
            row_by_key[key] = row_code

        day_list.append(day)
        proto_list.append(proto_code)
        count_list.append(request.samples)
        row_code_list.append(row_code)

    probe_codes = np.array(probe_code_list, np.int32)
    region_codes = np.array(region_code_list, np.int32)
    days = np.array(day_list, np.int32)
    protocol_codes = np.array(proto_list, np.uint8)
    counts = np.array(count_list, np.int64)
    per_request = np.array(rows, np.float64)[row_code_list]
    base = per_request[:, 0]
    sigma = per_request[:, 1]
    congestion_p = per_request[:, 2]
    icmp_p = per_request[:, 3]
    air_median = per_request[:, 4]
    air_sigma = per_request[:, 5]
    wire_median = per_request[:, 6]
    wire_sigma = per_request[:, 7]
    bloat_p = per_request[:, 8]
    bloat_x = per_request[:, 9]

    # -- phase 2: one vectorized pass over every sample --------------------
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    sample_of = np.repeat(np.arange(n), counts)

    core = sample_path_rtt_block(
        base[sample_of],
        sigma[sample_of],
        congestion_p[sample_of],
        protocol_codes[sample_of] == PROTOCOL_CODES[Protocol.ICMP],
        icmp_p[sample_of],
        config,
        rng,
    )

    m = sample_of.shape[0]
    z_air = rng.standard_normal(m)
    u_bloat = rng.random(m)
    z_wire = rng.standard_normal(m)
    air_median_s = air_median[sample_of]
    air = np.where(
        air_median_s > 0.0,
        air_median_s * np.exp(air_sigma[sample_of] * z_air),
        0.0,
    )
    air = np.where(u_bloat < bloat_p[sample_of], air * bloat_x[sample_of], air)
    wire_median_s = wire_median[sample_of]
    wire = np.where(
        wire_median_s > 0.0,
        wire_median_s * np.exp(wire_sigma[sample_of] * z_wire),
        0.0,
    )

    return PingBlock(
        probes=probes,
        regions=regions,
        probe_codes=probe_codes,
        region_codes=region_codes,
        days=days,
        protocol_codes=protocol_codes,
        sample_values=np.round(air + wire + core, 3),
        sample_offsets=offsets,
    )


def execute_traceroute_batch(
    engine: "MeasurementEngine",
    requests: Sequence["TraceRequest"],
    rng: Optional[np.random.Generator] = None,
) -> TraceBlock:
    """Execute a traceroute batch in one vectorized pass.

    Phase 1 plans the paths (cached), interns probes/regions in
    first-seen request order and gathers per-probe and per-request
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
    n = len(requests)
    if n == 0:
        return trace_block_from_records([])
    config = engine.config
    if rng is None:
        rng = engine.rng
    unresponsive_p = config.path_model.hop_unresponsive_probability

    # Plan (or fetch) every trace's path first so the planner's own RNG
    # draws stay grouped ahead of the measurement draws below.
    paths = engine.planner.plan_many(
        [(request.probe, request.region) for request in requests]
    )
    probes, regions, probe_code_list, region_code_list = _intern_endpoints(
        requests
    )
    probe_codes = np.array(probe_code_list, np.int32)

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
    days = np.array([request.day for request in requests], np.int32)
    cycle = {
        day: congestion_cycle_multiplier(day, config)
        for day in np.unique(days).tolist()
    }
    protocol_codes = np.array(
        [PROTOCOL_CODES[request.protocol] for request in requests], np.uint8
    )
    icmp_mask = protocol_codes == PROTOCOL_CODES[Protocol.ICMP]
    counts = np.array([len(path.hop_addresses) for path in paths], np.int64)
    dest_addresses = np.array([path.dest_address for path in paths], np.int64)
    sigma = np.array([path.jitter_sigma for path in paths])
    congestion_p = np.array(
        [path.congestion_probability for path in paths]
    ) * np.array([cycle[day] for day in days.tolist()])
    icmp_p = np.where(icmp_mask, probe_penalty[probe_codes], 0.0)

    # One array draw decides every trace's access switch: Android
    # devices occasionally switch between WiFi and cellular mid-study (a
    # section-5 caveat), which flips the trace's first-hop signature and
    # produces classification false positives.
    switch_p = config.last_mile.access_switch_probability
    switched = probe_wireless[probe_codes] & (rng.random(n) < switch_p)
    lastmile = probe_params[probe_codes]
    for i in np.flatnonzero(switched).tolist():
        probe = requests[i].probe
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
    total = int(counts.sum())
    hop_of = np.repeat(np.arange(n), counts)
    base = np.fromiter(
        chain.from_iterable(path.hop_base_rtts for path in paths),
        np.float64,
        count=total,
    )
    hop_core = sample_hop_rtt_block(
        base,
        sigma[hop_of],
        congestion_p[hop_of],
        icmp_mask[hop_of],
        icmp_p[hop_of],
        config,
        rng,
    )
    rtts = np.round(lastmile_total[hop_of] + hop_core, 3)
    addresses = np.fromiter(
        chain.from_iterable(path.hop_addresses for path in paths),
        np.int64,
        count=total,
    )
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
        region_codes=np.array(region_code_list, np.int32),
        days=days,
        protocol_codes=protocol_codes,
        source_addresses=probe_sources[probe_codes],
        dest_addresses=dest_addresses,
        hop_offsets=hop_offsets,
        hop_addresses=hop_addresses,
        hop_rtts=hop_rtts,
    )

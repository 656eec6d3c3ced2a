"""Record-at-a-time traceroute batch: the oracle for the columnar engine.

:func:`traceroute_records` executes a traceroute batch with exactly the
draws of :func:`repro.measure.batch.execute_traceroute_batch`, but
assembles every trace as a :class:`TracerouteMeasurement` of
:class:`TraceHop` objects, one hop at a time.  Fed the same generator
state, ``trace_block_from_records(traceroute_records(...))`` must equal
the engine's block column for column.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lastmile.base import AccessKind
from repro.measure.engine import MeasurementEngine
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
    sample_hop_rtt_block,
)
from repro.measure.path import HOME_ROUTER_ADDRESS
from repro.measure.results import (
    Protocol,
    TraceHop,
    TracerouteMeasurement,
    build_meta,
)

from tests.oracles.ping_rows import Request


def traceroute_records(
    engine: MeasurementEngine,
    requests: Sequence[Request],
    rng: Optional[np.random.Generator] = None,
) -> List[TracerouteMeasurement]:
    """The batch's traceroutes as records, in request order."""
    n = len(requests)
    if n == 0:
        return []
    config = engine.config
    if rng is None:
        rng = engine.rng
    unresponsive_p = config.path_model.hop_unresponsive_probability

    planner = engine.planner
    paths = [
        planner.path(row)
        for row in planner.plan_many(
            [(request.probe, request.region) for request in requests]
        )
    ]
    accesses: List[AccessKind] = []
    lastmile_rows: List[Tuple[float, ...]] = []
    sigma = np.empty(n)
    congestion_p = np.empty(n)
    icmp_p = np.empty(n)
    icmp_mask = np.empty(n, bool)
    counts = np.empty(n, np.int64)
    icmp_probability: Dict[object, float] = {}

    switch_p = config.last_mile.access_switch_probability
    access_draws = rng.random(n).tolist()
    for i, request in enumerate(requests):
        probe = request.probe
        path = paths[i]
        counts[i] = path.hop_count
        access = probe.access
        if access.is_wireless and access_draws[i] < switch_p:
            access = (
                AccessKind.CELLULAR
                if access is AccessKind.HOME_WIFI
                else AccessKind.HOME_WIFI
            )
        accesses.append(access)
        lastmile_rows.append(engine.lastmile_model(probe, access).batch_params())
        is_icmp = request.protocol is Protocol.ICMP
        if is_icmp:
            penalty = icmp_probability.get(probe.continent)
            if penalty is None:
                penalty = icmp_penalty_probability_for(probe.continent, config)
                icmp_probability[probe.continent] = penalty
        else:
            penalty = 0.0
        sigma[i] = path.jitter_sigma
        congestion_p[i] = path.congestion_probability * (
            congestion_cycle_multiplier(request.day, config)
        )
        icmp_p[i] = penalty
        icmp_mask[i] = is_icmp

    lastmile = np.array(lastmile_rows, np.float64)
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
    router_rtts = np.round(air + rng.exponential(0.3, n), 3).tolist()

    total = int(counts.sum())
    hop_of = np.repeat(np.arange(n), counts)
    base = np.array(
        [rtt for path in paths for rtt in path.hop_base_rtts], np.float64
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
    rtts = np.round(lastmile_total[hop_of] + hop_core, 3).tolist()
    unresponsive_draws = rng.random(total).tolist()

    results: List[TracerouteMeasurement] = []
    position = 0
    for i, (request, path, access) in enumerate(zip(requests, paths, accesses)):
        probe = request.probe
        hops: List[TraceHop] = []
        behind_router = access is AccessKind.HOME_WIFI and (
            probe.access is not AccessKind.HOME_WIFI
            or probe.device_address != probe.public_address
        )
        if behind_router:
            hops.append(TraceHop(address=HOME_ROUTER_ADDRESS, rtt_ms=router_rtts[i]))
        dest_address = path.dest_address
        for address in path.hop_addresses:
            if (
                address != dest_address
                and unresponsive_draws[position] < unresponsive_p
            ):
                hops.append(TraceHop(address=None, rtt_ms=None))
            else:
                hops.append(TraceHop(address=address, rtt_ms=rtts[position]))
            position += 1
        results.append(
            TracerouteMeasurement(
                meta=build_meta(probe, request.region, request.day),
                protocol=request.protocol,
                source_address=probe.device_address,
                dest_address=dest_address,
                hops=tuple(hops),
            )
        )
    return results

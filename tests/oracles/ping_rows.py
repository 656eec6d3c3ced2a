"""Request-at-a-time ping batch: the oracle for the columnar executor.

:func:`ping_rows` is the ping executor as it was before requests became
columns: probes and regions are interned one request at a time in
first-seen order, and one noise-parameter row is interned per distinct
(probe, region, protocol, day).  Its draws are those of
:func:`repro.measure.batch.execute_ping_batch`, so, fed the same
generator state, the two must return byte-identical blocks.

:class:`Request` is one row of a request list, in the field order
:meth:`repro.measure.batch.RequestBatch.of` takes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.measure.batch import RequestBatch
from repro.measure.engine import MeasurementEngine
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
    sample_path_rtt_block,
)
from repro.measure.results import (
    PROTOCOL_BY_CODE,
    PROTOCOL_CODES,
    PingBlock,
    Protocol,
)
from repro.platforms.probe import Probe


class Request(NamedTuple):
    """One request: ``samples`` RTT draws (pings only) probe -> region."""

    probe: Probe
    region: CloudRegion
    protocol: Protocol = Protocol.TCP
    samples: int = 4
    day: int = 0


def requests_of(batch: RequestBatch) -> List[Request]:
    """A batch's rows as requests, in row order."""
    return [
        Request(
            batch.probes[probe],
            batch.regions[region],
            PROTOCOL_BY_CODE[protocol],
            samples,
            day,
        )
        for probe, region, protocol, samples, day in zip(
            batch.probe_codes.tolist(),
            batch.region_codes.tolist(),
            batch.protocol_codes.tolist(),
            batch.samples.tolist(),
            batch.days.tolist(),
        )
    ]


def intern_endpoints(
    requests: Sequence[Request],
) -> Tuple[List[Probe], List[CloudRegion], List[int], List[int]]:
    """The probe and region tables plus each request's codes, assigned
    in first-seen request order."""
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


def ping_rows(
    engine: MeasurementEngine,
    requests: Sequence[Request],
    rng: Optional[np.random.Generator] = None,
) -> PingBlock:
    """The batch's pings as one block, interned request by request."""
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
    planner = engine.planner
    paths = [
        planner.path(row)
        for row in planner.plan_many(
            [(request.probe, request.region) for request in requests]
        )
    ]
    probes, regions, probe_code_list, region_code_list = intern_endpoints(
        requests
    )
    lastmile_params = [engine.lastmile_model(p).batch_params() for p in probes]
    icmp_probability: Dict[object, float] = {}
    cycle_multiplier: Dict[int, float] = {}
    rows: List[Tuple[float, ...]] = []
    row_by_key: Dict[Tuple[int, int, int, int], int] = {}
    day_list: List[int] = []
    proto_list: List[int] = []
    count_list: List[int] = []
    row_code_list: List[int] = []
    for i, request in enumerate(requests):
        if request.samples < 1:
            raise ValueError(f"samples must be >= 1, got {request.samples}")
        probe = request.probe
        probe_code = probe_code_list[i]
        proto_code = PROTOCOL_CODES[request.protocol]
        day = request.day
        key = (probe_code, region_code_list[i], proto_code, day)
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

    protocol_codes = np.array(proto_list, np.uint8)
    counts = np.array(count_list, np.int64)
    per_request = np.array(rows, np.float64)[row_code_list]
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    sample_of = np.repeat(np.arange(n), counts)
    core = sample_path_rtt_block(
        per_request[sample_of, 0],
        per_request[sample_of, 1],
        per_request[sample_of, 2],
        protocol_codes[sample_of] == PROTOCOL_CODES[Protocol.ICMP],
        per_request[sample_of, 3],
        config,
        rng,
    )
    m = sample_of.shape[0]
    z_air = rng.standard_normal(m)
    u_bloat = rng.random(m)
    z_wire = rng.standard_normal(m)
    air_median = per_request[sample_of, 4]
    air = np.where(
        air_median > 0.0,
        air_median * np.exp(per_request[sample_of, 5] * z_air),
        0.0,
    )
    air = np.where(
        u_bloat < per_request[sample_of, 8],
        air * per_request[sample_of, 9],
        air,
    )
    wire_median = per_request[sample_of, 6]
    wire = np.where(
        wire_median > 0.0,
        wire_median * np.exp(per_request[sample_of, 7] * z_wire),
        0.0,
    )
    return PingBlock(
        probes=probes,
        regions=regions,
        probe_codes=np.array(probe_code_list, np.int32),
        region_codes=np.array(region_code_list, np.int32),
        days=np.array(day_list, np.int32),
        protocol_codes=protocol_codes,
        sample_values=np.round(air + wire + core, 3),
        sample_offsets=offsets,
    )

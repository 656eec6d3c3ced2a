"""Record-at-a-time ping sampler: the reference for the batch noise model.

:func:`scalar_ping` draws one ping request's RTT samples the way the
measurement engine first did, a few scalar generator calls per sample:

- the last mile: the air leg (lognormal, inflated by bufferbloat), then
  the wire leg (lognormal); an absent leg draws nothing;
- the path core: lognormal jitter around the base RTT, a congestion
  episode inflating it 1.3x-2.5x, and for ICMP the base inflation plus
  the deprioritisation penalty.

Its stream consumption differs from
:func:`repro.measure.batch.execute_ping_batch`, so the two agree in
distribution only; the KS tests in ``tests/unit/test_batch.py`` bound
the distance between them.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.measure.engine import MeasurementEngine
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
)
from repro.measure.results import PingMeasurement, Protocol, build_meta
from repro.platforms.probe import Probe


def scalar_ping(
    engine: MeasurementEngine,
    probe: Probe,
    region: CloudRegion,
    protocol: Protocol = Protocol.TCP,
    samples: int = 4,
    day: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> PingMeasurement:
    """One ping request: ``samples`` end-to-end RTTs, drawn one by one."""
    if rng is None:
        rng = engine.rng
    config = engine.config
    path_config = config.path_model
    path = engine.planner.plan(probe, region)
    air_median, air_sigma, wire_median, wire_sigma, bloat_p, bloat_x = (
        engine.lastmile_model(probe).batch_params()
    )
    congestion_p = path.congestion_probability * congestion_cycle_multiplier(
        day, config
    )
    penalty_p = icmp_penalty_probability_for(probe.continent, config)
    rtts = []
    for _ in range(samples):
        last_mile = 0.0
        if air_median > 0.0:
            air = air_median * math.exp(air_sigma * rng.standard_normal())
            if rng.random() < bloat_p:
                air *= bloat_x
            last_mile += air
        if wire_median > 0.0:
            last_mile += wire_median * math.exp(wire_sigma * rng.standard_normal())

        core = path.base_path_rtt_ms * math.exp(
            path.jitter_sigma * rng.standard_normal()
        )
        if rng.random() < congestion_p:
            core *= 1.3 + 1.2 * rng.random()
        if protocol is Protocol.ICMP:
            core *= path_config.icmp_base_inflation
            if rng.random() < penalty_p:
                core *= path_config.icmp_penalty_factor
        rtts.append(round(last_mile + core, 3))
    return PingMeasurement(
        meta=build_meta(probe, region, day),
        protocol=Protocol(protocol),
        samples=tuple(rtts),
    )

"""Parity: the columnar ping executor against the request-at-a-time oracle.

:func:`repro.measure.batch.execute_ping_batch` takes a
:class:`~repro.measure.batch.RequestBatch` of integer code columns,
plans each distinct (probe, region) pair once and gathers its noise
parameters per pair, per probe and per day.  The oracle in
:mod:`tests.oracles.ping_rows` interns probes, regions and parameter
rows one request at a time.  Fed the same requests and generator state,
both must return byte-identical blocks: the same tables in the same
first-seen order, and the same bytes in every column.

The fault layers filter batches with masks; their survivors must be
exactly the requests the list-based logic kept.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_world
from repro.faults import FaultConfig, FaultPlan, FaultyEngine, FaultySpeedchecker
from repro.measure.batch import RequestBatch
from repro.measure.campaign import _checkpoint_engine, _speedchecker_unit
from repro.measure.results import PING_COLUMN_DTYPES, Protocol

from tests.oracles.ping_rows import Request, ping_rows, requests_of

SEED = 23
SCALE = 0.01
RNG_SEED = 4242


@pytest.fixture(scope="module")
def worlds():
    """Two same-seed worlds: the oracle runs on one and the executor on
    the other, so their sequential planners stay in step only if both
    plan the same pairs in the same order."""
    return build_world(seed=SEED, scale=SCALE), build_world(seed=SEED, scale=SCALE)


def _pools(world):
    probes = world.speedchecker.probes[:8] + world.atlas.probes[:4]
    regions = list(world.catalog)[:6]
    return probes, regions


def _assert_byte_identical(block, expected):
    block.validate()
    assert [p.probe_id for p in block.probes] == [
        p.probe_id for p in expected.probes
    ]
    assert [(r.provider_code, r.region_id) for r in block.regions] == [
        (r.provider_code, r.region_id) for r in expected.regions
    ]
    for name, dtype in PING_COLUMN_DTYPES.items():
        column = getattr(block, name)
        assert column.dtype == dtype, name
        assert column.tobytes() == getattr(expected, name).tobytes(), name


_ROWS = st.lists(
    st.tuples(
        st.integers(0, 11),
        st.integers(0, 5),
        st.sampled_from([Protocol.TCP, Protocol.ICMP]),
        st.integers(1, 5),
        st.integers(0, 9),
    ),
    max_size=40,
)


@given(rows=_ROWS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_columnar_ping_batch_is_byte_identical_to_oracle(worlds, rows):
    oracle_world, world = worlds
    blocks = []
    for each in (oracle_world, world):
        probes, regions = _pools(each)
        requests = [
            Request(probes[probe], regions[region], protocol, samples, day)
            for probe, region, protocol, samples, day in rows
        ]
        rng = np.random.default_rng(RNG_SEED)
        if each is oracle_world:
            blocks.append(ping_rows(each.engine, requests, rng=rng))
        else:
            blocks.append(each.engine.ping_batch(RequestBatch.of(requests), rng=rng))
    expected, block = blocks
    _assert_byte_identical(block, expected)


def test_empty_batch_is_byte_identical_to_oracle(worlds):
    oracle_world, world = worlds
    _assert_byte_identical(
        world.engine.ping_batch(RequestBatch.of([])),
        ping_rows(oracle_world.engine, []),
    )


@pytest.mark.parametrize("samples", [0, -2])
def test_samples_below_one_raise(worlds, samples):
    _, world = worlds
    probes, regions = _pools(world)
    batch = RequestBatch.of(
        [
            Request(probes[0], regions[0]),
            Request(probes[1], regions[1], samples=samples),
        ]
    )
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        world.engine.ping_batch(batch)


class RecordingEngine:
    """Delegates to a real engine and keeps the batches it was given."""

    def __init__(self, inner):
        self.inner = inner
        self.ping_batches = []

    def ping_batch(self, batch, rng=None):
        self.ping_batches.append(batch)
        return self.inner.ping_batch(batch, rng=rng)

    def traceroute_batch(self, batch, rng=None):
        return self.inner.traceroute_batch(batch, rng=rng)


def test_quota_truncated_unit_is_byte_identical_to_oracle():
    # A quota race drains half the budget between scheduling and
    # charging, so charge_up_to issues only a prefix of the unit.
    world = build_world(seed=11, scale=0.01)
    world.speedchecker._daily_quota = 40
    faults = FaultPlan(
        world.config.seed,
        FaultConfig(quota_race_rate=1.0, quota_race_fraction=0.5),
    ).attempt("speedchecker:000", 0)
    engine = RecordingEngine(_checkpoint_engine(world))
    result = _speedchecker_unit(
        world, engine, 0, platform=FaultySpeedchecker(world.speedchecker, faults)
    )
    assert result.partial
    [issued] = engine.ping_batches
    assert 0 < len(issued) < result.scheduled_pings
    # The issued rows share the scheduled batch's tables, which also
    # list probes whose requests were never issued.
    assert len(issued.probes) > len(result.ping_block.probes)
    expected = ping_rows(
        _checkpoint_engine(world),
        requests_of(issued),
        rng=world.rngs.fork("checkpoint.speedchecker.engine", 0),
    )
    _assert_byte_identical(result.ping_block, expected)


def _list_based_survivors(requests, faults):
    """The survivors of the request-list fault logic the mask-based
    :class:`FaultyEngine` replaced, drawing from ``faults`` alike."""
    config = faults.config
    kept = list(requests)
    if faults.measure.random() < config.probe_disconnect_rate:
        probe_ids = sorted({request.probe.probe_id for request in kept})
        victim = probe_ids[int(faults.measure.integers(len(probe_ids)))]
        owned = sum(1 for request in kept if request.probe.probe_id == victim)
        after = int(faults.measure.integers(owned))
        survivors, seen = [], 0
        for request in kept:
            if request.probe.probe_id == victim:
                if seen >= after:
                    continue
                seen += 1
            survivors.append(request)
        kept = survivors
    draws = faults.measure.random(len(kept))
    return [
        request
        for request, draw in zip(kept, draws)
        if draw >= config.reply_loss_rate
    ]


@pytest.mark.parametrize("unit", ["atlas:000", "atlas:001", "speedchecker:002"])
def test_faulty_engine_keeps_the_rows_the_list_logic_kept(worlds, unit):
    _, world = worlds
    probes, regions = _pools(world)
    requests = [
        Request(probes[(i * 5) % 6], regions[i % 4], Protocol.TCP, 2, 0)
        for i in range(30)
    ]
    config = FaultConfig(probe_disconnect_rate=1.0, reply_loss_rate=0.3)
    plan = FaultPlan(7, config)
    recorder = RecordingEngine(_checkpoint_engine(world))
    faulty = FaultyEngine(recorder, plan.attempt(unit, 0))
    faulty.ping_batch(RequestBatch.of(requests), rng=np.random.default_rng(1))
    [survivors] = recorder.ping_batches
    expected = _list_based_survivors(requests, plan.attempt(unit, 0))
    assert 0 < len(expected) < len(requests)

    def key(request):
        region = request.region
        return (
            request.probe.probe_id,
            region.provider_code,
            region.region_id,
            request.protocol,
            request.samples,
            request.day,
        )

    assert [key(r) for r in requests_of(survivors)] == [key(r) for r in expected]

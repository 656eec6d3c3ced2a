"""Parity: columnar traceroute batches against the record-at-a-time oracle.

:func:`repro.measure.batch.execute_traceroute_batch` writes every hop of
every trace straight into :class:`TraceBlock` columns.  The oracle in
:mod:`tests.oracles.traceroute_records` makes the same draws and builds
one :class:`TracerouteMeasurement` per trace, hop by hop.  Given the
same generator state, the engine's block must be byte-identical, column
for column and table for table, to the oracle's records columnarized by
:func:`trace_block_from_records`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_world
from repro.lastmile.base import AccessKind
from repro.measure.batch import RequestBatch
from repro.measure.path import HOME_ROUTER_ADDRESS
from repro.measure.results import (
    TRACE_COLUMN_DTYPES,
    Protocol,
    trace_block_from_records,
)

from tests.oracles.ping_rows import Request
from tests.oracles.traceroute_records import traceroute_records

SEED = 17
SCALE = 0.01
RNG_SEED = 2024


@pytest.fixture(scope="module")
def world():
    return build_world(seed=SEED, scale=SCALE)


def _mixed_requests(world):
    """Speedchecker (home WiFi / cellular) and Atlas (wired) probes over
    several regions, both protocols and several days, with probes
    revisited out of order so first-seen interning order matters."""
    regions = list(world.catalog)[:4]
    probes = world.speedchecker.probes[:60] + world.atlas.probes[:20]
    requests = []
    for day in range(3):
        for index, probe in enumerate(probes[::-1] if day % 2 else probes):
            requests.append(
                Request(
                    probe,
                    regions[(index + day) % len(regions)],
                    (Protocol.ICMP, Protocol.TCP)[index % 2],
                    day=day,
                )
            )
    return requests


def _run_both(world, requests):
    """(engine block, oracle records) from identical generator states."""
    engine = world.engine
    records = traceroute_records(
        engine, requests, rng=np.random.default_rng(RNG_SEED)
    )
    block = engine.traceroute_batch(
        RequestBatch.of(requests), rng=np.random.default_rng(RNG_SEED)
    )
    return block, records


def _oracle_block(requests, records):
    return trace_block_from_records(
        records,
        {request.probe.probe_id: request.probe for request in requests},
        {
            (req.region.provider_code, req.region.region_id): req.region
            for req in requests
        },
    )


def _assert_block_matches_oracle(requests, block, records):
    block.validate()
    expected = _oracle_block(requests, records)
    # Same objects, same first-seen order.
    assert block.probes == expected.probes
    assert block.regions == expected.regions
    for name, dtype in TRACE_COLUMN_DTYPES.items():
        column = getattr(block, name)
        assert column.dtype == dtype, name
        assert column.tobytes() == getattr(expected, name).tobytes(), name
    assert block.epochs is None and block.outage_ids is None
    assert list(block) == records
    assert [block[i] for i in range(len(block))] == records


class TestTraceBlockParity:
    def test_mixed_batch_is_byte_identical_to_oracle(self, world):
        requests = _mixed_requests(world)
        block, records = _run_both(world, requests)
        _assert_block_matches_oracle(requests, block, records)

        # The batch exercises every branch of the hop assembly.
        router_first = [
            record.hops[0].address == HOME_ROUTER_ADDRESS for record in records
        ]
        assert any(router_first)
        switched = [
            (record.meta.access is AccessKind.CELLULAR and behind)
            or (
                record.meta.access is AccessKind.HOME_WIFI
                and request.probe.device_address
                != request.probe.public_address
                and not behind
            )
            for record, request, behind in zip(records, requests, router_first)
        ]
        assert any(switched)
        assert any(hop.address is None for r in records for hop in r.hops)
        assert all(record.reached for record in records)
        assert {record.protocol for record in records} == set(Protocol)
        assert len({record.meta.day for record in records}) == 3
        assert len(block.probes) < len(block)

    def test_single_request_batch_is_byte_identical_to_oracle(self, world):
        requests = _mixed_requests(world)[:1]
        block, records = _run_both(world, requests)
        assert len(block) == 1
        _assert_block_matches_oracle(requests, block, records)

    def test_empty_batch_is_byte_identical_to_oracle(self, world):
        block, records = _run_both(world, [])
        assert records == []
        _assert_block_matches_oracle([], block, records)
        assert block.hop_offsets.tolist() == [0]

"""Reproducibility: the same seed must produce the same study."""

import hashlib

from repro import build_world, run_campaign
from repro.measure.campaign import run_campaign_checkpointed
from repro.measure.results import (
    PING_COLUMN_DTYPES,
    PING_OPTIONAL_COLUMN_DTYPES,
    TRACE_COLUMN_DTYPES,
    TRACE_OPTIONAL_COLUMN_DTYPES,
)


def dataset_digest(dataset) -> str:
    hasher = hashlib.sha256()
    for ping in dataset.pings():
        hasher.update(ping.meta.probe_id.encode())
        hasher.update(ping.meta.region_id.encode())
        hasher.update(repr(ping.samples).encode())
    for trace in dataset.traceroutes():
        hasher.update(trace.meta.probe_id.encode())
        hasher.update(repr([(h.address, h.rtt_ms) for h in trace.hops]).encode())
    return hasher.hexdigest()


def assert_same_blocks(left, right, columns) -> None:
    """Blocks match one for one: probe and region tables, and every
    column's dtype and bytes (an absent optional column on both sides)."""
    assert left and len(left) == len(right)
    for a, b in zip(left, right):
        assert a.probes == b.probes
        assert a.regions == b.regions
        for name in columns:
            col_a, col_b = getattr(a, name), getattr(b, name)
            if col_a is None or col_b is None:
                assert col_a is None and col_b is None, name
                continue
            assert col_a.dtype == col_b.dtype, name
            assert col_a.tobytes() == col_b.tobytes(), name


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        first = run_campaign(build_world(seed=99, scale=0.006), days=3)
        second = run_campaign(build_world(seed=99, scale=0.006), days=3)
        assert dataset_digest(first) == dataset_digest(second)

    def test_different_seed_different_dataset(self):
        first = run_campaign(build_world(seed=99, scale=0.006), days=3)
        second = run_campaign(build_world(seed=100, scale=0.006), days=3)
        assert dataset_digest(first) != dataset_digest(second)

    def test_same_seed_same_topology(self):
        a = build_world(seed=55, scale=0.006)
        b = build_world(seed=55, scale=0.006)
        assert len(a.topology.registry) == len(b.topology.registry)
        assert a.topology.base_graph.edge_count() == b.topology.base_graph.edge_count()
        for code in ("GCP", "DO"):
            assert (
                a.topology.peerings[code].direct_isps
                == b.topology.peerings[code].direct_isps
            )

    def test_same_seed_same_probe_fleet(self):
        a = build_world(seed=55, scale=0.006)
        b = build_world(seed=55, scale=0.006)
        ids_a = [p.probe_id for p in a.speedchecker.probes]
        ids_b = [p.probe_id for p in b.speedchecker.probes]
        assert ids_a == ids_b
        assert [p.public_address for p in a.speedchecker.probes] == [
            p.public_address for p in b.speedchecker.probes
        ]

    def test_in_memory_campaign_is_byte_identical_to_store(self, tmp_path):
        world = build_world(seed=3, scale=0.01)
        in_memory = run_campaign(world, days=3)
        stored = run_campaign_checkpointed(
            build_world(seed=3, scale=0.01), tmp_path / "run", days=3
        ).materialize()
        assert_same_blocks(
            in_memory.ping_store.blocks,
            stored.ping_store.blocks,
            {**PING_COLUMN_DTYPES, **PING_OPTIONAL_COLUMN_DTYPES},
        )
        assert_same_blocks(
            in_memory.trace_store.blocks,
            stored.trace_store.blocks,
            {**TRACE_COLUMN_DTYPES, **TRACE_OPTIONAL_COLUMN_DTYPES},
        )
        # Units own their randomness: re-running on the same world
        # reproduces the first run exactly.
        again = run_campaign(world, days=3)
        assert_same_blocks(
            in_memory.ping_store.blocks,
            again.ping_store.blocks,
            {**PING_COLUMN_DTYPES, **PING_OPTIONAL_COLUMN_DTYPES},
        )
        assert_same_blocks(
            in_memory.trace_store.blocks,
            again.trace_store.blocks,
            {**TRACE_COLUMN_DTYPES, **TRACE_OPTIONAL_COLUMN_DTYPES},
        )

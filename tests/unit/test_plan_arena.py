"""The planner's arena: parity with tuple assembly, and its memory bound.

:class:`~repro.measure.path.PathPlanner` writes planned paths straight
into NumPy columns.  Every :meth:`~repro.measure.path.PathPlanner.path`
view of an arena row must equal, field for field, the path the
tuple-assembling oracle in :mod:`tests.oracles.planned_paths` builds for
the same batches -- across empty, single, duplicate and split batches,
DIRECT_IXP paths with their IXP port hop, both draw disciplines, and
token-namespaced keys under a :class:`FailoverPathPolicy`.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import run_campaign
from repro.measure.path import InterconnectKind, PathPlanner, PlannedPath
from repro.measure.pathpolicy import FailoverPathPolicy, PathKey

from tests.oracles.planned_paths import TuplePlanner

#: Pool layout: DIRECT_IXP pairs first, so the explicit examples hit them.
IXP_PAIRS = 3
POOL_SIZE = 12
RNG_SEED = 99
#: Campaign days whose pairs the memory test plans.
MEMORY_DAYS = 3
#: Retained planner bytes allowed per planned hop.
MAX_BYTES_PER_HOP = 64


class Pool(NamedTuple):
    pairs: List[Tuple[object, object]]
    #: A path key with a surviving alternate, to mark down.
    down: PathKey


def make_planner(
    world, *, sequential: bool = False, down: Optional[PathKey] = None
) -> PathPlanner:
    policy = None
    if down is not None:
        policy = FailoverPathPolicy()
        policy.mark_path_down(down)
    return PathPlanner(
        topology=world.topology,
        wans=world.wans,
        region_addresses=world.region_addresses,
        config=world.config,
        countries=world.countries,
        rng=np.random.default_rng(RNG_SEED) if sequential else None,
        pair_entropy=None if sequential else world.rngs.seed,
        route_policy=policy,
    )


@pytest.fixture(scope="module")
def pool(world) -> Pool:
    regions = world.catalog.all()[::10]
    candidates = [
        (probe, region)
        for probe in world.speedchecker.probes[:300]
        for region in regions
    ]
    scout = make_planner(world)
    rows = scout.plan_many(candidates)
    interconnects = [scout.path(row).interconnect for row in rows.tolist()]
    direct_ixp = [
        pair
        for pair, kind in zip(candidates, interconnects)
        if kind is InterconnectKind.DIRECT_IXP
    ]
    others = [
        pair
        for pair, kind in zip(candidates, interconnects)
        if kind is not InterconnectKind.DIRECT_IXP
    ]
    pairs = direct_ixp[:IXP_PAIRS] + others[:: len(others) // 20][
        : POOL_SIZE - IXP_PAIRS
    ]
    assert len(pairs) == POOL_SIZE
    topology = world.topology
    policy = FailoverPathPolicy()
    for probe, region in pairs[IXP_PAIRS:]:
        key = policy.path_key(
            topology, probe.isp_asn, region.provider_code, probe.continent
        )
        base = topology.as_path(probe.isp_asn, region.provider_code, probe.continent)
        policy.mark_path_down(key)
        alternate = policy.as_path(
            topology, probe.isp_asn, region.provider_code, probe.continent
        )
        policy.mark_path_up(key)
        if alternate is not None and alternate != base:
            return Pool(pairs, key)
    pytest.fail("no pool pair has a failover alternate")


def assert_same_path(view: PlannedPath, expected: PlannedPath) -> None:
    for field in PlannedPath._fields:
        assert getattr(view, field) == getattr(expected, field), field


batch_lists = st.lists(
    st.lists(st.integers(0, POOL_SIZE - 1), max_size=8), max_size=4
)


@given(batches=batch_lists, sequential=st.booleans(), failover=st.booleans())
@example(batches=[[]], sequential=False, failover=False)
@example(batches=[[0]], sequential=False, failover=False)
@example(batches=[[0, 4, 0, 0]], sequential=True, failover=False)
@example(batches=[[0, 1, 5], [5, 6, 0], [7]], sequential=False, failover=False)
@example(batches=[list(range(POOL_SIZE))], sequential=False, failover=True)
@example(batches=[[3, 1, 9], [9, 2]], sequential=False, failover=True)
@example(batches=[[4, 0], [0, 11, 4]], sequential=True, failover=True)
@settings(max_examples=40, deadline=None)
def test_arena_views_match_tuple_assembly(
    world, pool, batches, sequential, failover
):
    down = pool.down if failover else None
    planner = make_planner(world, sequential=sequential, down=down)
    oracle = TuplePlanner(make_planner(world, sequential=sequential, down=down))
    planned = set()
    for batch in batches:
        pairs = [pool.pairs[i] for i in batch]
        rows = planner.plan_many(pairs)
        assert rows.dtype == np.int64 and rows.shape == (len(pairs),)
        expected = oracle.plan_many(pairs)
        for row, path in zip(rows.tolist(), expected):
            assert_same_path(planner.path(row), path)
        planned.update(batch)
        # One row per distinct pair, however the pairs were batched.
        assert len(planner.arena) == len(planned)
    if failover and planned:
        assert all(len(key) == 4 for key in planner._cache)


def test_pool_direct_ixp_paths_carry_their_port(world, pool):
    planner = make_planner(world)
    rows = planner.plan_many(pool.pairs[:IXP_PAIRS])
    for row in rows.tolist():
        path = planner.path(row)
        assert path.interconnect is InterconnectKind.DIRECT_IXP
        (port,) = [hop for hop in path.hops if hop.owner_kind == "ixp"]
        assert port.asn is None and port.ixp_id is not None
        assert path.hops[-1].address == path.dest_address


def test_path_rejects_rows_outside_the_arena(world, pool):
    planner = make_planner(world)
    planner.plan_many(pool.pairs[:2])
    for row in (-1, 2):
        with pytest.raises(IndexError):
            planner.path(row)


def test_planner_retains_at_most_64_bytes_per_hop(world, monkeypatch):
    """Plan every pair of a few campaign days into a fresh planner; the
    arena, the keys and the route metas stay within the per-hop bound,
    and the cache maps keys to arena rows, not path objects."""
    batches = []
    plan_many = PathPlanner.plan_many

    def record(self, pairs):
        batches.append(list(pairs))
        return plan_many(self, pairs)

    monkeypatch.setattr(PathPlanner, "plan_many", record)
    run_campaign(world, days=MEMORY_DAYS)
    monkeypatch.undo()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        planner = make_planner(world)
        before = tracemalloc.get_traced_memory()[0]
        for pairs in batches:
            planner.plan_many(pairs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    hops = len(planner.arena.hops)
    assert hops > 10_000
    assert retained <= MAX_BYTES_PER_HOP * hops, retained / hops
    assert all(type(row) is int for row in planner._cache.values())

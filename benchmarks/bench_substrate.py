"""Microbenchmarks for the substrate: resolution, planning, measurement.

These are throughput numbers for the simulator itself (not paper
artifacts): how fast the PyASN-equivalent resolves addresses, how fast
paths plan, and how fast a campaign day executes.
"""

import numpy as np

from repro import run_campaign
from repro.measure.batch import RequestBatch
from repro.measure.results import Protocol
from repro.resolve.pipeline import TracerouteResolver
from repro.resolve.pyasn import PyASNResolver


def test_pyasn_lookup_throughput(benchmark, world):
    resolver = PyASNResolver(world.topology.registry.prefix_table())
    rng = np.random.default_rng(0)
    prefixes = world.topology.registry.prefix_table()
    addresses = [
        prefix.address_at(int(rng.integers(0, prefix.size)))
        for prefix, _ in prefixes[:2000]
    ]

    def lookup_all():
        return sum(1 for address in addresses if resolver.lookup(address) is not None)

    resolved = benchmark(lookup_all)
    assert resolved == len(addresses)


def test_path_planning_throughput(benchmark, world):
    probes = world.speedchecker.probes[:50]
    regions = world.catalog.all()[::10]

    def plan_all():
        count = 0
        for probe in probes:
            for region in regions:
                world.planner.plan(probe, region)
                count += 1
        return count

    planned = benchmark(plan_all)
    assert planned == len(probes) * len(regions)


def test_ping_throughput(benchmark, world):
    """50 pings through the vectorized batch API (one RNG pass)."""
    probe = world.speedchecker.probes[0]
    region = world.catalog.all()[0]
    requests = RequestBatch.of([(probe, region, Protocol.TCP, 4, 0)] * 50)

    def ping_batch():
        return world.engine.ping_batch(requests)

    block = benchmark(ping_batch)
    assert len(block) == 50


def test_traceroute_resolution_throughput(benchmark, world, dataset):
    resolver = TracerouteResolver(
        world.topology.registry, world.topology.ixps, rib_coverage=1.0
    )
    traces = list(dataset.traceroutes(platform="speedchecker"))[:400]

    def resolve_all():
        return [resolver.resolve(trace) for trace in traces]

    resolved = benchmark(resolve_all)
    assert len(resolved) == len(traces)


def test_campaign_day_throughput(benchmark, world):
    def one_day():
        return run_campaign(world, days=1, platforms=("speedchecker",))

    result = benchmark.pedantic(one_day, rounds=5, iterations=1, warmup_rounds=1)
    assert result.ping_count > 0

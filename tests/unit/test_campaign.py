"""Tests for repro.measure.campaign scheduling behaviour."""

import numpy as np
import pytest

from helpers import dataset_digest

from repro import build_world, run_campaign
from repro.geo.continents import Continent
from repro.measure.campaign import run_case_study, target_regions
from repro.measure.results import Protocol


@pytest.fixture(scope="module")
def small_world():
    return build_world(seed=5, scale=0.008)


@pytest.fixture(scope="module")
def small_dataset(small_world):
    return run_campaign(small_world, days=6)


class TestRunCampaign:
    def test_produces_measurements(self, small_dataset):
        assert small_dataset.ping_count > 100
        assert small_dataset.traceroute_count > 20

    def test_day_range(self, small_dataset):
        days = {ping.meta.day for ping in small_dataset.pings()}
        assert days <= set(range(6))
        assert len(days) > 1

    def test_invalid_days(self, small_world):
        with pytest.raises(ValueError, match="at least one day"):
            run_campaign(small_world, days=0)

    def test_unknown_platform_rejected(self, small_world):
        with pytest.raises(ValueError, match="unknown campaign platform"):
            run_campaign(small_world, days=1, platforms=("ripe",))

    def test_platform_selection(self, small_world):
        sc_only = run_campaign(small_world, days=2, platforms=("speedchecker",))
        assert all(
            ping.meta.platform == "speedchecker" for ping in sc_only.pings()
        )

    def test_speedchecker_pings_are_tcp(self, small_dataset):
        protocols = {
            ping.protocol for ping in small_dataset.pings(platform="speedchecker")
        }
        assert protocols == {Protocol.TCP}

    def test_speedchecker_traceroutes_are_icmp(self, small_dataset):
        protocols = {
            trace.protocol
            for trace in small_dataset.traceroutes(platform="speedchecker")
        }
        assert protocols == {Protocol.ICMP}

    def test_atlas_records_both_ping_protocols(self, small_dataset):
        protocols = {
            ping.protocol for ping in small_dataset.pings(platform="atlas")
        }
        assert protocols == {Protocol.TCP, Protocol.ICMP}

    def test_atlas_traceroutes_are_tcp(self, small_dataset):
        protocols = {
            trace.protocol for trace in small_dataset.traceroutes(platform="atlas")
        }
        assert protocols == {Protocol.TCP}

    def test_targets_stay_in_continent_except_af_sa(self, small_dataset):
        for ping in small_dataset.pings():
            meta = ping.meta
            if meta.continent in (Continent.AF, Continent.SA):
                continue
            assert meta.region_continent is meta.continent

    def test_african_probes_also_target_eu_and_na(self, small_dataset):
        targets = {
            ping.meta.region_continent
            for ping in small_dataset.pings()
            if ping.meta.continent is Continent.AF
        }
        assert Continent.EU in targets
        assert Continent.NA in targets

    def test_south_american_probes_also_target_na(self, small_dataset):
        targets = {
            ping.meta.region_continent
            for ping in small_dataset.pings()
            if ping.meta.continent is Continent.SA
        }
        assert Continent.NA in targets


class TestTargetRegions:
    def test_covers_every_in_continent_provider(self, small_world):
        probe = next(
            p for p in small_world.speedchecker.probes if p.continent is Continent.EU
        )
        rng = np.random.default_rng(0)
        regions = target_regions(small_world, probe, rng)
        providers = {region.provider_code for region in regions}
        in_continent_providers = {
            region.provider_code
            for region in small_world.catalog.in_continent(Continent.EU)
        }
        assert in_continent_providers <= providers

    def test_no_duplicate_regions(self, small_world):
        probe = small_world.speedchecker.probes[0]
        rng = np.random.default_rng(0)
        regions = target_regions(small_world, probe, rng)
        keys = [(r.provider_code, r.region_id) for r in regions]
        assert len(keys) == len(set(keys))


class TestCaseStudy:
    def test_source_and_destination_respected(self, small_world):
        dataset = run_case_study(small_world, "DE", "GB", rounds=1, max_probes=4)
        for ping in dataset.pings():
            assert ping.meta.country == "DE"
            assert ping.meta.region_country == "GB"
        assert dataset.traceroute_count == dataset.ping_count

    def test_unknown_destination(self, small_world):
        with pytest.raises(ValueError, match="no cloud regions"):
            run_case_study(small_world, "DE", "XX", rounds=1)

    def test_max_probes_cap(self, small_world):
        dataset = run_case_study(small_world, "DE", "GB", rounds=1, max_probes=2)
        probes = {ping.meta.probe_id for ping in dataset.pings()}
        assert len(probes) <= 2

    def test_one_ping_and_one_trace_block_in_round_probe_region_order(
        self, small_world
    ):
        dataset = run_case_study(small_world, "DE", "GB", rounds=2, max_probes=3)
        assert len(dataset.ping_blocks()) == 1
        assert len(dataset.trace_blocks()) == 1
        regions = [
            (region.provider_code, region.region_id)
            for region in small_world.catalog.all()
            if region.country == "GB"
        ]
        pings = list(dataset.pings())
        probe_ids = list(dict.fromkeys(ping.meta.probe_id for ping in pings))
        assert len(probe_ids) == 3
        expected = [
            (day, probe_id, region)
            for day in range(2)
            for probe_id in probe_ids
            for region in regions
        ]

        def rows(records):
            return [
                (r.meta.day, r.meta.probe_id, (r.meta.provider_code, r.meta.region_id))
                for r in records
            ]

        assert rows(pings) == expected
        assert rows(dataset.traceroutes()) == expected
        assert {ping.protocol for ping in pings} == {Protocol.TCP}
        assert {trace.protocol for trace in dataset.traceroutes()} == {Protocol.ICMP}

    def test_source_without_probes_returns_empty_dataset(self, small_world):
        assert not small_world.speedchecker.probes_in_country("AQ")
        dataset = run_case_study(small_world, "AQ", "GB", rounds=2)
        assert dataset.ping_count == 0
        assert dataset.traceroute_count == 0
        assert dataset.ping_blocks() == []
        assert dataset.trace_blocks() == []

    def test_same_seed_worlds_give_equal_datasets(self):
        first, second = (
            run_case_study(
                build_world(seed=5, scale=0.008), "DE", "GB", rounds=2, max_probes=3
            )
            for _ in range(2)
        )
        assert list(first.pings()) == list(second.pings())
        assert list(first.traceroutes()) == list(second.traceroutes())

    def test_pinned_digests_of_sequential_case_studies(self):
        # The world's planner draws from one sequential stream, so these
        # digests also pin the order in which the case studies plan
        # their (probe, region) pairs.  Run both on one fresh world.
        world = build_world(seed=5, scale=0.008)
        first = run_case_study(world, "DE", "GB", rounds=2, max_probes=3)
        second = run_case_study(world, "JP", "IN", rounds=2, max_probes=3)
        assert (first.ping_count, second.ping_count) == (66, 72)
        assert dataset_digest(first) == (
            "74e23908095a6cc6b7bb4d03f259efb30f30646808ddd9c7ebb1ff22840e514b"
        )
        assert dataset_digest(second) == (
            "40b7449f89c9203803ef886cbb8d28be53284b89c0e258aeab3049ff1af98944"
        )

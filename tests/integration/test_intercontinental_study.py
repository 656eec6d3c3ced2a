"""Tests for the focused inter-continental study runner (Fig. 6 support)."""

import pytest

from helpers import dataset_digest

from repro import build_world
from repro.geo.continents import Continent
from repro.measure.campaign import run_intercontinental_study


@pytest.fixture(scope="module")
def small_world():
    return build_world(seed=17, scale=0.008)


class TestRunIntercontinentalStudy:
    def test_only_listed_countries_measured(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG", "KE"], [Continent.EU, Continent.AF], rounds=1
        )
        countries = {ping.meta.country for ping in dataset.pings()}
        assert countries <= {"EG", "KE"}

    def test_targets_cover_requested_continents(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU, Continent.NA], rounds=1
        )
        targets = {ping.meta.region_continent for ping in dataset.pings()}
        assert targets == {Continent.EU, Continent.NA}

    def test_every_provider_with_regions_is_covered(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=1
        )
        measured = {ping.meta.provider_code for ping in dataset.pings()}
        available = {
            region.provider_code
            for region in small_world.catalog.in_continent(Continent.EU)
        }
        assert measured == available

    def test_rounds_scale_volume(self, small_world):
        one = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=1, max_probes_per_country=3
        )
        three = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=3, max_probes_per_country=3
        )
        assert three.ping_count == 3 * one.ping_count

    def test_max_probes_cap(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=1, max_probes_per_country=2
        )
        probes = {ping.meta.probe_id for ping in dataset.pings()}
        assert len(probes) <= 2

    def test_no_traceroutes_collected(self, small_world):
        dataset = run_intercontinental_study(
            small_world, ["EG"], [Continent.EU], rounds=1
        )
        assert dataset.traceroute_count == 0

    def test_one_ping_block_in_country_probe_round_region_order(self, small_world):
        dataset = run_intercontinental_study(
            small_world,
            ["EG", "KE"],
            [Continent.EU],
            rounds=2,
            max_probes_per_country=2,
        )
        assert len(dataset.ping_blocks()) == 1
        assert dataset.trace_blocks() == []
        rows = [
            (
                ping.meta.country,
                ping.meta.probe_id,
                ping.meta.day,
                (ping.meta.provider_code, ping.meta.region_id),
            )
            for ping in dataset.pings()
        ]
        probes = list(dict.fromkeys(row[:2] for row in rows))
        assert {country for country, _ in probes} == {"EG", "KE"}
        assert [country for country, _ in probes] == sorted(
            country for country, _ in probes
        )
        expected = []
        for probe in probes:
            regions = list(dict.fromkeys(row[3] for row in rows if row[:2] == probe))
            expected += [(*probe, day, region) for day in range(2) for region in regions]
        assert rows == expected

    def test_country_without_probes_returns_empty_dataset(self, small_world):
        assert not small_world.speedchecker.probes_in_country("AQ")
        dataset = run_intercontinental_study(
            small_world, ["AQ"], [Continent.EU], rounds=2
        )
        assert dataset.ping_count == 0
        assert dataset.ping_blocks() == []

    def test_same_seed_worlds_give_equal_datasets(self):
        first, second = (
            run_intercontinental_study(
                build_world(seed=17, scale=0.008),
                ["EG"],
                [Continent.EU],
                rounds=2,
                max_probes_per_country=3,
            )
            for _ in range(2)
        )
        assert list(first.pings()) == list(second.pings())

    def test_pinned_digests_of_sequential_studies(self):
        # Pins the planner's draw order across two studies on one world.
        world = build_world(seed=17, scale=0.008)
        first = run_intercontinental_study(
            world,
            ["EG", "NG"],
            [Continent.EU, Continent.NA],
            rounds=2,
            max_probes_per_country=3,
        )
        second = run_intercontinental_study(
            world, ["BR"], [Continent.NA], rounds=2, max_probes_per_country=3
        )
        assert (first.ping_count, second.ping_count) == (240, 60)
        assert dataset_digest(first) == (
            "3fa4a1f69950ea5a8341278ad5efd3cfdccd1fefdd01acb25a34527c09380909"
        )
        assert dataset_digest(second) == (
            "60e73917e9c6d0db739a4d511969c6813f05142357a50d67490deb765dc205a6"
        )

"""Statistical tests for the latency sampling model (repro.measure.latency)."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.geo.continents import Continent
from repro.measure.latency import (
    congestion_cycle_multiplier,
    icmp_penalty_probability_for,
    sample_hop_rtt_block,
    sample_path_rtt_block,
)
from repro.measure.path import InterconnectKind, PlannedPath
from repro.measure.results import Protocol


def make_path(base_rtt=50.0, sigma=0.1, congestion=0.0):
    return PlannedPath(
        probe_id="p",
        region_id="r",
        provider_code="GCP",
        as_path=(1, 2),
        interconnect=InterconnectKind.DIRECT,
        distance_km=1000.0,
        stretch=1.3,
        jitter_sigma=sigma,
        congestion_probability=congestion,
        base_path_rtt_ms=base_rtt,
        dest_address=1,
    )


def noise_columns(path, protocol, continent, config, n, day=0):
    """``n`` copies of the per-sample noise parameters for ``path``."""
    return (
        np.full(n, path.jitter_sigma),
        np.full(n, path.congestion_probability)
        * congestion_cycle_multiplier(day, config),
        np.full(n, protocol is Protocol.ICMP),
        np.full(n, icmp_penalty_probability_for(continent, config)),
    )


def path_rtts(path, protocol, continent, config, rng, n):
    """``n`` path-core RTT samples over ``path``."""
    return sample_path_rtt_block(
        np.full(n, path.base_path_rtt_ms),
        *noise_columns(path, protocol, continent, config, n),
        config,
        rng,
    )


def hop_rtts(base_rtt_ms, path, protocol, continent, config, rng, n):
    """``n`` per-hop RTT samples for a hop ``base_rtt_ms`` into ``path``."""
    return sample_hop_rtt_block(
        np.full(n, base_rtt_ms),
        *noise_columns(path, protocol, continent, config, n),
        config,
        rng,
    )


@pytest.fixture
def config():
    return SimulationConfig()


class TestSamplePathRtt:
    def test_median_tracks_base(self, config, rng):
        path = make_path(base_rtt=80.0, sigma=0.05)
        draws = path_rtts(path, Protocol.TCP, Continent.EU, config, rng, 3000)
        assert np.median(draws) == pytest.approx(80.0, rel=0.05)

    def test_zero_sigma_zero_congestion_is_deterministic(self, config, rng):
        path = make_path(base_rtt=50.0, sigma=0.0, congestion=0.0)
        draws = path_rtts(path, Protocol.TCP, Continent.EU, config, rng, 50)
        assert set(np.round(draws, 6).tolist()) == {50.0}

    def test_higher_sigma_wider_spread(self, config, rng):
        tight = make_path(sigma=0.03)
        wide = make_path(sigma=0.3)
        tight_draws = path_rtts(tight, Protocol.TCP, Continent.EU, config, rng, 2000)
        wide_draws = path_rtts(wide, Protocol.TCP, Continent.EU, config, rng, 2000)
        assert wide_draws.std() > 3 * tight_draws.std()

    def test_congestion_fattens_the_tail(self, config, rng):
        calm = make_path(sigma=0.05, congestion=0.0)
        congested = make_path(sigma=0.05, congestion=0.3)
        calm_draws = path_rtts(calm, Protocol.TCP, Continent.EU, config, rng, 3000)
        hot_draws = path_rtts(
            congested, Protocol.TCP, Continent.EU, config, rng, 3000
        )
        assert np.percentile(hot_draws, 95) > np.percentile(calm_draws, 95) * 1.15

    def test_icmp_slightly_inflated(self, config, rng):
        path = make_path(sigma=0.0, congestion=0.0)
        tcp = np.mean(path_rtts(path, Protocol.TCP, Continent.EU, config, rng, 4000))
        icmp = np.mean(
            path_rtts(path, Protocol.ICMP, Continent.EU, config, rng, 4000)
        )
        assert 1.005 < icmp / tcp < 1.08  # paper: within a few percent

    def test_icmp_penalty_stronger_in_africa(self, config, rng):
        path = make_path(sigma=0.0, congestion=0.0)
        eu = np.mean(path_rtts(path, Protocol.ICMP, Continent.EU, config, rng, 6000))
        af = np.mean(path_rtts(path, Protocol.ICMP, Continent.AF, config, rng, 6000))
        assert af > eu


class TestSampleHopRtt:
    def test_includes_control_plane_overhead(self, config, rng):
        path = make_path(sigma=0.0, congestion=0.0)
        draws = hop_rtts(20.0, path, Protocol.TCP, Continent.EU, config, rng, 2000)
        assert min(draws) >= 20.0
        assert np.mean(draws) > 20.2  # exponential(0.4) on top

    def test_scales_with_base(self, config, rng):
        path = make_path(sigma=0.0, congestion=0.0)
        near = np.mean(
            hop_rtts(10.0, path, Protocol.TCP, Continent.EU, config, rng, 1000)
        )
        far = np.mean(
            hop_rtts(60.0, path, Protocol.TCP, Continent.EU, config, rng, 1000)
        )
        assert far > near + 45.0

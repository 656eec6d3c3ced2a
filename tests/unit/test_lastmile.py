"""Tests for repro.lastmile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LastMileConfig
from repro.lastmile.base import AccessKind, lognormal_ms_array
from repro.lastmile.models import (
    CellularLastMile,
    HomeWifiLastMile,
    WiredLastMile,
    model_for,
)


@pytest.fixture
def config():
    return LastMileConfig()


class TestAccessKind:
    def test_wireless_classification(self):
        assert AccessKind.HOME_WIFI.is_wireless
        assert AccessKind.CELLULAR.is_wireless
        assert not AccessKind.WIRED.is_wireless


def totals(model, rng, n):
    """``n`` USR-ISP last-mile totals (air + wire) drawn from ``model``."""
    air, wire = model.draw_batch(rng, n)
    return air + wire


class TestLognormal:
    def test_positive(self, rng):
        assert lognormal_ms_array(10.0, 0.5, rng.standard_normal(1))[0] > 0

    def test_median_property(self, rng):
        draws = lognormal_ms_array(20.0, 0.5, rng.standard_normal(4000))
        assert np.median(draws) == pytest.approx(20.0, rel=0.06)

    def test_zero_sigma_is_constant(self, rng):
        assert lognormal_ms_array(7.0, 0.0, rng.standard_normal(1))[0] == 7.0

    def test_invalid_params(self, rng):
        z = rng.standard_normal(1)
        with pytest.raises(ValueError, match="median"):
            lognormal_ms_array(-1.0, 0.5, z)
        with pytest.raises(ValueError, match="sigma"):
            lognormal_ms_array(5.0, -0.1, z)

    @given(st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=30)
    def test_scales_with_median(self, median):
        z = np.random.default_rng(0).standard_normal(1)
        a = lognormal_ms_array(median, 0.4, z)[0]
        b = lognormal_ms_array(2 * median, 0.4, z)[0]
        assert b == pytest.approx(2 * a)


class TestHomeWifi:
    def test_has_both_segments(self, config, rng):
        air, wire = HomeWifiLastMile(config=config).draw_batch(rng, 1)
        assert air[0] > 0 and wire[0] > 0

    def test_median_total_near_paper_range(self, config, rng):
        draws = totals(HomeWifiLastMile(config=config), rng, 3000)
        # Paper Fig. 7b: wireless medians ~20-25 ms.
        assert 16.0 <= np.median(draws) <= 28.0

    def test_cv_near_half(self, config, rng):
        draws = totals(HomeWifiLastMile(config=config), rng, 4000)
        cv = draws.std() / draws.mean()
        assert 0.35 <= cv <= 0.95  # paper Fig. 8: median Cv ~0.5

    def test_quality_scales_median(self, config, rng):
        fast = HomeWifiLastMile(config=config, quality=0.5)
        assert fast.median_total_ms() == pytest.approx(
            0.5 * HomeWifiLastMile(config=config).median_total_ms()
        )


class TestCellular:
    def test_no_wire_segment(self, config, rng):
        air, wire = CellularLastMile(config=config).draw_batch(rng, 1)
        assert wire[0] == 0.0
        assert air[0] > 0

    def test_median_near_paper_range(self, config, rng):
        draws = totals(CellularLastMile(config=config), rng, 3000)
        assert 16.0 <= np.median(draws) <= 28.0

    def test_similar_to_wifi(self, config, rng):
        # Paper: WiFi and cellular behave alike at the last mile.
        wifi = np.median(totals(HomeWifiLastMile(config=config), rng, 3000))
        cell = np.median(totals(CellularLastMile(config=config), rng, 3000))
        assert abs(wifi - cell) / wifi < 0.35


class TestWired:
    def test_no_air_segment(self, config, rng):
        air, _ = WiredLastMile(config=config).draw_batch(rng, 1)
        assert air[0] == 0.0

    def test_median_near_10ms(self, config, rng):
        draws = totals(WiredLastMile(config=config), rng, 3000)
        assert 7.0 <= np.median(draws) <= 12.0

    def test_much_less_variable_than_wireless(self, config, rng):
        wired = totals(WiredLastMile(config=config), rng, 3000)
        wifi = totals(HomeWifiLastMile(config=config), rng, 3000)
        assert wired.std() / wired.mean() < 0.5 * (wifi.std() / wifi.mean())


class TestModelFor:
    def test_dispatch(self, config):
        assert isinstance(model_for(AccessKind.HOME_WIFI, config), HomeWifiLastMile)
        assert isinstance(model_for(AccessKind.CELLULAR, config), CellularLastMile)
        assert isinstance(model_for(AccessKind.WIRED, config), WiredLastMile)

    def test_country_quality_applied(self, config):
        china = model_for(AccessKind.CELLULAR, config, country="CN")
        generic = model_for(AccessKind.CELLULAR, config, country="DE")
        assert china.median_total_ms() < generic.median_total_ms()

    def test_accepts_string_kind(self, config):
        assert isinstance(model_for("wired", config), WiredLastMile)

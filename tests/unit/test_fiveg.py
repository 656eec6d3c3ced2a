"""Tests for the 5G last-mile extension model."""

import numpy as np
import pytest

from repro.core.config import LastMileConfig
from repro.lastmile.fiveg import FiveGLastMile
from repro.lastmile.models import CellularLastMile


@pytest.fixture
def config():
    return LastMileConfig()


class TestFiveGLastMile:
    def test_median_below_lte(self, config):
        lte = CellularLastMile(config=config)
        fiveg = FiveGLastMile(config=config, radio_improvement=0.5)
        assert fiveg.median_total_ms() < lte.median_total_ms()

    def test_core_floor_limits_gains(self, config):
        """Even a perfect radio (10x) cannot beat the packet-core floor --
        the paper's point about minimal in-the-wild 5G improvements."""
        ideal = FiveGLastMile(config=config, radio_improvement=0.1)
        floor = config.cellular_median_ms * (1.0 - ideal.radio_share)
        assert ideal.median_total_ms() >= floor
        # The overall gain is modest, far from the promised 10x.
        lte = CellularLastMile(config=config)
        assert ideal.median_total_ms() > 0.5 * lte.median_total_ms()

    def test_no_improvement_equals_lte(self, config):
        same = FiveGLastMile(config=config, radio_improvement=1.0)
        assert same.median_total_ms() == pytest.approx(
            CellularLastMile(config=config).median_total_ms()
        )

    def test_draw_is_air_only(self, config, rng):
        air, wire = FiveGLastMile(config=config).draw_batch(rng, 1)
        assert wire[0] == 0.0
        assert air[0] > 0.0

    def test_empirical_median_matches_analytic(self, config, rng):
        model = FiveGLastMile(config=config, radio_improvement=0.3)
        air, wire = model.draw_batch(rng, 4000)
        assert np.median(air + wire) == pytest.approx(
            model.median_total_ms(), rel=0.08
        )

    def test_mtp_still_infeasible_with_5g(self, config, rng):
        """The section-7 conclusion: even optimistic 5G leaves the last
        mile near the 20 ms MTP budget once jitter is counted."""
        model = FiveGLastMile(config=config, radio_improvement=0.3)
        air, wire = model.draw_batch(rng, 4000)
        assert (air + wire + 5.0 < 20.0).mean() < 0.85  # +5ms minimal path

    @pytest.mark.parametrize("bad", [0.0, 1.5, -0.2])
    def test_radio_improvement_validation(self, config, bad):
        with pytest.raises(ValueError, match="radio improvement"):
            FiveGLastMile(config=config, radio_improvement=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_radio_share_validation(self, config, bad):
        with pytest.raises(ValueError, match="radio share"):
            FiveGLastMile(config=config, radio_share=bad)

    def test_quality_scaling(self, config):
        fast = FiveGLastMile(config=config, quality=0.5)
        slow = FiveGLastMile(config=config, quality=1.0)
        assert fast.median_total_ms() == pytest.approx(
            0.5 * slow.median_total_ms()
        )

"""Concrete last-mile models calibrated to the paper's Figs. 7-9.

Targets: wireless USR-ISP medians around 20-25 ms with per-probe
coefficient of variation near 0.5 for both WiFi and cellular; wired
last-mile near 10 ms with low variation, matching both RIPE Atlas probes
and the Speedchecker home RTR-ISP segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LastMileConfig
from repro.lastmile.base import AccessKind, LastMileModel, LastMileParams


@dataclass
class HomeWifiLastMile(LastMileModel):
    """Home probe: WiFi air segment plus a wired access segment.

    ``quality`` scales the wireless median per country (see
    :attr:`repro.core.config.LastMileConfig.country_quality`).
    """

    config: LastMileConfig
    quality: float = 1.0
    kind = AccessKind.HOME_WIFI

    def batch_params(self) -> LastMileParams:
        return (
            self.config.wifi_air_median_ms * self.quality,
            self.config.wifi_air_sigma,
            self.config.home_wire_median_ms * self.quality,
            self.config.home_wire_sigma,
            self.config.bufferbloat_probability,
            self.config.bufferbloat_inflation,
        )

    def median_total_ms(self) -> float:
        return (
            self.config.wifi_air_median_ms + self.config.home_wire_median_ms
        ) * self.quality


@dataclass
class CellularLastMile(LastMileModel):
    """Cellular probe: one radio+RAN segment straight into the ISP."""

    config: LastMileConfig
    quality: float = 1.0
    kind = AccessKind.CELLULAR

    def batch_params(self) -> LastMileParams:
        return (
            self.config.cellular_median_ms * self.quality,
            self.config.cellular_sigma,
            0.0,
            0.0,
            self.config.bufferbloat_probability,
            self.config.bufferbloat_inflation,
        )

    def median_total_ms(self) -> float:
        return self.config.cellular_median_ms * self.quality


@dataclass
class WiredLastMile(LastMileModel):
    """Managed wired connection (RIPE Atlas style)."""

    config: LastMileConfig
    quality: float = 1.0
    kind = AccessKind.WIRED

    def batch_params(self) -> LastMileParams:
        return (
            0.0,
            0.0,
            self.config.wired_median_ms,
            self.config.wired_sigma,
            0.0,
            1.0,
        )

    def median_total_ms(self) -> float:
        return self.config.wired_median_ms


def model_for(
    kind: AccessKind, config: LastMileConfig, country: str = ""
) -> LastMileModel:
    """The last-mile model for an access kind and (optionally) country."""
    quality = config.country_quality.get(country, 1.0)
    kind = AccessKind(kind)
    if kind is AccessKind.HOME_WIFI:
        return HomeWifiLastMile(config=config, quality=quality)
    if kind is AccessKind.CELLULAR:
        return CellularLastMile(config=config, quality=quality)
    return WiredLastMile(config=config, quality=quality)

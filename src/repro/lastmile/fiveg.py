"""A 5G last-mile model (the paper's forward-looking discussion).

Section 5 and the section-7 discussion note that 5G promises air-latency
down to 1 ms, but that early in-the-wild measurements (Narayanan et al.)
show only minimal improvements over LTE because the radio leg is a small
part of the last mile once the RAN, the packet core, and CGN middleboxes
are counted.  This model implements exactly that: a configurable radio
improvement over the cellular baseline plus an irreducible core-network
floor, so experiments can ask *how much 5G would actually help* the MTP
feasibility question.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LastMileConfig
from repro.lastmile.base import AccessKind, LastMileModel, LastMileParams


@dataclass
class FiveGLastMile(LastMileModel):
    """Cellular access with a 5G radio leg.

    ``radio_improvement`` scales the radio part of the cellular median
    (1.0 = no better than LTE, 0.1 = the promised 10x).  The packet-core
    floor is untouched by the radio generation, which is why measured
    end-to-end gains are modest.
    """

    config: LastMileConfig
    quality: float = 1.0
    radio_improvement: float = 0.5
    #: Share of the LTE cellular median attributable to the radio leg;
    #: the remainder is RAN backhaul + packet core + CGN.
    radio_share: float = 0.45
    kind = AccessKind.CELLULAR

    def __post_init__(self) -> None:
        if not 0.0 < self.radio_improvement <= 1.0:
            raise ValueError(
                f"radio improvement must be in (0, 1], got {self.radio_improvement}"
            )
        if not 0.0 < self.radio_share < 1.0:
            raise ValueError(
                f"radio share must be in (0, 1), got {self.radio_share}"
            )

    @property
    def _median_ms(self) -> float:
        baseline = self.config.cellular_median_ms * self.quality
        radio = baseline * self.radio_share * self.radio_improvement
        core = baseline * (1.0 - self.radio_share)
        return radio + core

    def batch_params(self) -> LastMileParams:
        return (
            self._median_ms,
            self.config.cellular_sigma,
            0.0,
            0.0,
            self.config.bufferbloat_probability,
            self.config.bufferbloat_inflation,
        )

    def median_total_ms(self) -> float:
        return self._median_ms

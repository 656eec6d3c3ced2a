"""Last-mile abstractions.

The paper decomposes the "last mile" -- probe to first hop inside the
serving ISP's AS -- into segments it can observe in traceroutes
(section 5):

- ``SC home (USR-ISP)``: user device -> ISP edge, over a home router.
  This is the *air* segment (WiFi) plus the *wire* segment (DSL/cable).
- ``SC home (RTR-ISP)``: home router -> ISP edge; the wire segment only.
- ``SC cell``: device -> first cellular hop; a single radio+RAN segment.
- ``Atlas``: a managed wired connection.

:meth:`LastMileModel.draw_batch` returns both segments so the analysis
layer can reproduce all four series of the paper's Fig. 7.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Tuple

import numpy as np


class AccessKind(str, Enum):
    """How a probe reaches its serving ISP."""

    HOME_WIFI = "home_wifi"
    CELLULAR = "cellular"
    WIRED = "wired"

    @property
    def is_wireless(self) -> bool:
        return self in (AccessKind.HOME_WIFI, AccessKind.CELLULAR)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Parameter vector describing a last-mile model for batched sampling:
#: ``(air_median, air_sigma, wire_median, wire_sigma,
#: bufferbloat_probability, bufferbloat_inflation)``.  A zero median
#: means the segment is absent and always draws exactly zero.
LastMileParams = Tuple[float, float, float, float, float, float]


class LastMileModel(ABC):
    """A distribution over last-mile latency draws."""

    kind: AccessKind

    @abstractmethod
    def batch_params(self) -> LastMileParams:
        """The model's :data:`LastMileParams` for vectorized sampling."""

    def draw_batch(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``n`` last-mile samples as ``(air_ms, wire_ms)`` arrays.

        ``air_ms`` is the wireless leg (zero for wired access, inflated
        by bufferbloat with the model's probability); ``wire_ms`` is the
        fixed leg between the home router / base-station aggregation and
        the ISP edge (zero for cellular, where the radio access network
        is folded into ``air_ms`` as in the paper's inference).  Their
        sum is the paper's USR-ISP segment.  Issues exactly three array
        draws (air noise, bufferbloat uniforms, wire noise) regardless
        of ``n``.
        """
        air_median, air_sigma, wire_median, wire_sigma, bloat_p, bloat_x = (
            self.batch_params()
        )
        z_air = rng.standard_normal(n)
        u_bloat = rng.random(n)
        z_wire = rng.standard_normal(n)
        air = lognormal_ms_array(air_median, air_sigma, z_air)
        if bloat_p > 0.0:
            air = np.where(u_bloat < bloat_p, air * bloat_x, air)
        wire = lognormal_ms_array(wire_median, wire_sigma, z_wire)
        return air, wire

    def median_total_ms(self) -> float:
        """Median of the USR-ISP total (analytic, for calibration tests)."""
        raise NotImplementedError


def lognormal_ms_array(
    median: float, sigma: float, z: np.ndarray
) -> np.ndarray:
    """Lognormal latencies parameterised by their median, one per
    pre-drawn standard normal in ``z``.

    Latency distributions at the access link are right-skewed with a
    hard floor; the lognormal is the standard fit in last-mile studies.
    A zero ``median`` denotes an absent segment and yields exact zeros.
    """
    if median < 0:
        raise ValueError(f"median must be non-negative, got {median}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if median == 0.0:
        return np.zeros(np.shape(z))
    return median * np.exp(sigma * z)

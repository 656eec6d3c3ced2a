"""The RIPE-Atlas-like measurement platform.

Atlas probes are dedicated hardware devices: almost always connected,
wired, and frequently hosted in managed networks.  There is no daily
quota in our usage model (the Corneo et al. dataset was collected over a
year of continuous measurements).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.platforms.probe import Probe


class AtlasPlatform:
    """A fleet of always-on, wired hardware probes."""

    name = "atlas"

    def __init__(self, probes: Sequence[Probe]):
        self._probes: List[Probe] = list(probes)
        self._by_id: Dict[str, Probe] = {p.probe_id: p for p in self._probes}
        self._by_country: Dict[str, List[Probe]] = {}
        for probe in self._probes:
            self._by_country.setdefault(probe.country, []).append(probe)
        self._availability = np.array(
            [probe.availability for probe in self._probes], dtype=np.float64
        )

    def __len__(self) -> int:
        return len(self._probes)

    @property
    def probes(self) -> List[Probe]:
        return list(self._probes)

    def probe(self, probe_id: str) -> Probe:
        try:
            return self._by_id[probe_id]
        except KeyError:
            raise KeyError(f"unknown probe id {probe_id!r}") from None

    def probes_in_country(self, iso: str) -> List[Probe]:
        return list(self._by_country.get(iso, []))

    def countries(self) -> List[str]:
        return sorted(self._by_country)

    def connected_probes(self, rng: np.random.Generator) -> List[Probe]:
        """Probes online right now (availability is high but not perfect).

        One vectorized availability draw from ``rng`` covers the whole
        fleet.  Campaign units pass a per-day generator.
        """
        draws = rng.random(len(self._probes))
        return [
            self._probes[i] for i in np.flatnonzero(draws < self._availability)
        ]

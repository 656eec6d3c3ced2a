"""Structural interfaces of the measurement platforms.

Campaign units only need the scheduling surface of a platform -- the
inventory queries, churn snapshots, selection API, and quota counters --
so those operations are captured here as :class:`typing.Protocol`
classes.  The resilient runner can then hand a unit either the real
platform or a fault-injecting wrapper from
:mod:`repro.faults.injectors` without the unit code knowing which it
got.
"""

from __future__ import annotations

import typing
from typing import List

import numpy as np

from repro.platforms.probe import Probe
from repro.platforms.speedchecker import VPSnapshot


class SpeedcheckerLike(typing.Protocol):
    """What campaign units require of a Speedchecker-style platform."""

    name: str

    def countries(self) -> List[str]: ...

    def countries_with_at_least(self, minimum: int) -> List[str]: ...

    def snapshot(
        self, day: int, hour: int, rng: np.random.Generator
    ) -> VPSnapshot: ...

    def connected_in_country(
        self, iso: str, snapshot: VPSnapshot
    ) -> List[Probe]: ...

    def select_probes(
        self,
        iso: str,
        snapshot: VPSnapshot,
        count: int,
        pool: List[Probe],
        rng: np.random.Generator,
    ) -> List[Probe]: ...

    @property
    def daily_quota(self) -> int: ...

    @property
    def remaining_quota(self) -> int: ...

    def charge(self, requests: int = 1) -> None: ...

    def charge_up_to(self, requests: int) -> int: ...

    def refresh_quota(self) -> None: ...


class AtlasLike(typing.Protocol):
    """What campaign units require of an Atlas-style platform."""

    name: str

    def connected_probes(self, rng: np.random.Generator) -> List[Probe]: ...

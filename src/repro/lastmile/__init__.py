"""Last-mile access models: home WiFi, cellular, and managed wired."""

from repro.lastmile.base import AccessKind, LastMileModel
from repro.lastmile.fiveg import FiveGLastMile
from repro.lastmile.models import (
    CellularLastMile,
    HomeWifiLastMile,
    WiredLastMile,
    model_for,
)

__all__ = [
    "AccessKind",
    "CellularLastMile",
    "FiveGLastMile",
    "HomeWifiLastMile",
    "LastMileModel",
    "WiredLastMile",
    "model_for",
]

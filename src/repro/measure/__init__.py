"""Measurement engines: ping, traceroute, and the campaign scheduler."""

from repro.measure.batch import RequestBatch, RequestTables
from repro.measure.campaign import (
    run_campaign,
    run_case_study,
    run_intercontinental_study,
)
from repro.measure.engine import MeasurementEngine
from repro.measure.io import load_dataset, save_dataset
from repro.measure.path import InterconnectKind, PlannedHop, PlannedPath
from repro.measure.results import (
    ColumnarPingStore,
    MeasurementDataset,
    PingBlock,
    PingMeasurement,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
)
from repro.measure.targets import RegionTargeter

__all__ = [
    "ColumnarPingStore",
    "InterconnectKind",
    "MeasurementDataset",
    "MeasurementEngine",
    "PingBlock",
    "PingMeasurement",
    "PlannedHop",
    "PlannedPath",
    "Protocol",
    "RegionTargeter",
    "RequestBatch",
    "RequestTables",
    "TraceHop",
    "TracerouteMeasurement",
    "load_dataset",
    "run_campaign",
    "run_case_study",
    "run_intercontinental_study",
    "save_dataset",
]

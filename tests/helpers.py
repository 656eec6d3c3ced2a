"""Builders for hand-crafted measurements used by analysis unit tests."""

from __future__ import annotations

import hashlib
from typing import Sequence, Tuple

import numpy as np

from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.results import (
    PING_COLUMN_DTYPES,
    TRACE_COLUMN_DTYPES,
    MeasurementDataset,
    MeasurementMeta,
    PingMeasurement,
    Protocol,
    TracerouteMeasurement,
    ping_block_from_records,
    trace_block_from_records,
)


def make_meta(
    probe_id: str = "p1",
    platform: str = "speedchecker",
    country: str = "DE",
    continent: Continent = Continent.EU,
    access: AccessKind = AccessKind.HOME_WIFI,
    isp_asn: int = 3320,
    provider_code: str = "GCP",
    region_id: str = "frankfurt-2",
    region_country: str = "DE",
    region_continent: Continent = Continent.EU,
    day: int = 0,
    city_key: Tuple[int, int] = (25, 4),
) -> MeasurementMeta:
    return MeasurementMeta(
        probe_id=probe_id,
        platform=platform,
        country=country,
        continent=Continent(continent),
        access=AccessKind(access),
        isp_asn=isp_asn,
        provider_code=provider_code,
        region_id=region_id,
        region_country=region_country,
        region_continent=Continent(region_continent),
        day=day,
        city_key=city_key,
    )


def make_ping(
    samples: Sequence[float],
    protocol: Protocol = Protocol.TCP,
    **meta_kwargs: object,
) -> PingMeasurement:
    return PingMeasurement(
        meta=make_meta(**meta_kwargs),
        protocol=Protocol(protocol),
        samples=tuple(float(s) for s in samples),
    )


def dataset_of(
    *measurements: "PingMeasurement | TracerouteMeasurement",
) -> MeasurementDataset:
    """A dataset holding the pings as one block and the traces as another."""
    pings = []
    traces = []
    for measurement in measurements:
        if isinstance(measurement, PingMeasurement):
            pings.append(measurement)
        elif isinstance(measurement, TracerouteMeasurement):
            traces.append(measurement)
        else:
            raise TypeError(f"unsupported measurement {measurement!r}")
    dataset = MeasurementDataset()
    if pings:
        dataset.add_ping_block(ping_block_from_records(pings))
    if traces:
        dataset.add_trace_block(trace_block_from_records(traces))
    return dataset


def dataset_digest(dataset: MeasurementDataset) -> str:
    """sha256 over every block of a dataset: the probe/region tables and
    each column's raw bytes, in block order.  Two datasets share a
    digest only if they hold byte-identical blocks."""
    digest = hashlib.sha256()
    for kind, blocks, schema in (
        (b"ping", dataset.ping_blocks(), PING_COLUMN_DTYPES),
        (b"trace", dataset.trace_blocks(), TRACE_COLUMN_DTYPES),
    ):
        for block in blocks:
            digest.update(kind)
            for probe in block.probes:
                digest.update(f"{probe.probe_id}\n".encode())
            for region in block.regions:
                digest.update(f"{region.provider_code}:{region.region_id}\n".encode())
            for name, dtype in schema.items():
                column = np.ascontiguousarray(getattr(block, name), dtype)
                digest.update(name.encode() + column.tobytes())
    return digest.hexdigest()

"""Property-based round-trip tests for dataset serialization."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.io import load_dataset, save_dataset
from repro.measure.results import (
    MeasurementDataset,
    MeasurementMeta,
    PingMeasurement,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
    ping_block_from_records,
    trace_block_from_records,
)

identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
rtts = st.floats(min_value=0.001, max_value=10_000.0, allow_nan=False)

metas = st.builds(
    MeasurementMeta,
    probe_id=identifiers,
    platform=st.sampled_from(["speedchecker", "atlas"]),
    country=st.sampled_from(["DE", "JP", "BR", "ZA"]),
    continent=st.sampled_from(list(Continent)),
    access=st.sampled_from(list(AccessKind)),
    isp_asn=st.integers(min_value=1, max_value=2**31),
    provider_code=st.sampled_from(["GCP", "AMZN", "VLTR"]),
    region_id=identifiers,
    region_country=st.sampled_from(["DE", "IN", "US"]),
    region_continent=st.sampled_from(list(Continent)),
    day=st.integers(min_value=0, max_value=365),
    # Every grid cell a point on the globe quantizes to (city_key_for).
    city_key=st.tuples(
        st.integers(min_value=-45, max_value=45),
        st.integers(min_value=-90, max_value=90),
    ),
)

pings = st.builds(
    PingMeasurement,
    meta=metas,
    protocol=st.sampled_from(list(Protocol)),
    samples=st.lists(rtts, min_size=1, max_size=8).map(tuple),
)

hops = st.one_of(
    st.builds(TraceHop, address=st.none(), rtt_ms=st.none()),
    st.builds(
        TraceHop,
        address=st.integers(min_value=0, max_value=2**32 - 1),
        rtt_ms=rtts,
    ),
)

traces = st.builds(
    TracerouteMeasurement,
    meta=metas,
    protocol=st.sampled_from(list(Protocol)),
    source_address=st.integers(min_value=0, max_value=2**32 - 1),
    dest_address=st.integers(min_value=0, max_value=2**32 - 1),
    hops=st.lists(hops, min_size=1, max_size=10).map(tuple),
)


@given(
    ping_list=st.lists(pings, max_size=10),
    trace_list=st.lists(traces, max_size=6),
)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_roundtrip_preserves_every_record(ping_list, trace_list):
    dataset = MeasurementDataset()
    dataset.add_ping_block(ping_block_from_records(ping_list))
    dataset.add_trace_block(trace_block_from_records(trace_list))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
    assert list(loaded.pings()) == ping_list
    assert list(loaded.traceroutes()) == trace_list

"""Unit tests for the columnar query engine (`repro.query`).

Every aggregate the vectorized scan produces is asserted equal to the
record-at-a-time exact oracle (`repro.query.oracle`) on a hand-built
store whose shards exercise pruning, filters, both measurement kinds,
and the cache-invalidation contract.
"""

from __future__ import annotations

import json
import shutil
import threading

import pytest

from repro.geo.continents import Continent
from repro.lastmile.base import AccessKind
from repro.measure.results import (
    MeasurementMeta,
    PingMeasurement,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
    ping_block_from_records,
    trace_block_from_records,
)
from repro.query import (
    PING_KIND,
    TRACE_KIND,
    QueryError,
    QuerySpec,
    build_plan,
    execute,
    execute_lines,
    result_lines,
)
from repro.query.cache import QueryCache
from repro.query.cli import main as query_cli
from repro.query.oracle import oracle_execute
from repro.store import DatasetStore, read_columns
from repro.store.cli import main as store_cli
from repro.store.format import write_shard


def _meta(
    probe_id,
    day=0,
    platform="speedchecker",
    country="DE",
    continent=Continent.EU,
    provider_code="aws",
    region_id="eu-central-1",
    region_continent=Continent.EU,
):
    return MeasurementMeta(
        probe_id=probe_id,
        platform=platform,
        country=country,
        continent=continent,
        access=AccessKind.HOME_WIFI,
        isp_asn=65001,
        provider_code=provider_code,
        region_id=region_id,
        region_country=country,
        region_continent=region_continent,
        day=day,
        city_key=(25, 4),
    )


def _ping(samples, protocol=Protocol.TCP, **meta_kwargs):
    return PingMeasurement(
        meta=_meta(**meta_kwargs),
        protocol=Protocol(protocol),
        samples=tuple(float(s) for s in samples),
    )


def _trace(end_to_end, reached=True, **meta_kwargs):
    dest = 167772999
    last = TraceHop(
        address=dest if reached else None,
        rtt_ms=end_to_end if reached else None,
    )
    return TracerouteMeasurement(
        meta=_meta(**meta_kwargs),
        protocol=Protocol.ICMP,
        source_address=167772161,
        dest_address=dest,
        hops=(TraceHop(address=167772162, rtt_ms=4.5), last),
    )


@pytest.fixture()
def query_store(tmp_path):
    """A three-unit store with diverse metadata for filter coverage."""
    store = DatasetStore.create(
        tmp_path / "run", seed=7, config_hash="qry", scale=0.01
    )
    store.flush_unit(
        "speedchecker:000",
        ping_block=ping_block_from_records(
            [
                _ping((10.0, 20.0, 30.0), probe_id="p0"),
                # Cross-continent probe: NA probe pinging an EU region.
                _ping(
                    (50.0, 60.0),
                    probe_id="p1",
                    country="US",
                    continent=Continent.NA,
                    provider_code="gcp",
                    region_id="europe-west3",
                    region_continent=Continent.EU,
                ),
                _ping((15.0,), probe_id="p2", protocol=Protocol.ICMP),
            ]
        ),
        trace_block=trace_block_from_records(
            [
                _trace(31.5, probe_id="p0"),
                _trace(0.0, reached=False, probe_id="p1", country="US",
                       continent=Continent.NA),
            ]
        ),
    )
    store.flush_unit(
        "speedchecker:001",
        ping_block=ping_block_from_records(
            [
                _ping((11.0, 19.0), probe_id="p0", day=1),
                _ping(
                    (70.0, 80.0, 90.0),
                    probe_id="p3",
                    day=1,
                    country="FR",
                    provider_code="azure",
                    region_id="francecentral",
                ),
            ]
        ),
        trace_block=trace_block_from_records([_trace(28.25, probe_id="p0", day=1)]),
    )
    store.flush_unit(
        "ripe_atlas:002",
        ping_block=ping_block_from_records(
            [
                _ping(
                    (5.0, 6.0),
                    probe_id="p4",
                    day=2,
                    platform="ripe_atlas",
                    country="US",
                    continent=Continent.NA,
                    region_id="us-west-2",
                    region_continent=Continent.NA,
                ),
            ]
        ),
        trace_block=trace_block_from_records([]),
    )
    return store


class TestQuerySpec:
    def test_defaults_are_valid(self):
        QuerySpec().validate()

    @pytest.mark.parametrize(
        "changes",
        [
            {"kind": "flows"},
            {"group_by": ("city",)},
            {"aggregates": ("median",)},
            {"day_range": (3, 1)},
            {"rtt_range": (50.0, 10.0)},
            {"quantiles": (150.0,)},
            {"epsilon": 2.0},
        ],
    )
    def test_invalid_specs_rejected(self, changes):
        with pytest.raises(QueryError):
            QuerySpec(**changes).validate()

    def test_digest_is_canonical(self):
        a = QuerySpec(countries=("US", "DE", "DE"))
        b = QuerySpec(countries=("DE", "US"))
        assert a.digest() == b.digest()
        assert a.digest() != QuerySpec(countries=("DE",)).digest()

    def test_from_dict_round_trip(self):
        spec = QuerySpec(
            kind=TRACE_KIND,
            platform="speedchecker",
            day_range=(0, 3),
            rtt_range=(5.0, 100.0),
            group_by=("country", "day"),
            quantiles=(50.0, 95.0),
        )
        assert QuerySpec.from_dict(spec.canonical()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(QueryError):
            QuerySpec.from_dict({"kind": PING_KIND, "order_by": "rtt"})

    def test_with_returns_modified_copy(self):
        spec = QuerySpec()
        narrowed = spec.with_(countries=("DE",))
        assert narrowed.countries == ("DE",)
        assert spec.countries == ()


class TestScanPlan:
    def test_day_range_prunes_shards(self, query_store):
        plan = build_plan(query_store, QuerySpec(day_range=(2, 2)))
        pruned = {shard.unit: shard.reason for shard in plan.shards
                  if shard.action == "prune"}
        assert set(pruned) == {"speedchecker:000", "speedchecker:001"}
        assert any("day" in reason for reason in pruned.values())
        assert plan.scanned and all(
            shard.unit == "ripe_atlas:002" for shard in plan.scanned
        )

    def test_platform_prunes_via_probe_table(self, query_store):
        plan = build_plan(query_store, QuerySpec(platform="ripe_atlas"))
        assert {shard.unit for shard in plan.scanned} == {"ripe_atlas:002"}

    def test_country_prunes_via_probe_table(self, query_store):
        plan = build_plan(query_store, QuerySpec(countries=("FR",)))
        assert {shard.unit for shard in plan.scanned} == {"speedchecker:001"}

    def test_rtt_range_prunes_via_value_zone(self, query_store):
        # No ping shard holds samples above 1000ms.
        plan = build_plan(query_store, QuerySpec(rtt_range=(1000.0, 2000.0)))
        assert not plan.scanned
        assert plan.shards and all(
            shard.action == "prune" for shard in plan.shards
        )

    def test_plan_summary_accounts_for_all_rows(self, query_store):
        plan = build_plan(query_store, QuerySpec(day_range=(0, 0)))
        summary = plan.as_dict()
        assert summary["shards_total"] == (
            summary["shards_scanned"] + summary["shards_pruned"]
        )
        assert summary["rows_scanned"] == 3

    def test_zoneless_shard_is_scanned_not_pruned(self, query_store):
        # Rewrite one shard without its zone map (a pre-zone-map shard):
        # range pruning must degrade to scanning it, never to skipping.
        entry = next(
            e for e in query_store.shard_entries(PING_KIND)
            if e.unit == "speedchecker:000"
        )
        header, columns = read_columns(entry.path, mmap=False)
        metadata = {
            key: value
            for key, value in header.items()
            if key not in ("columns", "container", "container_version", "zones")
        }
        write_shard(entry.path, columns, metadata)
        plan = build_plan(query_store, QuerySpec(rtt_range=(1000.0, 2000.0)))
        scanned = {shard.unit for shard in plan.scanned}
        assert scanned == {"speedchecker:000"}
        # Filters answerable from the probe table still prune it.
        plan = build_plan(query_store, QuerySpec(platform="ripe_atlas"))
        assert "speedchecker:000" not in {s.unit for s in plan.scanned}


SPECS = [
    QuerySpec(group_by=("country",)),
    QuerySpec(group_by=("provider", "region"), aggregates=("count", "samples",
                                                           "sum", "mean")),
    QuerySpec(platform="speedchecker", group_by=("day",), quantiles=(50.0, 95.0)),
    QuerySpec(countries=("DE", "FR"), group_by=("probe",),
              aggregates=("samples", "sum", "first")),
    QuerySpec(rtt_range=(15.0, 60.0), group_by=("country", "day")),
    QuerySpec(same_continent_only=True, group_by=("continent",)),
    QuerySpec(protocol="icmp", group_by=("protocol",)),
    QuerySpec(day_range=(0, 1), group_by=("platform", "provider"), collect=True),
    QuerySpec(),
    QuerySpec(kind=TRACE_KIND, group_by=("country",), quantiles=(50.0,)),
    QuerySpec(kind=TRACE_KIND, rtt_range=(30.0, 40.0), group_by=("day",),
              collect=True),
]


class TestEngineMatchesOracle:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.digest()[:10])
    def test_engine_equals_exact_oracle(self, query_store, spec):
        engine = execute(query_store, spec, cache=False)
        oracle = oracle_execute(query_store, spec)
        # Small groups keep the quantile sketch uncompressed, so even
        # the percentile columns are bit-identical to np.percentile.
        assert engine.payload() == oracle.payload()

    def test_grand_total_with_no_group_by(self, query_store):
        result = execute(query_store, QuerySpec(), cache=False)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["group"] == {}
        assert row["count"] == 6
        assert row["samples"] == 13

    def test_workers_are_byte_identical(self, query_store):
        spec = QuerySpec(group_by=("country", "provider"), quantiles=(50.0,),
                         collect=True)
        serial = execute(query_store, spec, workers=1, cache=False)
        for workers in (2, 4):
            parallel = execute(query_store, spec, workers=workers, cache=False)
            assert parallel.to_json() == serial.to_json()

    def test_builder_fluent_chain(self, query_store):
        result = (
            query_store.query()
            .pings()
            .where(platform="speedchecker", country="DE")
            .days(0, 1)
            .group_by("day")
            .aggregate("samples", "sum")
            .run(cache=False)
        )
        by_day = {row["group"]["day"]: row for row in result.rows}
        assert by_day[0]["samples"] == 4
        assert by_day[1]["samples"] == 2
        assert by_day[0]["sum"] == 75.0

    def test_trace_values_are_end_to_end_rtts(self, query_store):
        result = (
            query_store.query().traces().group_by("day").collect().run(cache=False)
        )
        by_day = {row["group"]["day"]: row["values"] for row in result.rows}
        # The unreached day-0 trace contributes a row but no value.
        assert by_day[0] == [31.5]
        assert by_day[1] == [28.25]
        counts = {row["group"]["day"]: row["count"] for row in result.rows}
        assert counts[0] == 2


class TestQueryCache:
    def test_cache_round_trip_is_identical(self, query_store):
        spec = QuerySpec(group_by=("country",), quantiles=(50.0,))
        cold = execute(query_store, spec, cache=True)
        warm = execute(query_store, spec, cache=True)
        assert cold.meta["cache"] == "miss"
        assert warm.meta["cache"] == "hit"
        assert warm.to_json() == cold.to_json()

    def test_cache_disabled(self, query_store):
        result = execute(query_store, QuerySpec(), cache=False)
        assert result.meta["cache"] == "off"
        assert not (query_store.run_dir / ".querycache").exists()

    def test_new_commit_invalidates(self, query_store):
        spec = QuerySpec(group_by=("country",))
        first = execute(query_store, spec, cache=True)
        query_store.flush_unit(
            "speedchecker:003",
            ping_block=ping_block_from_records(
                [_ping((40.0,), probe_id="p5", day=3)]
            ),
            trace_block=trace_block_from_records([]),
        )
        second = execute(query_store, spec, cache=True)
        assert second.meta["cache"] == "miss"
        assert second.to_json() != first.to_json()
        assert oracle_execute(query_store, spec).payload() == second.payload()

    def test_distinct_specs_use_distinct_entries(self, query_store):
        execute(query_store, QuerySpec(group_by=("country",)), cache=True)
        execute(query_store, QuerySpec(group_by=("day",)), cache=True)
        cache_dir = query_store.run_dir / ".querycache"
        assert len(list(cache_dir.glob("*.ndjson"))) == 2

    def test_stream_section_is_the_result_lines(self, query_store):
        spec = QuerySpec(group_by=("country",), quantiles=(50.0,))
        cold = execute_lines(query_store, spec)
        warm = execute_lines(query_store, spec)
        payload = execute(query_store, spec, cache=False).payload()
        assert cold == warm == result_lines(payload)
        assert QueryCache(query_store.run_dir).get(query_store, spec) == (
            json.loads(json.dumps(payload))
        )
        lines = [json.loads(line) for line in cold.splitlines()]
        assert lines[0]["event"] == "result"
        assert lines[0]["row_count"] == len(payload["rows"]) == len(lines) - 1

    def test_concurrent_cold_misses_all_succeed(self, query_store):
        """Writers racing on one cold spec never trip over each other."""
        spec = QuerySpec(group_by=("country", "provider"), quantiles=(50.0,))
        cache_dir = query_store.run_dir / ".querycache"
        expected = execute(query_store, spec, cache=False).to_json()
        threads = 4
        for _ in range(30):
            shutil.rmtree(cache_dir, ignore_errors=True)
            barrier = threading.Barrier(threads)
            results = []
            errors = []

            def call():
                barrier.wait()
                try:
                    results.append(execute(query_store, spec).to_json())
                except Exception as exc:
                    errors.append(exc)

            workers = [threading.Thread(target=call) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            assert errors == []
            assert results == [expected] * threads
        assert list(cache_dir.glob("*.tmp")) == []


def _spoil_cache_entry(path, how):
    """Damage one cache entry the way a crash or an old version would."""
    raw = path.read_bytes()
    key_end = raw.index(b"\n") + 1
    payload_end = raw.index(b"\n", key_end) + 1
    if how == "torn":
        # Cut at a line boundary: every line parses, the length does not.
        path.write_bytes(raw[: raw.rindex(b"\n", 0, len(raw) - 1) + 1])
    elif how == "corrupt-payload":
        garbage = b"#" * (payload_end - key_end - 1) + b"\n"
        path.write_bytes(raw[:key_end] + garbage + raw[payload_end:])
    else:  # "v1": the single-object entry of cache version 1
        key = json.loads(raw[:key_end])
        entry = {
            "format": key["format"],
            "version": 1,
            "manifest": key["manifest"],
            "journal": key["journal"],
            "query": key["query"],
            "payload": json.loads(raw[key_end:payload_end]),
        }
        path.write_text(
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
        )


class TestSpoiledCacheEntries:
    """Torn, corrupt and old-version entries are misses that heal."""

    @pytest.mark.parametrize("how", ["torn", "corrupt-payload", "v1"])
    def test_spoiled_entry_is_rescanned_and_rewritten(self, query_store, how):
        spec = QuerySpec(group_by=("country",), aggregates=("count", "mean"))
        cold = execute(query_store, spec)
        path = QueryCache(query_store.run_dir).path_for(spec)
        good = path.read_bytes()
        _spoil_cache_entry(path, how)
        assert path.read_bytes() != good
        again = execute(query_store, spec)
        assert again.meta["cache"] == "miss"
        assert again.to_json() == cold.to_json()
        assert path.read_bytes() == good
        assert execute(query_store, spec).meta["cache"] == "hit"

    @pytest.mark.parametrize("how", ["torn", "v1"])
    def test_spoiled_entry_stream_is_rescanned(self, query_store, how):
        spec = QuerySpec(group_by=("day",), collect=True)
        lines = execute_lines(query_store, spec)
        cache = QueryCache(query_store.run_dir)
        good = cache.path_for(spec).read_bytes()
        _spoil_cache_entry(cache.path_for(spec), how)
        assert cache.get_lines(query_store, spec) is None
        assert execute_lines(query_store, spec) == lines
        assert cache.path_for(spec).read_bytes() == good


class TestQueryCli:
    def test_run_emits_result_json(self, query_store, capsys):
        code = query_cli(
            [
                "run",
                str(query_store.run_dir),
                "--group-by",
                "country",
                "--agg",
                "samples",
                "sum",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-query-result"
        countries = {row["group"]["country"] for row in payload["rows"]}
        assert countries == {"DE", "FR", "US"}

    def test_explain_reports_pruning(self, query_store, capsys):
        code = query_cli(
            ["explain", str(query_store.run_dir), "--days", "2", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards_pruned"] >= 2
        assert all("reason" in entry for entry in payload["pruned"])

    def test_trace_quantiles_via_cli(self, query_store, capsys):
        code = query_cli(
            [
                "run",
                str(query_store.run_dir),
                "--kind",
                "traces",
                "--quantiles",
                "50",
                "--no-cache",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["p50"] == pytest.approx(29.875)

    def test_invalid_spec_is_exit_2(self, query_store, capsys):
        code = query_cli(
            ["run", str(query_store.run_dir), "--days", "3", "1"]
        )
        assert code == 2
        assert "day" in capsys.readouterr().err

    def test_missing_store_is_exit_2(self, tmp_path, capsys):
        assert query_cli(["run", str(tmp_path / "nope")]) == 2

    def test_store_info_json_exposes_zones(self, query_store, capsys):
        assert store_cli(["info", str(query_store.run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["units"] == 3
        shard = payload["shards"][0]
        zones = shard["zones"]
        assert zones["days"]["rows"] >= 1
        assert zones["days"]["min"] <= zones["days"]["max"]
        assert payload["manifest_digest"] and payload["journal_digest"]

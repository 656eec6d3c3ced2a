"""Reading a store that is still being written (the live-tail contract).

The service queries and inspects stores whose campaign is mid-flight,
so every read-side surface must be safe against an in-progress journal
tail: a torn partial line at EOF (a writer died or has not finished its
append), and a writer actively appending from another thread.  These
tests pin the contract:

- ``entries()``/``digest()`` see exactly the well-formed prefix;
- ``python -m repro.store info/verify`` succeed on a live store;
- :class:`repro.store.JournalSnapshot` pins one prefix for a
  multi-accessor read;
- :class:`repro.store.JournalTailer` consumes entries incrementally
  without ever splitting a line.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.geo.continents import Continent
from repro.geo.coords import GeoPoint  # noqa: F401 - mirrors test_store imports
from repro.lastmile.base import AccessKind
from repro.measure.results import (
    MeasurementMeta,
    PingMeasurement,
    Protocol,
    ping_block_from_records,
)
from repro.store import (
    DatasetStore,
    JournalError,
    JournalSnapshot,
    JournalTailer,
    RunJournal,
)
from repro.store.cli import main as store_cli


def _ping(probe_id="p0", day=0):
    meta = MeasurementMeta(
        probe_id=probe_id,
        platform="speedchecker",
        country="DE",
        continent=Continent.EU,
        access=AccessKind.HOME_WIFI,
        isp_asn=65001,
        provider_code="aws",
        region_id="eu-central-1",
        region_country="DE",
        region_continent=Continent.EU,
        day=day,
        city_key=(25, 4),
    )
    return PingMeasurement(
        meta=meta, protocol=Protocol.TCP, samples=(21.0, 22.5, 20.75)
    )


def _live_store(run_dir):
    """A store with one committed unit and a torn journal tail."""
    store = DatasetStore.create(run_dir, seed=7, config_hash="abc", scale=0.01)
    store.flush_unit(
        "speedchecker:000", ping_block=ping_block_from_records([_ping()])
    )
    # A writer mid-append: the final line has no terminating newline.
    with store.journal.path.open("ab") as handle:
        handle.write(b'{"type": "unit", "unit": "speedchecker:0')
    return store


class TestTornTail:
    def test_entries_stop_at_well_formed_prefix(self, tmp_path):
        store = _live_store(tmp_path / "run")
        journal = RunJournal(store.journal.path)
        assert [e["type"] for e in journal.entries()] == ["unit"]

    def test_digest_ignores_the_torn_tail(self, tmp_path):
        store = _live_store(tmp_path / "run")
        torn_digest = RunJournal(store.journal.path).digest()
        # Removing the torn tail must not change the digest.
        raw = store.journal.path.read_bytes()
        complete = raw[: raw.rindex(b"\n") + 1]
        store.journal.path.write_bytes(complete)
        assert RunJournal(store.journal.path).digest() == torn_digest

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "begin"}\nGARBAGE\n{"type": "unit"}\n')
        with pytest.raises(JournalError):
            RunJournal(path).entries()

    def test_info_and_verify_succeed_on_live_store(self, tmp_path, capsys):
        store = _live_store(tmp_path / "run")
        assert store_cli(["info", str(store.run_dir)]) == 0
        assert "1 pings" in capsys.readouterr().out
        assert store_cli(["verify", str(store.run_dir)]) == 0
        assert capsys.readouterr().out.startswith("OK")
        assert store_cli(["info", "--json", str(store.run_dir)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["units"] == 1


class TestConcurrentWriter:
    def test_verify_while_writer_appends(self, tmp_path):
        """Repeated verifies race a live writer thread without failing."""
        store = DatasetStore.create(
            tmp_path / "run", seed=7, config_hash="abc", scale=0.01
        )
        store.flush_unit(
            "speedchecker:000", ping_block=ping_block_from_records([_ping()])
        )
        journal = RunJournal(store.journal.path)
        stop = threading.Event()

        def writer():
            day = 1
            while not stop.is_set():
                journal.append(
                    {"type": "skip", "unit": f"atlas:{day:03d}", "reason": "x"}
                )
                day += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(25):
                assert store_cli(["verify", str(store.run_dir)]) == 0
                entries = RunJournal(store.journal.path).entries()
                assert entries[0]["type"] == "unit"
        finally:
            stop.set()
            thread.join()

    def test_snapshot_pins_one_prefix(self, tmp_path):
        store = _live_store(tmp_path / "run")
        snapshot = RunJournal(store.journal.path).pin()
        assert isinstance(snapshot, JournalSnapshot)
        before_entries = snapshot.entries()
        before_digest = snapshot.digest()
        # The journal grows; the snapshot must not move.
        RunJournal(store.journal.path).rewrite(
            before_entries
            + [{"type": "skip", "unit": "atlas:000", "reason": "x"}]
        )
        assert snapshot.entries() == before_entries
        assert snapshot.digest() == before_digest
        assert snapshot.pin() is snapshot
        with pytest.raises(JournalError, match="read-only"):
            snapshot.append({"type": "skip"})
        with pytest.raises(JournalError, match="read-only"):
            snapshot.rewrite([])

    def test_lazy_snapshot_parses_the_pinned_prefix(self, tmp_path):
        """Entries are parsed on first use, yet still from the pinned
        read: a journal that grew in between does not leak in."""
        store = _live_store(tmp_path / "run")
        pinned_units = RunJournal(store.journal.path).completed_units()
        snapshot = RunJournal(store.journal.path).pin()
        digest = snapshot.digest()
        raw = store.journal.path.read_bytes()
        store.journal.path.write_bytes(
            raw[: raw.rindex(b"\n") + 1]
            + b'{"type":"unit","unit":"atlas:000","shards":[]}\n'
        )
        assert snapshot.completed_units() == pinned_units
        assert [e["unit"] for e in snapshot.entries()] == pinned_units
        assert snapshot.digest() == digest
        assert RunJournal(store.journal.path).digest() != digest

    def test_corrupt_pinned_journal_raises_when_read(self, tmp_path):
        store = _live_store(tmp_path / "run")
        raw = store.journal.path.read_bytes()
        store.journal.path.write_bytes(b"{not json\n" + raw)
        snapshot = RunJournal(store.journal.path).pin()
        assert len(snapshot.digest()) == 64
        with pytest.raises(JournalError, match="corrupt journal line"):
            snapshot.entries()
        with pytest.raises(JournalError, match="corrupt journal line"):
            DatasetStore.open(store.run_dir).snapshot().completed_units()

    def test_store_snapshot_reads_consistently(self, tmp_path):
        store = _live_store(tmp_path / "run")
        pinned = DatasetStore.open(store.run_dir).snapshot()
        units_before = pinned.completed_units()
        digest_before = pinned.journal_digest()
        with store.journal.path.open("ab") as handle:
            handle.write(
                b'ompleted-later", "shards": [], "pings": 0, "traces": 0}\n'
            )
        # The live journal now has a new complete entry; the pinned
        # store still serves the prefix it opened with.
        assert pinned.completed_units() == units_before
        assert pinned.journal_digest() == digest_before


class TestJournalTailer:
    def test_polls_are_incremental(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        tailer = JournalTailer(path)
        assert tailer.poll() == []
        journal.append({"type": "begin", "seed": 7})
        journal.append({"type": "unit", "unit": "atlas:000"})
        assert [e["type"] for e in tailer.poll()] == ["begin", "unit"]
        assert tailer.poll() == []
        journal.append({"type": "unit", "unit": "atlas:001"})
        assert [e["unit"] for e in tailer.poll()] == ["atlas:001"]

    def test_never_consumes_a_partial_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        RunJournal(path).append({"type": "begin", "seed": 7})
        tailer = JournalTailer(path)
        assert len(tailer.poll()) == 1
        with path.open("ab") as handle:
            handle.write(b'{"type": "unit", "un')
        assert tailer.poll() == []
        with path.open("ab") as handle:
            handle.write(b'it": "atlas:000"}\n')
        assert [e["unit"] for e in tailer.poll()] == ["atlas:000"]

    def test_rewrite_resets_the_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        for day in range(3):
            journal.append({"type": "unit", "unit": f"atlas:{day:03d}"})
        tailer = JournalTailer(path)
        assert len(tailer.poll()) == 3
        # A rewrite (recovery truncation) shrinks the file; the tailer
        # starts over from the beginning instead of reading past EOF.
        journal.rewrite([{"type": "unit", "unit": "atlas:000"}])
        assert [e["unit"] for e in tailer.poll()] == ["atlas:000"]

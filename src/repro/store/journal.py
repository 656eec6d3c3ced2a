"""The append-only run journal.

The journal is the store's source of truth for *what completed*.  Every
line is one JSON object with a ``type`` tag:

- ``begin`` -- written once when a campaign starts: master seed, config
  hash, scale, the planned day count, platform list and unit ids.
- ``unit`` -- written after a unit's shards are durably on disk: the
  unit id, shard file names, and record counts (plus, for resilient
  runs, the attempt count, accounted virtual backoff, fault events and
  a ``partial`` status when degradation lost some scheduled requests).
- ``skip`` -- written when the resilient runner gives a unit up: the
  unit id, the reason (last failure or an open circuit breaker), and the
  attempts spent.  Skipped units count against coverage, never silently
  vanish.

Shard writes happen *before* their journal entry (write-ahead on the
data, not the log), so a crash at any instant leaves either a journaled
unit with complete shards or an unjournaled partial shard that resume
simply overwrites.  Each append is flushed and fsynced; a torn final
line from a crash mid-append is detected and ignored on read.

No timestamps, hostnames or pids appear anywhere: two runs of the same
campaign produce byte-identical journals, which the resume-equivalence
tests rely on.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

PathLike = Union[str, Path]

#: ``type`` tags of journal entries.
BEGIN_ENTRY = "begin"
UNIT_ENTRY = "unit"
SKIP_ENTRY = "skip"


class JournalError(ValueError):
    """The journal is malformed beyond a torn trailing line."""


def _well_formed_prefix(data: bytes) -> bytes:
    """The journal bytes up to (and including) the last newline.

    A writer crash -- or a *live* writer caught mid-append -- leaves a
    torn final line with no trailing newline; everything before it is a
    complete, durable prefix.  All consistent reads (entries, digests,
    snapshots, tailing) operate on this prefix, so a reader racing an
    appender sees some valid prefix of the journal, never a half line.
    """
    end = data.rfind(b"\n")
    return data[: end + 1] if end >= 0 else b""


def _parse_prefix(
    path: Path, prefix: bytes, first_line: int = 1
) -> List[Dict[str, Any]]:
    """Parse a well-formed journal prefix into tagged entries.

    ``first_line`` is the journal line number of the prefix's first
    line, so errors in a parsed suffix name the true line.
    """
    entries: List[Dict[str, Any]] = []
    for number, raw in enumerate(prefix.split(b"\n"), start=first_line):
        if not raw:
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise JournalError(
                f"{path}:{number}: corrupt journal line: {exc}"
            ) from exc
        if not isinstance(entry, dict) or "type" not in entry:
            raise JournalError(
                f"{path}:{number}: journal line is not a tagged object"
            )
        entries.append(entry)
    return entries


class RunJournal:
    """An append-only JSONL journal for one store run directory."""

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        #: The prefix :meth:`entries` last parsed, its line count and its
        #: entries.  Between rewrites a journal only grows, so a read
        #: whose prefix extends these bytes parses only the new suffix.
        self._parsed = b""
        self._parsed_lines = 0
        self._parsed_entries: List[Dict[str, Any]] = []

    @property
    def path(self) -> Path:
        return self._path

    def exists(self) -> bool:
        return self._path.exists()

    def append(self, entry: Dict[str, Any]) -> None:
        """Durably append one entry (flush + fsync before returning).

        A torn trailing line left by a crash mid-append is truncated
        away first -- reads already ignore it, but appending after it
        without the trim would fuse the torn fragment and the new entry
        into one corrupt line.
        """
        if "type" not in entry:
            raise JournalError("journal entries must carry a 'type' tag")
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with open(self._path, "a+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write((line + "\n").encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())

    def _read_prefix(self) -> bytes:
        """One consistent read of the well-formed journal prefix."""
        if not self._path.exists():
            return b""
        return _well_formed_prefix(self._path.read_bytes())

    def entries(self) -> List[Dict[str, Any]]:
        """All well-formed entries, in append order.

        A torn final line (crash mid-append, or a live writer caught
        between write and newline) is silently dropped; a malformed line
        anywhere *before* the end means real corruption and raises
        :class:`JournalError`.

        Parsing is incremental: only the bytes appended since the last
        call are decoded, unless the journal no longer starts with the
        bytes parsed then (a rewrite, a repair, a truncation).  Callers
        get a fresh list and must not mutate its entries.
        """
        prefix = self._read_prefix()
        if not prefix.startswith(self._parsed):
            self._parsed, self._parsed_lines, self._parsed_entries = b"", 0, []
        suffix = prefix[len(self._parsed) :]
        entries = self._parsed_entries + _parse_prefix(
            self._path, suffix, first_line=self._parsed_lines + 1
        )
        self._parsed = prefix
        self._parsed_lines += suffix.count(b"\n")
        self._parsed_entries = entries
        return list(entries)

    def digest(self) -> str:
        """sha256 over the well-formed journal prefix.

        Complete journals always end with a newline, so for a quiescent
        store this is the digest of the whole file; on a journal with an
        in-flight append only the durable prefix is hashed, keeping the
        digest consistent with what :meth:`entries` returns.
        """
        return hashlib.sha256(self._read_prefix()).hexdigest()

    def pin(self) -> "JournalSnapshot":
        """Freeze one consistent view of the journal.

        The file is read exactly once; every accessor of the returned
        snapshot (entries, units, digest) answers from that single read,
        so a reader racing a live writer gets internally consistent
        results -- entry lists, coverage and digest all describe the
        same journal prefix.  :meth:`entries` alone already tolerates a
        torn tail, but two *separate* calls may straddle a commit; the
        snapshot is how multi-accessor readers (``repro.store verify`` /
        ``info --json``, the service's live result tail) stay coherent.
        """
        return JournalSnapshot(self._path, self._read_prefix())

    def begin_entry(self) -> Optional[Dict[str, Any]]:
        """The run's ``begin`` entry, or ``None`` for an empty journal."""
        for entry in self.entries():
            if entry["type"] == BEGIN_ENTRY:
                return entry
        return None

    def unit_entries(self) -> List[Dict[str, Any]]:
        """All ``unit`` completion entries, in completion order."""
        return [e for e in self.entries() if e["type"] == UNIT_ENTRY]

    def completed_units(self) -> List[str]:
        """Ids of journaled (i.e. durably completed) units, in order."""
        seen = set()
        ordered: List[str] = []
        for entry in self.unit_entries():
            unit = entry["unit"]
            if unit not in seen:
                seen.add(unit)
                ordered.append(unit)
        return ordered

    def skip_entries(self) -> List[Dict[str, Any]]:
        """All ``skip`` (gave-up unit) entries, in journal order."""
        return [e for e in self.entries() if e["type"] == SKIP_ENTRY]

    def skipped_units(self) -> List[str]:
        """Ids of journaled skipped units, deduplicated, in order."""
        seen = set()
        ordered: List[str] = []
        for entry in self.skip_entries():
            unit = entry["unit"]
            if unit not in seen:
                seen.add(unit)
                ordered.append(unit)
        return ordered

    def rewrite(self, entries: List[Dict[str, Any]]) -> None:
        """Atomically replace the journal's contents with ``entries``.

        Used by store repair (quarantining corrupt units before a
        re-run): the new journal is written to a temp file, fsynced, and
        published with :func:`os.replace`, so a crash leaves either the
        old journal or the new one -- never a half-written mix.
        """
        for entry in entries:
            if "type" not in entry:
                raise JournalError("journal entries must carry a 'type' tag")
        tmp_path = self._path.with_suffix(self._path.suffix + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(
                    json.dumps(entry, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, self._path)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.entries())

    def __repr__(self) -> str:
        return f"RunJournal({str(self._path)!r})"


class JournalSnapshot(RunJournal):
    """A read-only, internally consistent view of one journal prefix.

    Produced by :meth:`RunJournal.pin`.  All read accessors answer from
    the single read taken at pin time; the write side is disabled, so a
    snapshot can never be confused for the live journal.  The prefix is
    hashed at pin time but parsed only on the first :meth:`entries`
    call, so a reader that needs only the digest (a query-cache hit)
    never decodes the journal.
    """

    def __init__(self, path: Path, prefix: bytes) -> None:
        super().__init__(path)
        self._prefix = prefix
        self._digest = hashlib.sha256(prefix).hexdigest()
        self._entries: Optional[List[Dict[str, Any]]] = None

    def entries(self) -> List[Dict[str, Any]]:
        if self._entries is None:
            self._entries = _parse_prefix(self._path, self._prefix)
        return list(self._entries)

    def digest(self) -> str:
        return self._digest

    def pin(self) -> "JournalSnapshot":
        return self

    def append(self, entry: Dict[str, Any]) -> None:
        raise JournalError(f"{self._path}: journal snapshot is read-only")

    def rewrite(self, entries: List[Dict[str, Any]]) -> None:
        raise JournalError(f"{self._path}: journal snapshot is read-only")

    def __repr__(self) -> str:
        return (
            f"JournalSnapshot({str(self._path)!r}, "
            f"bytes={len(self._prefix)})"
        )


class JournalTailer:
    """Incremental reader of a journal that is still being written.

    Each :meth:`poll` returns the entries that became durable (newline-
    terminated) since the previous poll, tolerating a torn final line
    exactly like :meth:`RunJournal.entries`.  The tailer tracks a byte
    offset, so polling is O(new bytes), not O(journal): the measurement
    service polls one tailer per running campaign to stream unit/skip
    events to clients as they commit.

    If the journal shrinks between polls (an atomic
    :meth:`RunJournal.rewrite`, e.g. quarantine), the tailer resets and
    re-emits from the start -- callers that need exactly-once delivery
    on top of a rewrite should deduplicate on unit id.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        self._offset = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def offset(self) -> int:
        """Bytes of journal consumed so far."""
        return self._offset

    def poll(self) -> List[Dict[str, Any]]:
        """Entries appended (and newline-terminated) since the last poll."""
        if not self._path.exists():
            return []
        with open(self._path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size < self._offset:
                self._offset = 0
            fh.seek(self._offset)
            chunk = fh.read()
        prefix = _well_formed_prefix(chunk)
        if not prefix:
            return []
        self._offset += len(prefix)
        return _parse_prefix(self._path, prefix)

"""The query-result cache.

Query results are pure functions of ``(store contents, query spec)``,
and the store's contents are fingerprinted by two tiny files: the
manifest (static identity) and the append-only journal (advances with
every committed unit).  So the cache key is the triple of digests --
manifest, journal, canonical query -- and invalidation is free: a new
commit changes the journal digest, which makes every stale entry miss
without any bookkeeping.

Entries live under ``run_dir/.querycache/``, one file per query digest,
written atomically (a per-writer temp file + rename).  An entry is three
sections, each made of newline-terminated JSON lines:

1. the key line -- format, version, manifest and journal digests, the
   canonical query, and the byte lengths of the two sections below;
2. the result payload (:meth:`repro.query.builder.QueryResult.payload`)
   on one line;
3. the result's NDJSON event stream, :func:`result_lines` -- what the
   measurement service sends, so a service cache hit streams stored
   bytes without decoding or re-encoding a row.

:meth:`QueryCache.get` reads only the payload section and
:meth:`QueryCache.get_lines` only the stream section.  An entry whose
size disagrees with its key line (torn), whose payload does not parse,
or that was written by another cache version is a miss, and the next
:meth:`QueryCache.put` replaces it.

The directory is a derived artifact: :data:`repro.exec.digest.
DERIVED_DIRS` excludes it from canonical store digests, so caching a
query never changes what counts as "the same store" for the
byte-identity contract.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.query.spec import QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.warehouse import DatasetStore

CACHE_DIR_NAME = ".querycache"
CACHE_FORMAT = "repro-query-cache"
CACHE_VERSION = 2


def json_line(value: Any) -> bytes:
    """One canonical JSON line (sorted keys, compact separators)."""
    return (
        json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def result_lines(payload: Dict[str, Any]) -> bytes:
    """A result payload as NDJSON events: the service's response body.

    One ``result`` header event (the payload without its rows, plus
    ``row_count``), then one ``row`` event per group carrying its
    ``index`` and the row's fields.  Every line is canonical JSON, so
    the bytes are a pure function of the payload.
    """
    rows = payload.get("rows", [])
    header = {key: value for key, value in payload.items() if key != "rows"}
    header["event"] = "result"
    header["row_count"] = len(rows)
    lines = [json_line(header)]
    for index, row in enumerate(rows):
        lines.append(json_line({"event": "row", "index": index, **row}))
    return b"".join(lines)


class QueryCache:
    """Digest-keyed result cache in a store's run directory."""

    def __init__(self, run_dir: Path) -> None:
        self.root = Path(run_dir) / CACHE_DIR_NAME

    def path_for(self, spec: QuerySpec) -> Path:
        return self.root / f"{spec.digest()}.ndjson"

    def get(
        self, store: "DatasetStore", spec: QuerySpec
    ) -> Optional[Dict[str, Any]]:
        """The cached result payload, or ``None`` on a miss."""
        raw = self._section(store, spec, stream=False)
        if raw is None:
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def get_lines(
        self, store: "DatasetStore", spec: QuerySpec
    ) -> Optional[bytes]:
        """The cached :func:`result_lines` bytes, or ``None`` on a miss."""
        return self._section(store, spec, stream=True)

    def _section(
        self, store: "DatasetStore", spec: QuerySpec, stream: bool
    ) -> Optional[bytes]:
        """One section of a current, complete entry; ``None`` otherwise."""
        try:
            with open(self.path_for(spec), "rb") as fh:
                key = json.loads(fh.readline())
                if not isinstance(key, dict) or (
                    key.get("format") != CACHE_FORMAT
                    or key.get("version") != CACHE_VERSION
                    or key.get("manifest") != store.manifest_digest()
                    or key.get("journal") != store.journal_digest()
                ):
                    return None
                payload_bytes = int(key["payload_bytes"])
                stream_bytes = int(key["stream_bytes"])
                size = os.fstat(fh.fileno()).st_size
                if size != fh.tell() + payload_bytes + stream_bytes:
                    return None
                if stream:
                    fh.seek(payload_bytes, os.SEEK_CUR)
                    return fh.read(stream_bytes)
                return fh.read(payload_bytes)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(
        self,
        store: "DatasetStore",
        spec: QuerySpec,
        payload: Dict[str, Any],
    ) -> bytes:
        """Store one result payload atomically; returns its stream section.

        Every writer gets its own temp file, so concurrent misses on one
        spec each publish a complete entry and the last rename wins.
        """
        body = json_line(payload)
        stream = result_lines(payload)
        key = json_line(
            {
                "format": CACHE_FORMAT,
                "version": CACHE_VERSION,
                "manifest": store.manifest_digest(),
                "journal": store.journal_digest(),
                "query": spec.canonical(),
                "payload_bytes": len(body),
                "stream_bytes": len(stream),
            }
        )
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        # pid + thread id: unique among live writers on this host, and a
        # leftover from a dead writer is safely overwritten.
        tmp = path.with_name(
            f"{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            with open(tmp, "wb") as fh:
                fh.write(key)
                fh.write(body)
                fh.write(stream)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return stream

"""NDJSON result streaming: event shapes and encoding.

Clients subscribed to a job's event stream receive newline-delimited
JSON objects, one per event, in commit order:

- ``accepted`` -- the validated request echo: job id, canonical request,
  planned unit ids.
- ``unit`` -- one committed unit's journal entry verbatim (so a
  degraded unit surfaces its ``"status": "partial"`` marker and
  scheduled counts -- the coverage accounting -- exactly as the store
  records them).
- ``skip`` -- a unit the resilient executor gave up on (or a circuit
  breaker rejected), again the journal entry verbatim.
- ``done`` -- terminal success: the store's canonical digest
  (:func:`repro.exec.digest.store_digest`) and its coverage summary.
- ``error`` -- terminal failure: the error text.

No event carries a timestamp, hostname or pid: the sequence is a pure
function of (request spec, seed, commit order), which the determinism
tests assert byte-for-byte across service restarts.  Subscribers that
attach late replay the buffered prefix first, so every subscriber sees
the identical sequence regardless of when it connected.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.query.cache import json_line
from repro.store.journal import SKIP_ENTRY, UNIT_ENTRY

Event = Dict[str, Any]


def accepted_event(
    job: str, request: Dict[str, Any], units: List[str]
) -> Event:
    return {
        "event": "accepted",
        "job": job,
        "request": request,
        "units": units,
    }


def commit_event(job: str, entry: Dict[str, Any]) -> Event:
    """Wrap one journal entry (unit or skip) as a stream event."""
    kind = entry.get("type")
    if kind not in (UNIT_ENTRY, SKIP_ENTRY):
        raise ValueError(f"not a streamable journal entry: {kind!r}")
    payload = {key: value for key, value in entry.items() if key != "type"}
    return {"event": kind, "job": job, **payload}


def done_event(job: str, store_digest: str, coverage: Dict[str, int]) -> Event:
    return {
        "event": "done",
        "job": job,
        "store_digest": store_digest,
        "coverage": coverage,
    }


def error_event(job: str, message: str) -> Event:
    return {"event": "error", "job": job, "error": message}


#: One canonical NDJSON line (sorted keys, compact separators): the
#: encoding of query result streams too.
encode_event = json_line

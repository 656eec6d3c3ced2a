"""Event-at-a-time query response: the oracle for the service's wire bytes.

:func:`result_stream_bytes` encodes a query result payload the way the
service first did: one canonical JSON event per line -- a ``result``
header, then a ``row`` event per group -- each written as its own HTTP
chunk, and the terminating zero-length chunk.  The service now streams
pre-framed bytes from the query cache; its raw chunked body must equal
this, on a cache hit and on a miss.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator


def _encode_event(event: Dict[str, Any]) -> bytes:
    return (
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _events(payload: Dict[str, Any]) -> Iterator[bytes]:
    rows = payload.get("rows", [])
    header = {key: value for key, value in payload.items() if key != "rows"}
    header["event"] = "result"
    header["row_count"] = len(rows)
    yield _encode_event(header)
    for index, row in enumerate(rows):
        yield _encode_event({"event": "row", "index": index, **row})


def result_stream_bytes(payload: Dict[str, Any]) -> bytes:
    """The chunked HTTP body of one ``POST /v1/query`` response."""
    body = bytearray()
    for chunk in _events(payload):
        body += f"{len(chunk):x}\r\n".encode("latin-1")
        body += chunk
        body += b"\r\n"
    body += b"0\r\n\r\n"
    return bytes(body)

"""A minimal HTTP/1.1 layer on asyncio streams (stdlib only).

Just enough protocol for the service's API: request-line + header
parsing, ``Content-Length`` bodies, JSON responses, and chunked
transfer encoding for NDJSON streams.  Connections are keep-alive by
default; a ``Connection: close`` header (either side) closes after the
in-flight exchange.

This module is transport only -- no application logic, no clocks, no
blocking calls.  Routing lives in :mod:`repro.service.app`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

#: Sane bounds for a measurement API; requests beyond them are rejected
#: rather than buffered.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

_LOG = logging.getLogger("repro.service")

#: Per-process ids tying an opaque 500 response to its logged traceback.
_ERROR_IDS = itertools.count(1)

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A request that maps directly to an error response.

    ``headers`` lets raisers attach response headers -- the rate
    limiter uses it for ``Retry-After``.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


class Request:
    """One parsed HTTP request."""

    def __init__(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        #: Filled by the router with ``{param}`` segment captures.
        self.params: Dict[str, str] = {}

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def json(self) -> Any:
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc

    @property
    def wants_close(self) -> bool:
        return self.header("connection").lower() == "close"


class Response:
    """A buffered response with a JSON (or empty) body."""

    def __init__(
        self,
        status: int,
        payload: Optional[Any] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.payload = payload
        self.headers = dict(headers or {})

    def body_bytes(self) -> bytes:
        if self.payload is None:
            return b""
        return (
            json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")


class StreamResponse:
    """A chunked response whose body is already chunk-framed.

    ``body`` is either one buffer, written with a single write (a query
    result), or an async iterator of buffers, each written and drained
    as it arrives (a live event stream).  :func:`frame_lines` produces
    the framing.
    """

    def __init__(
        self,
        body: Union[bytes, AsyncIterator[bytes]],
        status: int = 200,
        content_type: str = "application/x-ndjson",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})


def frame_lines(data: bytes) -> bytes:
    """Chunk-frame newline-terminated lines: one HTTP chunk per line.

    A final line without a newline is framed as its own chunk too;
    empty input frames to nothing (a zero-length chunk would end the
    body).
    """
    view = memoryview(data)
    parts: List[Union[bytes, memoryview]] = []
    start, end = 0, len(data)
    while start < end:
        stop = data.find(b"\n", start) + 1 or end
        parts.append(b"%x\r\n" % (stop - start))
        parts.append(view[start:stop])
        parts.append(b"\r\n")
        start = stop
    return b"".join(parts)


Handler = Callable[[Request], Awaitable[Any]]


class Router:
    """Exact-segment routing with ``{param}`` captures."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(segment for segment in pattern.split("/") if segment)
        self._routes.append((method.upper(), segments, handler))

    def resolve(
        self, method: str, path: str
    ) -> Tuple[Optional[Handler], Dict[str, str], bool]:
        """Returns (handler, params, path_known)."""
        segments = tuple(segment for segment in path.split("/") if segment)
        path_known = False
        for route_method, pattern, handler in self._routes:
            params = _match(pattern, segments)
            if params is None:
                continue
            path_known = True
            if route_method == method.upper():
                return handler, params, True
        return None, {}, path_known


def _match(
    pattern: Tuple[str, ...], segments: Tuple[str, ...]
) -> Optional[Dict[str, str]]:
    if len(pattern) != len(segments):
        return None
    params: Dict[str, str] = {}
    for expected, actual in zip(pattern, segments):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the wire; ``None`` on a cleanly closed socket."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, path = parts[0], parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise HttpError(400, f"malformed header line: {line!r}")
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise HttpError(400, f"bad Content-Length: {length_text!r}") from exc
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {length} bytes rejected")
    body = await reader.readexactly(length) if length else b""
    return Request(method, path, headers, body)


def _head(
    status: int, headers: Dict[str, str], extra: Dict[str, str]
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    merged = {**headers, **extra}
    for name, value in merged.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter,
    response: Any,
    close: bool,
) -> None:
    """Serialize a :class:`Response` or :class:`StreamResponse`."""
    connection = {"Connection": "close" if close else "keep-alive"}
    if isinstance(response, StreamResponse):
        writer.write(
            _head(
                response.status,
                response.headers,
                {
                    "Content-Type": response.content_type,
                    "Transfer-Encoding": "chunked",
                    **connection,
                },
            )
        )
        if isinstance(response.body, bytes):
            writer.write(response.body)
        else:
            await writer.drain()
            async for framed in response.body:
                writer.write(framed)
                await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return
    body = response.body_bytes()
    writer.write(
        _head(
            response.status,
            response.headers,
            {
                "Content-Type": "application/json",
                "Content-Length": str(len(body)),
                **connection,
            },
        )
    )
    if body:
        writer.write(body)
    await writer.drain()


async def serve_connection(
    router: Router,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Drive one client connection: parse, route, respond, repeat."""
    try:
        while True:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await write_response(
                    writer,
                    Response(
                        exc.status, {"error": exc.message}, headers=exc.headers
                    ),
                    close=True,
                )
                return
            if request is None:
                return
            handler, params, path_known = router.resolve(
                request.method, request.path
            )
            close = request.wants_close
            if handler is None:
                status = 405 if path_known else 404
                response: Any = Response(
                    status, {"error": f"{request.method} {request.path}"}
                )
            else:
                request.params = params
                try:
                    response = await handler(request)
                except HttpError as exc:
                    response = Response(
                        exc.status, {"error": exc.message}, headers=exc.headers
                    )
                except asyncio.CancelledError:
                    raise
                except Exception:
                    error_id = next(_ERROR_IDS)
                    _LOG.exception(
                        "unhandled error %d in %s %s",
                        error_id,
                        request.method,
                        request.path,
                    )
                    response = Response(
                        500, {"error": "internal error", "error_id": error_id}
                    )
            await write_response(writer, response, close=close)
            if close:
                return
    except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
        return
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

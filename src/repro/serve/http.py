"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The serving layer deliberately avoids a web framework: the container the
engine ships in has numpy/scipy and nothing else, and the protocol surface
it needs is tiny — GET requests with query strings, JSON responses, and
keep-alive so load tests measure the engine rather than TCP handshakes.
This module owns exactly that framing; routing and the worker pool live in
:mod:`repro.serve.service`.

Everything here is strict about limits (request-line/header/body caps) so
one misbehaving client cannot balloon the event loop's memory, and strict
about JSON (payloads route through :func:`repro.util.jsonutil.jsonable`
with ``allow_nan=False`` — the same RC301 invariant every report emitter
obeys; a cone-only estimate's NaN lower bound serializes as ``null``).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, urlsplit

from repro.util.jsonutil import jsonable

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "fetch_json",
    "json_body",
    "json_response",
    "read_request",
]

#: Framing caps: one request line / header line, total header count, body.
MAX_LINE_BYTES = 8192
MAX_HEADERS = 64
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A malformed or over-limit request; maps to a 400 response."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


@dataclass(frozen=True)
class Request:
    """One parsed request: method, split target, lowercased headers."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 default keep-alive unless the client asked to close."""
        return self.headers.get("connection", "").lower() != "close"


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""  # clean EOF between keep-alive requests
        raise HttpError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError("request line exceeds the line cap") from exc
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(f"line longer than {MAX_LINE_BYTES} bytes")
    return line


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the stream; None on a clean EOF.

    Raises :class:`HttpError` on malformed framing — the caller answers
    400 and closes.  Query values are single-valued (last wins), which is
    all the engine's parameter grammar needs.
    """
    raw = await _read_line(reader)
    if not raw:
        return None
    parts = raw.decode("latin-1").rstrip("\r\n").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError("malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if not line or line == b"\r\n":
            break
        name, sep, value = line.decode("latin-1").rstrip("\r\n").partition(":")
        if not sep:
            raise HttpError("malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(f"more than {MAX_HEADERS} headers")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError("non-integer content-length") from exc
        if not 0 <= length <= MAX_BODY_BYTES:
            raise HttpError(f"body outside [0, {MAX_BODY_BYTES}] bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HttpError("connection closed mid-body") from exc
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        target=target,
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


@dataclass(frozen=True)
class Response:
    """One response: status, body bytes, and extra headers."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, keep_alive: bool = True) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"content-type: {self.content_type}",
            f"content-length: {len(self.body)}",
            f"connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{k}: {v}" for k, v in self.headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


def json_body(payload: Any) -> bytes:
    """``payload`` encoded as a strict-JSON body (NaN/inf become ``null``)."""
    return json.dumps(jsonable(payload), allow_nan=False).encode()


def json_response(status: int, payload: Any) -> Response:
    """Serialize ``payload`` as a strict-JSON response body."""
    return Response(status=status, body=json_body(payload))


async def fetch_json(
    host: str,
    port: int,
    target: str,
    method: str = "GET",
    timeout: float = 30.0,
) -> tuple[int, Any]:
    """One-shot stdlib client: ``(status, decoded JSON body)``.

    Used by the tests, the load-bench workload, and the CI smoke script so
    none of them need an HTTP client dependency.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"host: {host}:{port}\r\n"
            "connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
    header_blob, _sep, body = raw.partition(b"\r\n\r\n")
    status_line = header_blob.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split()[1])
    return status, json.loads(body) if body else None

"""Minimal HTTP/1.1 framing over a connection's byte buffer (stdlib only).

The serving layer deliberately avoids a web framework: the container the
engine ships in has numpy/scipy and nothing else, and the protocol surface
it needs is tiny — GET requests with query strings, JSON responses, and
keep-alive so load tests measure the engine rather than TCP handshakes.
This module owns exactly that framing: :func:`parse_request` is a
synchronous parser that takes one complete request off the front of a
connection's buffer, so one socket read can carry several pipelined
requests and a request may arrive in any number of reads.  The
per-connection ``asyncio.Protocol``, routing and the worker pool live in
:mod:`repro.serve.service`.

Everything here is strict about limits (request-line/header/body caps) so
one misbehaving client cannot balloon the event loop's memory — the caps
hold on a partial head too, not only once it is complete — and strict
about JSON (payloads route through :func:`repro.util.jsonutil.jsonable`
with ``allow_nan=False`` — the same RC301 invariant every report emitter
obeys; a cone-only estimate's NaN lower bound serializes as ``null``).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from functools import cached_property
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
    "parse_request",
]

#: Framing caps: one request line / header line (CRLF included), total
#: header count, body.
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
    """One parsed request: method, raw target, lowercased headers.

    ``path`` and ``query`` are split off the target on first use, so a
    request answered from the raw target alone never parses its query.
    """

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @cached_property
    def path(self) -> str:
        return urlsplit(self.target).path

    @cached_property
    def query(self) -> dict[str, str]:
        """Single-valued query parameters (last wins), which is all the
        engine's parameter grammar needs."""
        return dict(parse_qsl(urlsplit(self.target).query, keep_blank_values=True))

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keeps the connection unless the client asked to close;
        HTTP/1.0 closes it unless the client asked to keep it."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


def _check_lines(lines: list[Any], partial: bool) -> None:
    """Enforce the line and header caps on a head split at CRLF.

    With ``partial`` the last entry is a line still being received: it
    fails as soon as it can no longer fit, and the count excludes it.
    """
    if len(lines) - 1 - partial > MAX_HEADERS:
        raise HttpError(f"more than {MAX_HEADERS} headers")
    complete = lines[:-1] if partial else lines
    if max(map(len, complete), default=0) + 2 > MAX_LINE_BYTES or (
        partial and len(lines[-1]) >= MAX_LINE_BYTES
    ):
        raise HttpError(f"line longer than {MAX_LINE_BYTES} bytes")


def parse_request(buf: bytearray) -> Request | None:
    """Take one complete request off the front of ``buf``.

    Returns None, consuming nothing, while the request is incomplete.
    Raises :class:`HttpError` on malformed or over-cap framing — the caller
    answers 400 and closes.  A ``content-length`` body is consumed with
    its request, so the next pipelined request starts at the buffer's
    front.
    """
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        if len(buf) >= MAX_LINE_BYTES:  # below that no cap can be exceeded yet
            _check_lines(buf.split(b"\r\n"), partial=True)
        return None
    lines = buf[:end].decode("latin-1").split("\r\n")
    if end + 2 > MAX_LINE_BYTES or len(lines) > MAX_HEADERS:
        _check_lines(lines, partial=False)
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError("malformed request line")
    method, target, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError("malformed header line")
        headers[name.strip().lower()] = value.strip()
    start = end + 4
    stop = start
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError("non-integer content-length") from exc
        if not 0 <= length <= MAX_BODY_BYTES:
            raise HttpError(f"body outside [0, {MAX_BODY_BYTES}] bytes")
        stop += length
        if len(buf) < stop:
            return None
    body = bytes(buf[start:stop])
    del buf[:stop]
    return Request(method.upper(), target, headers, body, version)


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

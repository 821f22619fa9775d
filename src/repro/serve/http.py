"""A minimal asyncio HTTP/1.1 layer for ``repro serve`` — stdlib only.

The service deliberately speaks a small, honest subset of HTTP: one
request per connection (every response carries ``Connection: close``),
JSON bodies both ways, and NDJSON (one JSON object per line) for the
progress stream — which is exactly what ``curl`` and any HTTP client
library consume without ceremony.  No routing framework, no dependency.

Routes::

    GET  /healthz                     liveness probe
    GET  /api/status                  store/cache/job overview
    GET  /api/result?model=&app=&length=&sampling=
                                      one warm result (404 when cold)
    GET  /api/figure/NAME?apps=&length=&sampling=
                                      render a figure (warm grid: zero
                                      simulations, no worker processes)
    GET  /api/jobs                    submitted jobs
    POST /api/jobs                    submit {"kind": "sweep"|"figure", ...}
    GET  /api/jobs/ID                 one job's status
    GET  /api/jobs/ID/events          NDJSON progress stream (follows
                                      until the job finishes)
"""

from __future__ import annotations

import asyncio
import json
from typing import Any
from urllib.parse import parse_qs, unquote, urlsplit

from repro.serve.service import Job, ReproService, ServiceError

#: Request caps: header block and body sizes a well-behaved client needs.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


def _head(status: int, content_type: str,
          length: int | None = None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _json_payload(status: int, payload: Any) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return _head(status, "application/json", len(body)) + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict, bytes]:
    """Parse one request: (method, path, query, body).

    Raises :class:`ServiceError` on anything malformed or oversized.
    """
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise ServiceError(400, "request line too long") from None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ServiceError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise ServiceError(400, "header block too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            size = int(headers["content-length"])
        except ValueError:
            raise ServiceError(400, "bad Content-Length") from None
        if size > MAX_BODY_BYTES:
            raise ServiceError(400, "request body too large")
        body = await reader.readexactly(size)
    url = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(url.query, keep_blank_values=True).items()
    }
    return method.upper(), unquote(url.path), query, body


def _json_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ServiceError(400, "request body is not valid JSON") from None


async def _stream_events(service: ReproService, job: Job,
                         writer: asyncio.StreamWriter) -> None:
    """NDJSON: replay the job's events, follow until it finishes."""
    writer.write(_head(200, "application/x-ndjson"))
    await writer.drain()
    async for event in service.stream(job):
        writer.write((json.dumps(event, sort_keys=True) + "\n")
                     .encode("utf-8"))
        await writer.drain()


async def _dispatch(service: ReproService, method: str, path: str,
                    query: dict, body: bytes,
                    writer: asyncio.StreamWriter) -> bytes | None:
    """Route one request; returns a full response, or ``None`` when the
    handler streamed the response itself."""
    segments = [part for part in path.split("/") if part]
    if path == "/healthz":
        if method != "GET":
            raise ServiceError(405, "healthz is GET-only")
        return _json_payload(200, {"status": "ok"})
    if segments[:1] != ["api"]:
        raise ServiceError(404, f"no route for {path}")
    rest = segments[1:]
    if rest == ["status"] and method == "GET":
        return _json_payload(200, service.status())
    if rest == ["result"] and method == "GET":
        missing = [k for k in ("model", "app") if k not in query]
        if missing:
            raise ServiceError(
                400, f"missing query parameter(s): {', '.join(missing)}"
            )
        payload = service.lookup(
            query["model"], query["app"], query.get("length"),
            query.get("sampling"),
        )
        return _json_payload(200, payload)
    if rest[:1] == ["figure"] and len(rest) == 2 and method == "GET":
        return _json_payload(200, await service.figure(rest[1], query))
    if rest == ["jobs"]:
        if method == "POST":
            job = await service.submit(_json_body(body))
            return _json_payload(202, job.summary())
        if method == "GET":
            return _json_payload(200, service.status()["jobs"])
        raise ServiceError(405, "jobs is GET/POST-only")
    if rest[:1] == ["jobs"] and len(rest) == 2 and method == "GET":
        return _json_payload(200, service.job(rest[1]).summary())
    if rest[:1] == ["jobs"] and len(rest) == 3 and rest[2] == "events" \
            and method == "GET":
        await _stream_events(service, service.job(rest[1]), writer)
        return None
    raise ServiceError(404, f"no route for {method} {path}")


async def handle_client(service: ReproService,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
    """Serve one connection: one request, one response, close."""
    try:
        try:
            method, path, query, body = await _read_request(reader)
            response = await _dispatch(service, method, path, query, body,
                                       writer)
        except ServiceError as exc:
            response = _json_payload(exc.status, {"error": exc.message})
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except Exception as exc:  # defensive: never kill the server loop
            response = _json_payload(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        if response is not None:
            writer.write(response)
            await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_server(service: ReproService, host: str = "127.0.0.1",
                       port: int = 8035) -> asyncio.base_events.Server:
    """Bind and return the listening asyncio server (port 0 = ephemeral)."""

    async def _client(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await handle_client(service, reader, writer)

    return await asyncio.start_server(_client, host, port)

"""Minimal asyncio HTTP endpoint serving the Prometheus exposition.

``repro-ecg serve --metrics-port N`` binds this next to the ingest
gateway: any HTTP GET (conventionally ``/metrics``) receives the
current registry rendered by
:func:`~repro.telemetry.sinks.render_prometheus`.  It is deliberately
tiny — one response per connection, no routing, no keep-alive — which
is all a scrape loop (or ``curl``) needs, and keeps the dependency
surface at zero.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import AsyncIterator, Callable

from .core import MetricsRegistry, MetricsSnapshot
from .sinks import JsonlRingSink, render_prometheus


class MetricsServer:
    """One TCP listener answering every request with the exposition."""

    def __init__(
        self, source: MetricsRegistry | Callable[[], MetricsSnapshot]
    ) -> None:
        self._source = source
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    def _snapshot(self) -> MetricsSnapshot:
        if isinstance(self._source, MetricsRegistry):
            return self._source.snapshot()
        return self._source()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the listener; returns the actual port."""
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        # swap before awaiting: a concurrent start() while wait_closed()
        # is suspended must not have its fresh listener nulled out
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        try:
            # consume the request head; the content is irrelevant —
            # every path serves the exposition
            try:
                await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=5.0
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
            ):
                return
            body = render_prometheus(self._snapshot()).encode("utf-8")
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Connection: close\r\n\r\n"
                + body
            )
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # scraper went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass


@contextlib.asynccontextmanager
async def published(
    registry: MetricsRegistry,
    host: str,
    port: int | None = None,
    ring: JsonlRingSink | None = None,
    interval_s: float = 5.0,
) -> AsyncIterator[int | None]:
    """Publish ``registry`` while the block runs: the exposition on
    ``port`` (``0`` = OS-assigned; yields the bound port, ``None``
    without one), and a snapshot appended to ``ring`` every
    ``interval_s`` plus a last one on exit, so the final state
    survives the process."""
    server = None
    if port is not None:
        server = MetricsServer(registry)
        port = await server.start(host, port)

    async def _append_loop() -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval_s)
            # snapshot on the loop (cheap, lock-guarded), but write —
            # and possibly compact — off it: file I/O must not stall
            # frame reads or flush deadlines
            snapshot = registry.snapshot()
            await loop.run_in_executor(None, ring.append, snapshot)

    appender = (
        asyncio.create_task(_append_loop()) if ring is not None else None
    )
    try:
        yield port
    finally:
        if appender is not None:
            appender.cancel()
            await asyncio.gather(appender, return_exceptions=True)
            await asyncio.get_running_loop().run_in_executor(
                None, ring.append, registry.snapshot()
            )
        if server is not None:
            await server.close()


async def scrape_local(port: int, host: str = "127.0.0.1") -> str:
    """Fetch one exposition over HTTP (test/bench helper, no deps)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET /metrics HTTP/1.1\r\nHost: {host}\r\n"
            f"Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.1 200"):
        raise ConnectionError(
            f"metrics endpoint answered {head.splitlines()[0]!r}"
        )
    return body.decode("utf-8")


__all__ = ["MetricsServer", "scrape_local"]

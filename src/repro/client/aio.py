"""Asyncio client for the network serving API.

:class:`AsyncClient` is the event-loop counterpart of
:class:`repro.client.sync.Client`: the same Engine-facade mirror
(``solve`` / ``compensate`` / ``process`` / ``open_session`` / ``stats``),
the same typed exceptions, the same reconnect-with-backoff and
retry-after honoring — with every call awaitable, so one event loop can
drive many concurrent clients (each with its own connection).  Both
clients run on the sans-IO core of :mod:`repro.client.core`: the same
request builders and reply decoders, hello check, codec pick and retry
policy; this module only moves the bytes.

Concurrent calls on **one** :class:`AsyncClient` are multiplexed over a
single connection: every request carries a fresh id, a background reader
task routes each reply to its awaiting caller, and replies may arrive in
server completion order.  This is the asyncio shape of
:meth:`Client.pipeline <repro.client.sync.Client.pipeline>` — just
``asyncio.gather`` the calls; no dedicated batch context is needed.  When
the server closes the connection the reader drops it, so the next call
reconnects at once.

Like the sync client, the hello advertises ``max_version`` and the
server's pick lands on :attr:`AsyncClient.protocol_version`: requests and
responses travel as binary zero-copy v2 frames
(:mod:`repro.serve.wire2`) against this build's servers and fall back to
v1 JSON against older ones.  The same-host shared-memory lane carries
only sync lockstep calls and stays on the sync client.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Mapping

from repro.api.types import (
    CompensationResult,
    CompensationSolution,
    StreamFrameResult,
)
from repro.core.histogram import Histogram
from repro.imaging.image import Image
from repro.serve import protocol, wire2
from repro.serve.coalescer import ServerOverloadedError
from repro.serve.net import DEFAULT_PORT
from repro.serve.stats import ServerStats
from repro.client import core
from repro.client.core import Call, ClientBase, SessionBase
from repro.client.sync import LocalCompensation

__all__ = ["AsyncClient", "AsyncRemoteSession"]


class AsyncRemoteSession(SessionBase):
    """Asyncio counterpart of :class:`repro.client.sync.RemoteSession`:
    the push-based stream surface with ``await``-able frame submission.
    Use ``async with`` for deterministic close."""

    async def submit(self, frame: Image) -> StreamFrameResult:
        """Push one frame; resolves to its
        :class:`~repro.api.types.StreamFrameResult`."""
        return await self._client._call(self._feed(frame))

    async def close(self) -> None:
        """Close the remote session (idempotent, best-effort on a dead
        connection)."""
        call = self._close()
        if call is None:
            return
        try:
            await self._client._call(call)
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncRemoteSession":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


class AsyncClient(ClientBase):
    """Asyncio client for a :class:`~repro.serve.net.NetworkServer`.

    Same parameters and retry policy as
    :class:`repro.client.sync.Client`; every RPC is a coroutine, and
    concurrent calls on one client are pipelined over one connection
    (correlated by request id, so ``asyncio.gather`` keeps the socket
    full).

    Attributes
    ----------
    protocol_version:
        The generation negotiated on the current connection (``None``
        while disconnected); see ``max_version``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 timeout: float = 60.0, retries: int = 3,
                 backoff: float = 0.1, max_backoff: float = 2.0,
                 jitter: float = 0.5, rng=None,
                 retry_overloaded: bool = True,
                 max_version: int = protocol.PROTOCOL_VERSION) -> None:
        super().__init__(host, port, timeout=timeout, retries=retries,
                         backoff=backoff, max_backoff=max_backoff,
                         jitter=jitter, rng=rng,
                         retry_overloaded=retry_overloaded,
                         max_version=max_version)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._conn_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    # the Engine-facade mirror
    # ------------------------------------------------------------------ #
    async def solve(self, source: Image | Histogram, max_distortion: float,
                    algorithm: str | None = None) -> CompensationSolution:
        """Histogram-only solve (see
        :meth:`Client.solve <repro.client.sync.Client.solve>`)."""
        return await self._call(core.solve(source, max_distortion, algorithm))

    async def compensate(self, image: Image, max_distortion: float,
                         algorithm: str | None = None) -> LocalCompensation:
        """Remote histogram-only solve + local LUT application (see
        :meth:`Client.compensate <repro.client.sync.Client.compensate>`)."""
        grayscale = image.to_grayscale()
        solution = await self.solve(Histogram.of_image(grayscale),
                                    max_distortion, algorithm=algorithm)
        return LocalCompensation(solution=solution, original=grayscale,
                                 output=solution.transform.apply(grayscale))

    async def process(self, image: Image, max_distortion: float,
                      algorithm: str | None = None) -> CompensationResult:
        """Full-image request (see
        :meth:`Client.process <repro.client.sync.Client.process>`)."""
        return await self._call(core.process(image, max_distortion, algorithm))

    async def open_session(self, max_distortion: float,
                           algorithm: str | None = None,
                           **options: Any) -> AsyncRemoteSession:
        """Open a push-based stream session on the server."""
        session_id = await self._call(
            core.open_session(max_distortion, algorithm, options))
        return AsyncRemoteSession(self, session_id, float(max_distortion))

    async def stats(self) -> ServerStats:
        """The server's live statistics snapshot."""
        return await self._call(core.stats())

    async def stats_dict(self) -> Mapping[str, Any]:
        """The raw JSON payload of the ``stats`` RPC."""
        return await self._call(core.stats_dict())

    # ------------------------------------------------------------------ #
    # connection plumbing
    # ------------------------------------------------------------------ #
    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self) -> None:
        """Connect and handshake now (otherwise done lazily).

        The hello advertises ``[1, max_version]``; the server's pick
        lands on :attr:`protocol_version`.  Also starts the background
        reader task that routes multiplexed replies by request id.
        """
        async with self._conn_lock:
            if self._writer is not None:
                return
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout)
            try:
                writer.write(self._hello())
                await writer.drain()
                version = self._check_hello(await asyncio.wait_for(
                    self._read_message(reader), self.timeout))
            except BaseException:
                writer.close()
                raise
            self._reader, self._writer = reader, writer
            self.protocol_version = version
            self._reader_task = asyncio.create_task(self._read_loop(reader))

    async def close(self) -> None:
        """Drop the connection (idempotent).  Every in-flight request
        fails with :class:`ConnectionError`."""
        task, self._reader_task = self._reader_task, None
        writer = self._drop_connection()
        if task is not None:
            task.cancel()
            with contextlib.suppress(BaseException):
                await task
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending(ConnectionError("the connection was closed"))

    async def __aenter__(self) -> "AsyncClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    async def _call(self, call: Call) -> Any:
        """One multiplexed call with the shared retry policy
        (:meth:`~repro.client.core.ClientBase._retry_delay`); every
        attempt takes a fresh request id and re-encodes for whatever
        protocol version the connection negotiated."""
        attempt = 0
        while True:
            try:
                return call.reply(await self._exchange(call))
            except ServerOverloadedError as exc:
                delay = self._retry_delay(exc, attempt, call.replayable)
            except (OSError, EOFError, asyncio.TimeoutError) as exc:
                await self.close()
                delay = self._retry_delay(ConnectionError(
                    f"lost connection to {self.host}:{self.port} "
                    f"({exc!r})"), attempt, call.replayable)
            await asyncio.sleep(delay)
            attempt += 1

    async def _exchange(self, call: Call) -> dict:
        """Send ``call`` on the shared connection and await its reply."""
        await self.connect()
        writer = self._writer
        if writer is None:   # raced with a concurrent close()
            raise ConnectionError("the connection was closed")
        request_id, frame = self._frame(call)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                writer.write(frame)
                await writer.drain()
            return await asyncio.wait_for(future, self.timeout)
        finally:
            self._pending.pop(request_id, None)

    async def _read_message(self, reader: asyncio.StreamReader) -> dict:
        header = await reader.readexactly(protocol.HEADER_BYTES)
        payload = await reader.readexactly(protocol.frame_length(header))
        # decode by sniff: a negotiated-v2 connection carries v2 binary
        # frames, but the hello (and any v1 fallback) is plain JSON
        return wire2.decode_any(payload)[1]

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Route each incoming reply to the future awaiting its id."""
        try:
            while True:
                message = await self._read_message(reader)
                future = self._pending.pop(message.get("id"), None)
                if future is not None:
                    if not future.done():
                        future.set_result(message)
                elif (message.get("type") == "error"
                        and message.get("id") is None):
                    # a connection-level error frame addresses everyone
                    self._fail_pending(protocol.exception_from_error(message))
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError, EOFError,
                asyncio.IncompleteReadError, protocol.ProtocolError) as exc:
            # the stream is gone or out of frame: drop it, so the next
            # call reconnects instead of writing into a dead socket
            if self._reader is reader:
                self._reader_task = None
                writer = self._drop_connection()
                if writer is not None:
                    writer.close()
            self._fail_pending(exc)

    def _drop_connection(self) -> asyncio.StreamWriter | None:
        writer, self._reader, self._writer = self._writer, None, None
        self.protocol_version = None
        return writer

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ConnectionError(
                    f"lost connection to {self.host}:{self.port} ({exc})"))

"""Asyncio network front end: the serving stack behind a TCP socket.

:class:`NetworkServer` puts the existing in-process machinery — the
thread-safe :class:`~repro.api.engine.Engine`, the micro-batching
:class:`~repro.serve.coalescer.RequestCoalescer` worker pool and the
:class:`~repro.serve.server.SessionManager` — behind the wire protocol of
:mod:`repro.serve.protocol`.  The division of labour is strict:

* the **event loop** only frames/unframes JSON and shuttles bytes — it
  never touches pixels;
* **engine work** stays on threads: one-shot ``process`` requests and
  session ``feed`` frames enter the shared
  :class:`~repro.serve.server.Server` queue (so requests from *many
  connections* coalesce into the same micro-batch ticks as in-process
  traffic), while histogram-only ``solve`` requests and session opens run
  on a small dedicated executor via ``run_in_executor`` (a warmed solve is
  a cache lookup, far cheaper than a batch tick);
* **backpressure survives the hop**: queue-refused work surfaces as a
  typed ``overloaded`` error frame carrying the structured
  ``retry_after`` / ``queue_depth`` hints of
  :class:`~repro.serve.coalescer.ServerOverloadedError` — the connection
  stays open, the client backs off;
* **sessions are connection-owned**: a stream session opened over a
  connection dies with it (close-on-disconnect), so a vanished client can
  never pin the session table.

The event-loop discipline — length-prefixed frames, a ``hello``
handshake with version negotiation, one asyncio task per request, a
per-connection write lock, close-on-disconnect cleanup, and the
serve/run/start/close lifecycle — is factored into
:class:`FrameServerBase` so the cluster router of
:mod:`repro.cluster.router` (a byte-shuttling front for many
``NetworkServer`` shards) speaks the protocol with the exact same manners.

**Protocol v2.**  Connections negotiate the newest shared generation at
hello time (:func:`repro.serve.protocol.negotiated_version`); each
request frame is then decoded by sniffing — v1 JSON or the binary v2
format of :mod:`repro.serve.wire2` — and answered *in the format it
arrived in*, so a router can forward mixed-version traffic verbatim.
Responders may also return pre-encoded payload bytes instead of a
message dict (the router's bytes-through fast path).  On a negotiated
same-host connection the server additionally accepts image payloads by
shared-memory reference (:mod:`repro.serve.shm`), with the blocks
unlinked on disconnect so a crashed client cannot leak them.

``repro serve --host H --port P`` runs one from the command line;
:mod:`repro.client` is the SDK on the other end.  For tests, benchmarks
and examples the server also runs on a background thread::

    net = NetworkServer(Server(engine=engine))
    host, port = net.start()          # bound, accepting
    ...
    net.close()                       # drains and closes the wrapped Server

The :class:`NetworkServer` owns the :class:`~repro.serve.server.Server` it
wraps: :meth:`NetworkServer.close` closes it (and its engine workers) too.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.api.session import SessionClosedError
from repro.serve import protocol, shm, wire2
from repro.serve.server import Server, ServerSession

__all__ = ["ConnectionContext", "FrameServerBase", "NetworkServer",
           "DEFAULT_PORT"]

#: Default TCP port of ``repro serve --port`` and the client SDK.
DEFAULT_PORT = 7095


class ConnectionContext:
    """Per-connection state threaded through the framing layer.

    ``version`` is the generation negotiated at hello time; ``shm`` is
    the server-side :class:`~repro.serve.shm.ShmRegistry` when the
    shared-memory lane was negotiated (``None`` otherwise); ``state`` is
    whatever the subclass's ``_new_connection`` returned (the session
    table for :class:`NetworkServer`, the routing record for the cluster
    router).
    """

    __slots__ = ("version", "shm", "state")

    def __init__(self, version: int, state: Any = None) -> None:
        self.version = int(version)
        self.shm: shm.ShmRegistry | None = None
        self.state = state


class FrameServerBase:
    """Shared asyncio machinery of the protocol's byte-framing servers.

    Owns the bind/serve/close lifecycle (including the background-thread
    :meth:`start` used by tests and benchmarks) and the per-connection
    discipline: ``hello`` handshake, length-prefixed frames, one asyncio
    task per request (a slow request must not stall its connection
    siblings; responses correlate by request id), a per-connection write
    lock, and a cleanup hook when the peer disconnects.

    Subclasses implement :meth:`_respond` (and optionally the
    ``_new_connection`` / ``_on_disconnect`` / ``_on_serve_start`` /
    ``_on_serve_stop`` / ``_on_close`` hooks);
    :class:`NetworkServer` answers requests with engine work,
    :class:`repro.cluster.router.ClusterRouter` by forwarding frames to
    backend shards.
    """

    _thread_name = "repro-frame-server"

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = int(port)
        self._bound: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started: threading.Event | None = None
        self._startup_error: BaseException | None = None
        self._connections: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int] | None:
        """``(host, port)`` actually bound, or ``None`` before serving."""
        return self._bound

    async def serve(self, ready: Callable[[], None] | None = None) -> None:
        """Bind and serve until :meth:`close` (or task cancellation).

        ``ready`` is called once the socket is bound and :attr:`address`
        is set — the hook the CLI uses to print the listening line and
        tests use to unblock the client.
        """
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._on_serve_start()
            tcp = await asyncio.start_server(self._handle_connection,
                                             self.host, self.port)
        except BaseException:
            await self._on_serve_stop()
            self._loop = None
            self._stop_event = None
            raise
        sockname = tcp.sockets[0].getsockname()
        self._bound = (str(sockname[0]), int(sockname[1]))
        if ready is not None:
            ready()
        try:
            async with tcp:
                await self._stop_event.wait()
            # hang up the remaining connections deliberately (instead of
            # letting asyncio.run cancel them mid-write at loop teardown)
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections,
                                     return_exceptions=True)
        finally:
            await self._on_serve_stop()
            self._bound = None
            self._loop = None
            self._stop_event = None

    def run(self, ready: Callable[[], None] | None = None) -> None:
        """Blocking convenience: ``asyncio.run`` the server in this thread
        (the ``repro serve --port`` mode).  Returns after :meth:`close`
        from another thread, or raises ``KeyboardInterrupt`` through."""
        asyncio.run(self.serve(ready=ready))

    def start(self) -> tuple[str, int]:
        """Serve on a daemon background thread; returns the bound address.

        The pattern tests, benchmarks and examples use: real sockets, no
        subprocess.  Pair with :meth:`close`.
        """
        if self._thread is not None:
            raise RuntimeError("the server is already running")
        self._started = threading.Event()
        self._startup_error = None
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True,
                                        name=self._thread_name)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join()
            self._thread = None
            raise error
        address = self._bound
        assert address is not None
        return address

    def _thread_main(self) -> None:
        assert self._started is not None
        try:
            asyncio.run(self.serve(ready=self._started.set))
        except BaseException as exc:   # noqa: BLE001 - reported to starter
            self._startup_error = exc
        finally:
            # unblock start() whether binding succeeded, failed, or the
            # loop exited before ready fired
            self._started.set()

    def close(self, wait: bool = True) -> None:
        """Stop accepting connections and release owned resources.

        Safe to call from any thread (and idempotent).  With ``wait`` the
        background thread (if any) is joined before the subclass
        :meth:`_on_close` hook runs.
        """
        if self._closed:
            return
        self._closed = True
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop_event.set)
        if self._thread is not None and wait:
            self._thread.join(timeout=30.0)
            self._thread = None
        self._on_close(wait)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=True)

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #
    async def _on_serve_start(self) -> None:
        """Runs on the serving loop before the listening socket binds."""

    async def _on_serve_stop(self) -> None:
        """Runs on the serving loop as it shuts down (always paired with
        a completed :meth:`_on_serve_start`)."""

    def _on_close(self, wait: bool) -> None:
        """Release subclass-owned resources from :meth:`close`."""

    def _hello_response(self, conn: ConnectionContext, hello: dict) -> dict:
        """The server side of the handshake, answering ``hello`` with the
        negotiated ``conn.version``."""
        return protocol.hello_frame(version=conn.version)

    def _new_connection(self) -> Any:
        """Fresh per-connection subclass state, carried on
        :attr:`ConnectionContext.state`."""
        return None

    def _on_connect(self, conn: ConnectionContext) -> None:
        """Runs once per connection, right after version negotiation."""

    async def _respond_payload(self, payload: bytes,
                               conn: ConnectionContext,
                               version: int) -> dict | bytes:
        """Answer one raw frame payload.  The default decodes it and
        delegates to :meth:`_respond`; the cluster router overrides this
        to forward v2 payloads without ever decoding their segments."""
        message = (wire2.decode_message(payload) if version == 2
                   else protocol.decode_frame(payload))
        return await self._respond(message, conn, version)

    async def _respond(self, message: dict, conn: ConnectionContext,
                       version: int) -> dict | bytes:
        """Answer one request frame; exceptions become typed error frames.

        ``version`` is the generation of the *frame* (by sniff — a
        negotiated-v2 connection may still carry v1 frames, e.g. through
        a router); the reply travels in the same format.  Return a
        message dict, or pre-encoded payload bytes to skip re-encoding
        (the router's bytes-through fast path).
        """
        raise NotImplementedError

    async def _on_disconnect(self, conn: ConnectionContext) -> None:
        """Clean up one connection's state after its peer is gone."""

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _read_payload(self, reader: asyncio.StreamReader) -> bytes:
        header = await reader.readexactly(protocol.HEADER_BYTES)
        return await reader.readexactly(protocol.frame_length(header))

    async def _send(self, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock, message: dict | bytes,
                    version: int = protocol.PROTOCOL_V1) -> None:
        if isinstance(message, (bytes, bytearray, memoryview)):
            payload = bytes(message)
            frame = (len(payload).to_bytes(protocol.HEADER_BYTES, "big")
                     + payload)
        else:
            frame = wire2.encode_any(message, version)
        async with write_lock:
            writer.write(frame)
            await writer.drain()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn: ConnectionContext | None = None
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        try:
            try:
                # the hello itself always travels as a v1 JSON frame —
                # it is what decides whether v2 may be spoken at all
                hello = protocol.decode_frame(
                    await self._read_payload(reader))
            except (asyncio.IncompleteReadError, protocol.ProtocolError):
                return
            negotiated = (protocol.negotiated_version(hello)
                          if hello.get("type") == "hello" else 0)
            if negotiated == 0:
                await self._send(writer, write_lock, protocol.error_response(
                    hello.get("id"),
                    protocol.ProtocolError(
                        f"unsupported protocol: expected a hello frame "
                        f"offering a version within "
                        f"[{protocol.PROTOCOL_V1}, "
                        f"{protocol.PROTOCOL_VERSION}], got "
                        f"{hello.get('type')!r} v{hello.get('version')!r}"),
                    code="unsupported_version"))
                return
            conn = ConnectionContext(negotiated, self._new_connection())
            self._on_connect(conn)
            await self._send(writer, write_lock,
                             self._hello_response(conn, hello))
            while True:
                try:
                    payload = await self._read_payload(reader)
                except asyncio.IncompleteReadError:
                    break   # clean EOF (or mid-frame disconnect)
                # one task per request: a slow solve must not stall a
                # sibling session's feed on the same connection; response
                # order is by completion, correlated by request id
                task = asyncio.create_task(
                    self._dispatch(payload, conn, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError,
                protocol.ProtocolError, asyncio.CancelledError):
            pass
        finally:
            if me is not None:
                self._connections.discard(me)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if conn is not None:
                with contextlib.suppress(Exception):
                    await self._on_disconnect(conn)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, payload: bytes, conn: ConnectionContext,
                        writer: asyncio.StreamWriter,
                        write_lock: asyncio.Lock) -> None:
        version = 2 if wire2.is_v2_payload(payload) else 1
        try:
            response = await self._respond_payload(payload, conn, version)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:   # noqa: BLE001 - typed error frame
            # a malformed payload (bad array descriptor, undecodable
            # frame) answers with a typed error and the connection stays
            # open — the length prefix was valid, framing is still in
            # sync.  Recover the correlation id from the frame header
            # (for a v2 frame that costs O(header), even when it was the
            # segment validation that failed).
            request_id = None
            with contextlib.suppress(Exception):
                request_id = (wire2.peek(payload) if version == 2
                              else protocol.decode_frame(payload)).get("id")
            response = protocol.error_response(request_id, exc)
        with contextlib.suppress(ConnectionResetError, BrokenPipeError,
                                 RuntimeError):
            await self._send(writer, write_lock, response, version)


class NetworkServer(FrameServerBase):
    """Serve a :class:`~repro.serve.server.Server` over asyncio TCP.

    Parameters
    ----------
    server:
        The in-process serving stack to expose; a fresh
        :class:`~repro.serve.server.Server` built from ``server_options``
        when omitted.  The network server owns it either way and closes it
        on :meth:`close`.
    host, port:
        Bind address.  ``port=0`` picks a free port — read
        :attr:`address` (or the :meth:`start` return value) for the bound
        one.
    solve_workers:
        Threads of the dedicated executor running histogram-only solves
        and session opens (the paths that bypass the micro-batch queue).
    shard_id:
        Identity this server advertises in its ``hello`` frame, ``health``
        responses and ``stats`` payloads — how aggregated cluster stats
        attribute counters to shards.  Defaults to the bound
        ``"host:port"`` while serving.
    server_options:
        Forwarded to :class:`~repro.serve.server.Server` when ``server``
        is omitted.
    """

    _thread_name = "repro-net-server"

    def __init__(self, server: Server | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 solve_workers: int = 4, shard_id: str | None = None,
                 **server_options) -> None:
        super().__init__(host=host, port=port)
        self.server = server if server is not None else Server(**server_options)
        self._shard_id = None if shard_id is None else str(shard_id)
        # currently-open connections by negotiated generation; only ever
        # touched on the serving loop, snapshotted into stats payloads
        self._conn_counts = {1: 0, 2: 0}
        self._executor = ThreadPoolExecutor(
            max_workers=int(solve_workers),
            thread_name_prefix="repro-net-solve")

    @property
    def shard_id(self) -> str | None:
        """The advertised shard identity (``None`` before binding unless
        one was configured)."""
        if self._shard_id is not None:
            return self._shard_id
        bound = self._bound
        return f"{bound[0]}:{bound[1]}" if bound is not None else None

    def _on_close(self, wait: bool) -> None:
        self._executor.shutdown(wait=wait)
        self.server.close(wait=wait)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _hello_response(self, conn: ConnectionContext, hello: dict) -> dict:
        verdict = None
        offer = hello.get("shm")
        if offer is not None:
            # same-host proof: attach the client's probe block and read
            # its nonce back — a spoofed claim fails here and the
            # connection simply continues on the socket lane
            accepted = (conn.version >= 2
                        and shm.ShmRegistry.verify_offer(offer))
            if accepted:
                conn.shm = shm.ShmRegistry()
            verdict = bool(accepted)
        return protocol.hello_frame(version=conn.version,
                                    shard_id=self.shard_id, shm=verdict)

    def _new_connection(self) -> dict[str, ServerSession]:
        return {}

    def _on_connect(self, conn: ConnectionContext) -> None:
        self._conn_counts[conn.version] += 1

    async def _on_disconnect(self, conn: ConnectionContext) -> None:
        self._conn_counts[conn.version] -= 1
        # close-on-disconnect: this connection's sessions die with it,
        # so an abandoned client cannot pin the session table
        sessions = conn.state
        for handle in sessions.values():
            with contextlib.suppress(Exception):
                handle.close()
        sessions.clear()
        if conn.shm is not None:
            # unlink the peer's shared-memory blocks: a crashed client
            # must not leak them past its connection
            conn.shm.close()
            conn.shm = None

    def _image_in(self, wire: Any, conn: ConnectionContext):
        """An inbound image payload: shared-memory reference or codec."""
        if shm.is_shm_wire(wire):
            if conn.shm is None:
                raise protocol.ProtocolError(
                    "shared-memory lane was not negotiated on this "
                    "connection")
            return conn.shm.resolve(wire)
        return protocol.image_from_wire(wire)

    async def _respond(self, message: dict, conn: ConnectionContext,
                       version: int) -> dict:
        kind = message.get("type")
        request_id = message.get("id")
        sessions: dict[str, ServerSession] = conn.state
        binary = version >= 2
        loop = asyncio.get_running_loop()

        if kind == "solve":
            histogram = protocol.histogram_from_wire(message["histogram"])
            solution = await loop.run_in_executor(
                self._executor,
                functools.partial(self.server.engine.solve, histogram,
                                  float(message["max_distortion"]),
                                  algorithm=message.get("algorithm")))
            return protocol.solution_response(request_id, solution)

        if kind == "process":
            image = self._image_in(message["image"], conn)
            # timeout=0: a full queue refuses immediately with the typed
            # overloaded error — network clients back off on retry_after
            # rather than holding the event loop hostage
            future = self.server.submit(image,
                                        float(message["max_distortion"]),
                                        algorithm=message.get("algorithm"),
                                        timeout=0.0)
            result = await asyncio.wrap_future(future)
            # v2 responses omit the original image: it is the grayscale
            # rendition of the request image, which the client rebuilds
            # locally bit-exactly — the downlink never re-ships pixels
            return protocol.result_response(request_id, result,
                                            binary=binary,
                                            include_original=not binary)

        if kind == "open_session":
            options = dict(message.get("options") or {})
            handle = await loop.run_in_executor(
                self._executor,
                functools.partial(self.server.open_session,
                                  float(message["max_distortion"]),
                                  algorithm=message.get("algorithm"),
                                  **options))
            sessions[handle.id] = handle
            return protocol.session_response(request_id, handle.id)

        if kind == "feed":
            session_id = message.get("session_id")
            handle = sessions.get(session_id)
            if handle is None:
                raise SessionClosedError(
                    f"unknown session {session_id!r} on this connection")
            frame = self._image_in(message["frame"], conn)
            future = handle.submit(frame, timeout=0.0)
            outcome = await asyncio.wrap_future(future)
            return protocol.frame_response(request_id, outcome,
                                           binary=binary,
                                           include_original=not binary)

        if kind == "close_session":
            session_id = message.get("session_id")
            handle = sessions.pop(session_id, None)
            if handle is not None:
                handle.close()
            return protocol.session_closed_response(request_id, session_id)

        if kind == "stats":
            stats = dataclasses.replace(
                self.server.stats(),
                connections_v1=self._conn_counts[1],
                connections_v2=self._conn_counts[2])
            shard_id = self.shard_id
            if shard_id is not None:
                stats = dataclasses.replace(stats, shard_id=shard_id)
            return protocol.stats_response(request_id, stats)

        if kind == "health":
            # straight off the event loop: no engine work, so the probe
            # answers even while the batch queue is saturated
            return protocol.health_response(
                request_id, shard_id=self.shard_id,
                sessions_open=self.server.session_count,
                queue_depth=self.server.queue_depth)

        raise protocol.ProtocolError(f"unknown request type {kind!r}")

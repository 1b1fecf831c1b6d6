"""Blocking TCP client for the network serving API.

:class:`Client` mirrors the :class:`~repro.api.engine.Engine` facade over a
socket: :meth:`Client.solve` ships a histogram and gets back an
image-independent solution (the paper-native fast path — O(histogram)
bandwidth), :meth:`Client.process` ships a full image for server-side
application and accounting, and :meth:`Client.open_session` opens a
push-based :class:`RemoteSession` matching the
:class:`~repro.api.session.StreamSession` surface.

**One request path.**  Every call goes through a :class:`ClientPipeline`:
:meth:`Client.pipeline` keeps many requests in flight on one socket, and
a lockstep call is a pipeline of depth 1 — or joins the pipeline that is
open.  Requests are built and replies decoded by the sans-IO table of
:mod:`repro.client.core`, shared with :class:`~repro.client.aio.AsyncClient`.

Connection care is built in: the client connects lazily, performs the
protocol handshake, and when a lockstep call has nothing else in flight
it reconnects after a lost connection with exponential back-off and
retries the request if it is replayable (session traffic is not).  A
typed ``overloaded`` error honors the server's ``retry_after`` hint
before retrying; the other error frames raise the same exception types
in-process callers see
(:class:`~repro.serve.coalescer.ServerOverloadedError`,
:class:`~repro.serve.coalescer.ServerClosedError`,
:class:`~repro.api.session.SessionClosedError`, :class:`ValueError`).

**Protocol v2.**  The client advertises ``max_version`` in its hello and
records the server's pick as :attr:`Client.protocol_version` (also shown
in ``repr``).  On a v2 connection requests and responses travel as binary
zero-copy frames (:mod:`repro.serve.wire2`); against an older server the
same client falls back to v1 JSON transparently.  ``shm=True``
additionally offers the same-host shared-memory lane of
:mod:`repro.serve.shm` for the image payloads of lockstep calls.

A :class:`Client` is **not** thread-safe — use one client per thread
(see :class:`repro.client.adapter.RemoteServerAdapter`) or the asyncio
:class:`~repro.client.aio.AsyncClient`.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.api.types import (
    CompensationResult,
    CompensationSolution,
    StreamFrameResult,
)
from repro.client import core
from repro.client.core import Call, ClientBase, SessionBase, parse_address
from repro.core.histogram import Histogram
from repro.core.transforms import PixelTransform
from repro.imaging.image import Image
from repro.serve import protocol, wire2
from repro.serve import shm as shm_lane
from repro.serve.coalescer import ServerOverloadedError
from repro.serve.net import DEFAULT_PORT
from repro.serve.stats import ServerStats

__all__ = ["Client", "ClientPipeline", "PendingReply", "RemoteSession",
           "LocalCompensation", "parse_address"]


@dataclass(frozen=True)
class LocalCompensation:
    """Outcome of :meth:`Client.compensate`: a remote histogram-only solve
    replayed onto the local pixels.

    Only the histogram crossed the wire; ``output`` was produced locally by
    applying the solution's LUT.  For the histogram-driven techniques
    (``hebs``, the DLS variants, ``cbcs``) it is bit-identical to what the
    server would have produced from the full image; for ``hebs-adaptive``
    the server-side bisection measured distortion on a histogram-realizing
    stand-in, so its operating point approximates (rather than reproduces)
    a full-image solve — see :meth:`Engine.solve
    <repro.api.engine.Engine.solve>`.
    """

    solution: CompensationSolution
    original: Image
    output: Image

    @property
    def backlight_factor(self) -> float:
        """The dimming factor ``beta`` to program."""
        return self.solution.backlight_factor

    @property
    def transform(self) -> PixelTransform:
        """The pixel transformation that produced ``output``."""
        return self.solution.transform



class RemoteSession(SessionBase):
    """A server-side stream session driven over one client connection.

    Matches the push-based :class:`~repro.api.session.StreamSession`
    surface: :meth:`submit` takes one frame and returns its
    :class:`~repro.api.types.StreamFrameResult`; sessions are context
    managers and :meth:`close` is idempotent.  The temporal state
    (smoother, scene detector, fast path) lives server-side; per-session
    frame order is the submission order on this connection.

    A lost connection cannot be resumed — session state dies with the
    socket (the server closes it on disconnect), so session requests never
    auto-reconnect: they raise :class:`ConnectionError` instead.
    """

    def submit(self, frame: Image) -> StreamFrameResult:
        """Push one frame through the remote session and return its
        outcome.  Raises
        :class:`~repro.api.session.SessionClosedError` after :meth:`close`
        and :class:`~repro.serve.coalescer.ServerOverloadedError` when the
        session's server-side frame queue is full (honoring ``retry_after``
        when the client retries overloads)."""
        return self._client._call(self._feed(frame))

    def close(self) -> None:
        """Close the remote session (idempotent, best-effort on a dead
        connection — the server also closes it on disconnect)."""
        call = self._close()
        if call is None:
            return
        try:
            self._client._call(call)
        except (ConnectionError, OSError):
            pass    # the disconnect already closed it server-side

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Client(ClientBase):
    """Synchronous client for a :class:`~repro.serve.net.NetworkServer`.

    Parameters
    ----------
    host, port:
        Server address (see also :func:`parse_address` /
        :meth:`Client.at`).
    timeout:
        Socket timeout per send/receive, in seconds.  Bounds how long one
        RPC may take end to end.
    retries:
        How many times a failed attempt is retried — after a connection
        error (with exponential back-off) or an ``overloaded`` error frame
        (honoring the server's ``retry_after`` hint).  ``0`` disables
        retrying.
    backoff, max_backoff:
        Reconnect back-off: attempt ``n`` sleeps at most
        ``min(backoff * 2**n, max_backoff)`` seconds, scaled down by
        ``jitter`` (see :class:`~repro.client.backoff.Backoff`).
    jitter, rng:
        Randomized fraction of each reconnect delay (clients dropped by
        the same restart must not return in lockstep) and an injectable
        random source for deterministic tests.  The server-directed
        ``retry_after`` hint is never jittered.
    retry_overloaded:
        Whether an ``overloaded`` error frame is retried after its
        ``retry_after`` hint (up to ``retries`` attempts) instead of
        raising immediately.
    max_version:
        Newest protocol generation to advertise in the hello
        (:data:`~repro.serve.protocol.PROTOCOL_VERSION` by default; pass
        ``1`` to force the v1 JSON codec).  The server's pick lands on
        :attr:`protocol_version`.
    shm:
        Offer the same-host shared-memory lane
        (:mod:`repro.serve.shm`) during the handshake.  When the server
        proves the same-host claim, ``process``/``feed`` image payloads
        travel by block reference instead of over the socket.  Requires
        a negotiated v2 connection; silently stays on the socket lane
        otherwise (including against a remote or pre-v2 server).  The
        lane carries only lockstep calls made with no pipeline open (its
        one data block must not be overwritten under a request in
        flight); everything else uses the socket.

    Attributes
    ----------
    protocol_version:
        The generation negotiated on the current connection (``None``
        while disconnected).
    bytes_sent, bytes_received:
        Lifetime wire-byte counters across reconnects — the
        bytes-on-wire measurement surface of the network benchmarks.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 timeout: float = 60.0, retries: int = 3,
                 backoff: float = 0.1, max_backoff: float = 2.0,
                 jitter: float = 0.5, rng=None,
                 retry_overloaded: bool = True,
                 max_version: int = protocol.PROTOCOL_VERSION,
                 shm: bool = False) -> None:
        super().__init__(host, port, timeout=timeout, retries=retries,
                         backoff=backoff, max_backoff=max_backoff,
                         jitter=jitter, rng=rng,
                         retry_overloaded=retry_overloaded,
                         max_version=max_version)
        self.bytes_sent = 0
        self.bytes_received = 0
        self._want_shm = bool(shm)
        self._shm: shm_lane.ShmLane | None = None
        self._sock: socket.socket | None = None
        self._pipeline: "ClientPipeline | None" = None

    def _lane_note(self) -> str:
        return " +shm" if self._shm is not None and self._shm.active else ""

    # ------------------------------------------------------------------ #
    # the Engine-facade mirror
    # ------------------------------------------------------------------ #
    def solve(self, source: Image | Histogram, max_distortion: float,
              algorithm: str | None = None) -> CompensationSolution:
        """Histogram-only solve: ship O(histogram) bytes, get back the
        image-independent solution (transformation, backlight factor,
        driver program) to apply locally.  Mirrors
        :meth:`Engine.solve <repro.api.engine.Engine.solve>`."""
        return self._call(core.solve(source, max_distortion, algorithm))

    def compensate(self, image: Image, max_distortion: float,
                   algorithm: str | None = None) -> LocalCompensation:
        """Solve remotely on the image's histogram, apply locally.

        The end-to-end fast path of the paper's Fig. 4 across a network:
        the pixels never leave this process, and for the histogram-driven
        techniques (``hebs``, DLS, ``cbcs``) the locally produced output is
        bit-identical to a server-side :meth:`process <Client.process>` of
        the same image (``hebs-adaptive`` approximates its per-image
        bisection — see :class:`LocalCompensation`).
        """
        grayscale = image.to_grayscale()
        solution = self.solve(Histogram.of_image(grayscale), max_distortion,
                              algorithm=algorithm)
        return LocalCompensation(solution=solution, original=grayscale,
                                 output=solution.transform.apply(grayscale))

    def process(self, image: Image, max_distortion: float,
                algorithm: str | None = None) -> CompensationResult:
        """Full-image request: the server applies the solution and accounts
        distortion and power.  Mirrors
        :meth:`Engine.process <repro.api.engine.Engine.process>`.

        The request is stamped with the content's
        :func:`~repro.serve.protocol.routing_key`, so a cluster router
        places it on the shard whose cache holds its solution without
        decoding the pixels."""
        return self._call(core.process(image, max_distortion, algorithm))

    def open_session(self, max_distortion: float,
                     algorithm: str | None = None,
                     **options: Any) -> RemoteSession:
        """Open a push-based stream session on the server.  ``options``
        are the JSON-representable keyword options of
        :meth:`Engine.open_session <repro.api.engine.Engine.open_session>`
        (``scene_gated_solve=``, ``snap_on_scene_change=``,
        ``stability_bins=``, ...)."""
        session_id = self._call(
            core.open_session(max_distortion, algorithm, options))
        return RemoteSession(self, session_id, float(max_distortion))

    def stats(self) -> ServerStats:
        """The server's live statistics snapshot."""
        return self._call(core.stats())

    def stats_dict(self) -> Mapping[str, Any]:
        """The raw JSON payload of the ``stats`` RPC (the server's
        ``as_dict`` view, latencies in ms)."""
        return self._call(core.stats_dict())

    def pipeline(self) -> "ClientPipeline":
        """Open a batch context with multiple requests in flight.

        Calls on the returned :class:`ClientPipeline` send their frame
        immediately and return a :class:`PendingReply`; the server works
        on all of them concurrently and replies in completion order,
        correlated by request id.  Closing the context drains every
        outstanding reply, so ``.result()`` afterwards never blocks::

            with client.pipeline() as batch:
                first = batch.solve(histogram_a, max_distortion=10.0)
                second = batch.process(image_b, max_distortion=10.0)
            solution = first.result()
            result = second.result()

        Pipelined requests are never retried or reconnected — a lost
        connection fails every outstanding reply.  A lockstep
        :meth:`solve`/:meth:`process`/:meth:`stats`/... call made while
        the pipeline is open joins it and waits for its own reply, under
        the same rules.
        """
        return ClientPipeline(self)

    # ------------------------------------------------------------------ #
    # connection plumbing
    # ------------------------------------------------------------------ #
    @property
    def connected(self) -> bool:
        """Whether a handshaken socket is currently held."""
        return self._sock is not None

    def connect(self) -> None:
        """Connect and handshake now (otherwise done lazily).

        The hello advertises ``[1, max_version]``; the server's pick
        lands on :attr:`protocol_version`.  When ``shm=True`` a probe
        block rides along (see :mod:`repro.serve.shm`) and the lane
        activates only if the server proves the same-host claim.
        """
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        lane: shm_lane.ShmLane | None = None
        try:
            offer = None
            if (self._want_shm and self.max_version >= 2
                    and shm_lane.shm_available()):
                lane = shm_lane.ShmLane()
                offer = lane.offer()
            self._send_bytes(sock, self._hello(offer))
            hello = self._recv_frame(sock)
            version = self._check_hello(hello)
            if lane is not None:
                lane.conclude(version >= 2 and bool(hello.get("shm")))
        except BaseException:
            if lane is not None:
                lane.close()
            sock.close()
            raise
        self._sock = sock
        self._shm = lane
        self.protocol_version = version

    def close(self) -> None:
        """Drop the connection (idempotent); the server closes any
        sessions this connection owned."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        self.protocol_version = None
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "Client":
        self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _call(self, call: Call) -> Any:
        """One lockstep call: a depth-1 pipeline that waits for its reply,
        with nothing else in flight, so it may use the shm lane and is
        retried per :meth:`~repro.client.core.ClientBase._retry_delay`.
        Inside an open pipeline it joins that pipeline instead."""
        if self._pipeline is not None:
            return self._pipeline._submit(call).result()
        attempt = 0
        while True:
            try:
                with ClientPipeline(self, lockstep=True) as batch:
                    return batch._submit(call).result()
            except (ConnectionError, ServerOverloadedError) as exc:
                time.sleep(self._retry_delay(exc, attempt, call.replayable))
            attempt += 1

    def _send_bytes(self, sock: socket.socket, frame: bytes) -> None:
        sock.sendall(frame)
        self.bytes_sent += len(frame)

    def _recv_exactly(self, sock: socket.socket, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining > 0:
            chunk = sock.recv(remaining)
            if not chunk:
                raise ConnectionError("the server closed the connection")
            chunks.append(chunk)
            self.bytes_received += len(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _recv_frame(self, sock: socket.socket) -> dict:
        # decode by sniff: a negotiated-v2 connection carries v2 binary
        # frames, but the hello (and any v1 fallback) is plain JSON
        header = self._recv_exactly(sock, protocol.HEADER_BYTES)
        payload = self._recv_exactly(sock, protocol.frame_length(header))
        return wire2.decode_any(payload)[1]


class PendingReply:
    """Handle to one in-flight request of a :class:`ClientPipeline`.

    :meth:`result` blocks until this request's reply has been read off
    the socket (replies arrive in server completion order, not submission
    order) and either returns the decoded value or raises the typed
    error the server answered with.  After the pipeline context exits,
    every reply has been drained and :meth:`result` returns instantly.
    """

    def __init__(self, batch: "ClientPipeline", request_id: int,
                 call: Call) -> None:
        self._batch = batch
        self.request_id = int(request_id)
        self._call = call
        self._outcome: tuple[str, Any] | None = None

    @property
    def done(self) -> bool:
        """Whether the reply has been received (or failed)."""
        return self._outcome is not None

    def result(self) -> Any:
        """The decoded reply, blocking until it arrives."""
        return self._batch._resolve(self)


class ClientPipeline:
    """A batch of pipelined requests on one :class:`Client` socket.

    Obtained from :meth:`Client.pipeline`.  Every call sends its frame
    immediately — the server (or a cluster router) works on all of them
    concurrently — and returns a :class:`PendingReply` correlated by
    request id.  Replies are read lazily by :meth:`PendingReply.result`
    and drained completely when the context closes.

    Pipelined traffic never retries or reconnects: a lost (or never
    made) connection fails every outstanding reply with
    :class:`ConnectionError`, and so does a reply stream the client can
    no longer frame.  Pipelined image payloads use the socket.

    This is also how :class:`Client` runs its lockstep calls:
    ``lockstep=True`` marks a depth-1 pipeline, which may use the
    shared-memory lane and reports a lost connection as lockstep calls
    do.
    """

    def __init__(self, client: Client, *, lockstep: bool = False) -> None:
        if client._pipeline is not None:
            raise RuntimeError("a pipeline is already open on this client")
        self._client = client
        self._lockstep = lockstep
        self._pending: dict[int, PendingReply] = {}
        self._failure: ConnectionError | None = None
        self._closed = False
        try:
            client.connect()
        except OSError as exc:
            self._fail(exc)
        client._pipeline = self

    # -- request surface ---------------------------------------------- #
    def solve(self, source: Image | Histogram, max_distortion: float,
              algorithm: str | None = None) -> PendingReply:
        """Pipelined :meth:`Client.solve`."""
        return self._submit(core.solve(source, max_distortion, algorithm))

    def process(self, image: Image, max_distortion: float,
                algorithm: str | None = None) -> PendingReply:
        """Pipelined :meth:`Client.process`."""
        return self._submit(core.process(image, max_distortion, algorithm))

    def stats(self) -> PendingReply:
        """Pipelined :meth:`Client.stats`."""
        return self._submit(core.stats())

    # -- plumbing ------------------------------------------------------ #
    def _submit(self, call: Call) -> PendingReply:
        if self._closed:
            raise RuntimeError("this pipeline has been closed")
        if self._failure is not None:
            raise self._failure
        client = self._client
        lane = client._shm if self._lockstep else None
        request_id, frame = client._frame(
            call, lane if lane is not None and lane.active else None)
        try:
            assert client._sock is not None
            client._send_bytes(client._sock, frame)
        except OSError as exc:
            self._fail(exc)
            raise self._failure from exc
        reply = PendingReply(self, request_id, call)
        self._pending[request_id] = reply
        return reply

    def _pump(self) -> None:
        """Read one reply off the socket and settle its pending handle."""
        client = self._client
        try:
            assert client._sock is not None
            response = client._recv_frame(client._sock)
        except (OSError, EOFError, protocol.ProtocolError) as exc:
            # the stream cannot be trusted past this point: start clean
            self._fail(exc)
            return
        request_id = response.get("id")
        if request_id is None and response.get("type") == "error":
            # a connection-level error frame addresses every request
            error = protocol.exception_from_error(response)
            for reply in self._pending.values():
                reply._outcome = ("error", error)
            self._pending.clear()
            return
        reply = self._pending.pop(request_id, None)
        if reply is None:
            return    # a stray frame; ignore and keep draining
        try:
            reply._outcome = ("value", reply._call.reply(response))
        except Exception as exc:   # noqa: BLE001 - surfaced on result()
            reply._outcome = ("error", exc)

    def _fail(self, exc: BaseException) -> None:
        where = f"{self._client.host}:{self._client.port}"
        self._failure = ConnectionError(
            f"lost connection to {where} ({exc})" if self._lockstep
            else f"pipeline connection to {where} lost ({exc})")
        for reply in self._pending.values():
            reply._outcome = ("error", self._failure)
        self._pending.clear()
        self._client.close()

    def _resolve(self, reply: PendingReply) -> Any:
        while reply._outcome is None:
            self._pump()
        kind, value = reply._outcome
        if kind == "error":
            raise value
        return value

    def close(self) -> None:
        """Drain every outstanding reply and release the client back to
        lockstep mode (idempotent).  Errors stay parked on their
        :class:`PendingReply` handles."""
        if self._closed:
            return
        self._closed = True
        try:
            while self._pending:
                self._pump()
        finally:
            self._client._pipeline = None

    def __enter__(self) -> "ClientPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

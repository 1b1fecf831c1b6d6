"""The cluster front door: consistent-hash routing over NetworkServer shards.

:class:`ClusterRouter` is a :class:`~repro.serve.net.FrameServerBase` like
the shard server itself — same handshake, same framing, same one-task-per-
request event loop that only shuttles bytes — but instead of an engine it
holds one multiplexed :class:`ShardLink` per backend
:class:`~repro.serve.net.NetworkServer` and forwards frames:

* **content RPCs route by content**: ``solve`` and ``process`` hash the
  quantized histogram signature (:func:`repro.serve.protocol.routing_key`)
  onto the :class:`~repro.cluster.ring.HashRing`, so identical content
  always lands on the shard whose solution cache is already warm.  These
  RPCs are pure functions of their payload, so on a connection-level
  failure they **fail over** along the ring walk (paced by the client
  SDK's :class:`~repro.client.backoff.Backoff`) — which remaps exactly
  the dead shard's keys and nothing else;
* **sessions pin**: ``open_session`` places a session on the least-loaded
  healthy shard and every ``feed``/``close_session`` for it goes to that
  shard for the session's lifetime.  Stream state (smoother, scene
  detector) cannot move between shards, so a session is *never* silently
  re-routed: if its shard dies, the next ``feed`` surfaces
  :class:`~repro.api.session.SessionClosedError` — the same contract as a
  single server restarting.  Session ids are namespaced with the shard
  index (shards allocate ids independently), and a client disconnect
  closes its sessions on their shards (close-on-disconnect cascades);
* **health is probed**: a periodic ``health`` RPC drives the
  :class:`~repro.cluster.health.ShardHealth` mark-down/mark-up machines;
  an ``overloaded`` reply counts as alive (the shard is shedding load,
  not gone) and live-traffic connection failures mark down immediately;
* **stats aggregate**: the ordinary ``stats`` RPC fans out to every
  reachable shard and answers with
  :func:`~repro.cluster.stats.aggregate_stats` — same shape as a single
  server plus per-shard attribution and the router's ring counters, so
  existing clients and ``repro loadtest --connect`` work unchanged.

**Protocol v2 bytes-through.**  Each shard link negotiates the newest
shared protocol generation.  A binary v2 frame whose routing decision is
readable from its header alone (``solve`` — the histogram rides in the
header; stamped ``process``; ``feed``) crosses the router on the **fast
path**: :func:`repro.serve.wire2.peek` reads the header, the pixels are
never decoded, and :func:`repro.serve.wire2.restamp` rewrites only the
correlation/session ids while the segment bytes are spliced through
verbatim — in both directions.  A v2 frame bound for a v1-only shard is
**transcoded** instead (arrays re-encoded as base64 off the event loop);
v1 frames always take the decoded-dict path.  The
``frames_fast_path`` / ``frames_transcoded`` counters under the ``stats``
``cluster`` key make the split observable.

``repro cluster --shards HOST:PORT,... --port P`` runs one from the
command line.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from repro.api.session import SessionClosedError
from repro.client.backoff import Backoff
from repro.client.sync import parse_address
from repro.cluster.health import ShardHealth
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.cluster.stats import ClusterCounters, aggregate_stats
from repro.serve import protocol, wire2
from repro.serve.coalescer import ServerOverloadedError
from repro.serve.net import ConnectionContext, FrameServerBase

__all__ = ["ClusterRouter", "ShardLink", "DEFAULT_ROUTER_PORT"]

#: Default TCP port of ``repro cluster --port``.
DEFAULT_ROUTER_PORT = 7096


class ShardLink:
    """One multiplexed router-to-shard connection.

    Many concurrent request tasks share the link: each request is
    re-stamped with a link-local correlation id, writes are serialized by
    a lock, and a single reader task resolves the pending futures by id.
    Connection is lazy and reconnects are paced by the shared
    :class:`~repro.client.backoff.Backoff`; a dropped connection fails
    every pending request with :class:`ConnectionError` — the router
    decides per request type whether that means failover (one-shot RPCs)
    or session death (``feed``).

    The handshake advertises ``max_version`` and records the shard's pick
    on :attr:`version`.  :meth:`request` exchanges message dicts;
    :meth:`forward` is the v2 bytes-through path — the raw frame payload
    crosses with only its header restamped, in both directions.
    """

    def __init__(self, address: str, *, timeout: float = 60.0,
                 backoff: Backoff | None = None,
                 max_version: int = protocol.PROTOCOL_VERSION) -> None:
        self.address = str(address)
        self.host, self.port = parse_address(self.address)
        self.timeout = float(timeout)
        self.backoff = backoff if backoff is not None else Backoff(0.05, 1.0)
        self.max_version = int(max_version)
        self.shard_id: str | None = None    # learned from the shard's hello
        self.version: int = protocol.PROTOCOL_V1    # negotiated per connect
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._connect_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()
        self._attempt = 0
        self._closed = False

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self) -> None:
        """Connect and handshake (idempotent; serialized).  Consecutive
        failed attempts are spaced by the back-off schedule."""
        async with self._connect_lock:
            if self._closed:
                raise ConnectionError(
                    f"link to shard {self.address} is closed")
            if self._writer is not None:
                return
            if self._attempt > 0:
                await asyncio.sleep(self.backoff.delay(self._attempt - 1))
                if self._closed:
                    raise ConnectionError(
                        f"link to shard {self.address} is closed")
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.timeout)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._attempt += 1
                raise ConnectionError(
                    f"cannot reach shard {self.address} ({exc})") from exc
            try:
                writer.write(protocol.encode_frame(
                    protocol.hello_frame(max_version=self.max_version)))
                await writer.drain()
                hello = await asyncio.wait_for(
                    self._read_message(reader), self.timeout)
                if hello.get("type") == "error":
                    raise protocol.exception_from_error(hello)
                version = hello.get("version")
                if (hello.get("type") != "hello"
                        or not isinstance(version, int)
                        or not (protocol.PROTOCOL_V1 <= version
                                <= self.max_version)):
                    raise protocol.ProtocolError(
                        f"shard answered the handshake with "
                        f"{hello.get('type')!r} v{version!r}")
            except asyncio.CancelledError:
                writer.close()
                raise
            except Exception as exc:
                writer.close()
                self._attempt += 1
                raise ConnectionError(
                    f"handshake with shard {self.address} failed "
                    f"({exc})") from exc
            self._attempt = 0
            self.shard_id = str(hello.get("shard_id") or self.address)
            self.version = int(version)
            self._reader, self._writer = reader, writer
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader))

    async def request(self, message: dict, *, wire_version: int = 1) -> dict:
        """Send one request dict and await its decoded response.

        The frame's ``id`` is replaced with a link-local correlation id
        (the caller restores the client-facing id on the way back) and
        the message is encoded in ``wire_version``'s codec (v2 accepts
        ndarray leaves).  Any transport problem — including a response
        timeout — surfaces as :class:`ConnectionError`.
        """
        await self.connect()
        link_id = next(self._ids)
        message = dict(message)
        message["id"] = link_id
        payload = await self._exchange(link_id,
                                       wire2.encode_any(message, wire_version))
        return wire2.decode_any(payload)[1]

    async def forward(self, payload: bytes, *,
                      session_id: str | None = None) -> bytes:
        """Forward a raw v2 frame payload and await the raw response.

        Only the header is restamped (link-local id, optionally a
        shard-local session id) — the segment bytes cross verbatim, and
        the shard's reply comes back as raw payload bytes for the caller
        to restamp toward the client.
        """
        await self.connect()
        link_id = next(self._ids)
        stamped = wire2.restamp(payload, link_id, session_id=session_id)
        frame = (len(stamped).to_bytes(protocol.HEADER_BYTES, "big")
                 + stamped)
        return await self._exchange(link_id, frame)

    async def _exchange(self, link_id: int, frame: bytes) -> bytes:
        future = asyncio.get_running_loop().create_future()
        self._pending[link_id] = future
        try:
            async with self._write_lock:
                writer = self._writer
                if writer is None:
                    raise ConnectionError(
                        f"lost connection to shard {self.address}")
                writer.write(frame)
                await writer.drain()
            return await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError as exc:
            raise ConnectionError(
                f"shard {self.address} did not answer within "
                f"{self.timeout}s") from exc
        finally:
            self._pending.pop(link_id, None)

    async def _read_payload(self, reader: asyncio.StreamReader) -> bytes:
        header = await reader.readexactly(protocol.HEADER_BYTES)
        return await reader.readexactly(protocol.frame_length(header))

    async def _read_message(self, reader: asyncio.StreamReader) -> dict:
        return wire2.decode_any(await self._read_payload(reader))[1]

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                payload = await self._read_payload(reader)
                # correlation needs only the id: O(header) for v2 frames,
                # and the raw payload is what resolves the future — the
                # fast path never materializes the segments here
                if wire2.is_v2_payload(payload):
                    frame_id = wire2.peek(payload).get("id")
                else:
                    frame_id = protocol.decode_frame(payload).get("id")
                future = self._pending.pop(frame_id, None)
                if future is not None and not future.done():
                    future.set_result(payload)
                # an unknown id is a response whose request already timed
                # out (and was failed over) — drop it
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                protocol.ProtocolError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._drop(ConnectionError(
                f"lost connection to shard {self.address}"))

    def _drop(self, error: ConnectionError) -> None:
        """Tear down the current connection, failing every pending request."""
        writer, self._reader, self._writer = self._writer, None, None
        self._reader_task = None
        if writer is not None:
            writer.close()
        pending, self._pending = dict(self._pending), {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def close(self) -> None:
        """Close the link for good (pending requests fail)."""
        self._closed = True
        task = self._reader_task
        self._drop(ConnectionError(f"link to shard {self.address} closed"))
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task


class _Connection:
    """Router-side per-client-connection state: the sessions it owns,
    mapping the public (namespaced) session id to the owning link and the
    shard-local session id."""

    __slots__ = ("sessions",)

    def __init__(self) -> None:
        self.sessions: dict[str, tuple[ShardLink, str]] = {}


class ClusterRouter(FrameServerBase):
    """Route protocol requests across ``NetworkServer`` shards by content.

    Parameters
    ----------
    shards:
        Static membership: the backend ``"host:port"`` addresses.
    host, port:
        Bind address of the router itself (``port=0`` picks a free one).
    replicas:
        Virtual nodes per shard on the hash ring.
    health_interval, health_timeout:
        Cadence and per-probe timeout of the periodic ``health`` RPC.
    markdown_after:
        Consecutive probe failures before a shard is marked down (live
        traffic connection failures mark down immediately).
    request_timeout:
        Bound on one forwarded request, shard-side.
    backoff:
        Pacing of shard reconnects and failover hops; the client SDK's
        jittered schedule (:class:`~repro.client.backoff.Backoff`) with
        fast defaults when omitted.
    key_workers:
        Threads deriving routing keys for un-stamped ``process`` requests
        and transcoding v2 frames for v1 shards (pixel work stays off the
        event loop).
    shard_max_version:
        Newest protocol generation the shard links advertise
        (:data:`~repro.serve.protocol.PROTOCOL_VERSION` by default; pin
        to ``1`` to force the v1 JSON lane toward every shard — the knob
        the cross-version tests and a staged rollout use).
    """

    _thread_name = "repro-cluster-router"

    def __init__(self, shards, *, host: str = "127.0.0.1", port: int = 0,
                 replicas: int = DEFAULT_REPLICAS,
                 health_interval: float = 1.0, health_timeout: float = 5.0,
                 markdown_after: int = 2, request_timeout: float = 60.0,
                 backoff: Backoff | None = None,
                 key_workers: int = 2,
                 shard_max_version: int = protocol.PROTOCOL_VERSION) -> None:
        super().__init__(host=host, port=port)
        addresses = [str(shard).strip() for shard in shards
                     if str(shard).strip()]
        if not addresses:
            raise ValueError("a cluster needs at least one shard address")
        if len(set(addresses)) != len(addresses):
            raise ValueError(f"duplicate shard addresses in {addresses!r}")
        self.shards: tuple[str, ...] = tuple(addresses)
        self.ring = HashRing(addresses, replicas=replicas)
        self.health = {address: ShardHealth(address,
                                            markdown_after=markdown_after)
                       for address in addresses}
        self.counters = ClusterCounters()
        self.health_interval = float(health_interval)
        self.health_timeout = float(health_timeout)
        self.request_timeout = float(request_timeout)
        self.shard_max_version = int(shard_max_version)
        self._backoff = backoff if backoff is not None else Backoff(0.05, 0.5)
        self._links: dict[str, ShardLink] = {}
        self._monitor_task: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=int(key_workers),
            thread_name_prefix="repro-router-key")
        self._index = {address: index
                       for index, address in enumerate(addresses)}
        self._session_load: Counter[str] = Counter()

    @property
    def router_id(self) -> str:
        """Identity the router advertises in its own hello/health frames."""
        bound = self._bound
        if bound is not None:
            return f"router@{bound[0]}:{bound[1]}"
        return "router"

    # ------------------------------------------------------------------ #
    # lifecycle hooks
    # ------------------------------------------------------------------ #
    async def _on_serve_start(self) -> None:
        self._links = {
            address: ShardLink(address, timeout=self.request_timeout,
                               backoff=self._backoff,
                               max_version=self.shard_max_version)
            for address in self.shards
        }
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor())

    async def _on_serve_stop(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
            self._monitor_task = None
        for link in self._links.values():
            await link.close()

    def _on_close(self, wait: bool) -> None:
        self._executor.shutdown(wait=wait)

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #
    async def _monitor(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            with contextlib.suppress(Exception):
                await self.probe()

    async def probe(self) -> dict[str, bool]:
        """One probe round over every shard; returns address → up."""
        results = await asyncio.gather(
            *(self._probe_one(address) for address in self.shards))
        return dict(zip(self.shards, results))

    async def _probe_one(self, address: str) -> bool:
        link = self._links[address]
        health = self.health[address]
        try:
            response = await asyncio.wait_for(
                link.request(protocol.health_request(0)),
                self.health_timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            health.note_failure()
            return health.up
        if response.get("type") == "error":
            error = protocol.exception_from_error(response)
            if not isinstance(error, ServerOverloadedError):
                health.note_failure()
                return health.up
            # overloaded is proof of life: the shard answers and sheds
            # load; keeping it in the ring preserves its cache affinity
        health.note_success()
        return True

    def probe_now(self, timeout: float = 10.0) -> dict[str, bool]:
        """Thread-safe blocking probe round (tests and tools; the serving
        loop runs its own periodic probe)."""
        loop = self._loop
        if loop is None:
            raise RuntimeError("the router is not serving")
        future = asyncio.run_coroutine_threadsafe(self.probe(), loop)
        return future.result(timeout)

    def shards_up(self) -> tuple[str, ...]:
        """Addresses currently marked up."""
        return tuple(address for address in self.shards
                     if self.health[address].up)

    # ------------------------------------------------------------------ #
    # connection hooks
    # ------------------------------------------------------------------ #
    def _hello_response(self, conn: ConnectionContext, hello: dict) -> dict:
        # a router never accepts a shared-memory offer (it is not the
        # process that reads the pixels): no ``shm`` echo in the reply,
        # so the client's lane concludes refused and stays on the socket
        return protocol.hello_frame(version=conn.version,
                                    shard_id=self.router_id)

    def _new_connection(self) -> _Connection:
        return _Connection()

    async def _on_disconnect(self, conn: ConnectionContext) -> None:
        # close-on-disconnect cascades: the client is gone, so its
        # sessions are closed on their owning shards (best effort — a
        # dead shard already closed them on its own disconnect)
        record: _Connection = conn.state
        sessions, record.sessions = dict(record.sessions), {}
        closes = []
        for public_id, (link, shard_session) in sessions.items():
            self._session_load[link.address] -= 1
            closes.append(link.request(
                protocol.close_session_request(0, shard_session)))
        if closes:
            await asyncio.gather(*closes, return_exceptions=True)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def _respond_payload(self, payload: bytes, conn: ConnectionContext,
                               version: int) -> dict | bytes:
        """Route a v2 frame from its header alone when possible.

        ``solve`` (histogram in the header), stamped ``process`` and
        ``feed`` frames take the bytes-through fast path: the segments
        are never decoded router-side.  Everything else — v1 frames,
        un-stamped ``process``, session bookkeeping, ``stats`` — falls
        through to the decoded-dict path of :meth:`_respond`.
        """
        if version == 2:
            header = wire2.peek(payload)
            kind = header.get("type")
            if kind == "solve":
                histogram = protocol.histogram_from_wire(
                    header["histogram"])
                key = protocol.routing_key(histogram)
                return await self._forward_keyed(
                    key, header.get("id"),
                    lambda link: self._send_raw(link, payload))
            if kind == "process" and header.get("routing") is not None:
                key = self._routing_key_from(header["routing"])
                return await self._forward_keyed(
                    key, header.get("id"),
                    lambda link: self._send_raw(link, payload))
            if kind == "feed":
                return await self._feed_raw(payload, header, conn.state)
        return await super()._respond_payload(payload, conn, version)

    async def _respond(self, message: dict, conn: ConnectionContext,
                       version: int) -> dict:
        kind = message.get("type")
        request_id = message.get("id")
        record: _Connection = conn.state

        if kind == "solve":
            histogram = protocol.histogram_from_wire(message["histogram"])
            key = protocol.routing_key(histogram)
            return await self._forward_keyed(
                key, request_id,
                lambda link: self._send_dict(link, message, version))

        if kind == "process":
            key = await self._process_key(message)
            return await self._forward_keyed(
                key, request_id,
                lambda link: self._send_dict(link, message, version))

        if kind == "open_session":
            return await self._open_session(message, record)

        if kind == "feed":
            return await self._feed(message, record, version)

        if kind == "close_session":
            return await self._close_session(message, record)

        if kind == "stats":
            return await self._stats(request_id)

        if kind == "health":
            return protocol.health_response(
                request_id, shard_id=self.router_id,
                sessions_open=sum(self._session_load.values()),
                queue_depth=0)

        raise protocol.ProtocolError(f"unknown request type {kind!r}")

    @staticmethod
    def _routing_key_from(stamped) -> bytes:
        try:
            return bytes.fromhex(str(stamped))
        except ValueError as exc:
            raise protocol.ProtocolError(
                f"malformed routing key {stamped!r}") from exc

    async def _process_key(self, message: dict) -> bytes:
        stamped = message.get("routing")
        if stamped is not None:
            return self._routing_key_from(stamped)
        # un-stamped client: derive the key from the pixels, off the loop
        image = protocol.image_from_wire(message["image"])
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, functools.partial(protocol.routing_key, image))

    # -- downstream senders -------------------------------------------- #
    async def _downgrade_message(self, message: dict) -> dict:
        """v2 → v1 transcode (base64 re-encoding runs off the loop)."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, wire2.downgrade_message, message)

    async def _send_raw(self, link: ShardLink, payload: bytes,
                        session_id: str | None = None) -> bytes | dict:
        """Forward a v2 payload: bytes-through to a v2 shard, transcoded
        to a v1 one."""
        await link.connect()
        if link.version >= 2:
            response = await link.forward(payload, session_id=session_id)
            self.counters.frames_fast_path += 1
            return response
        message = wire2.decode_message(payload)
        if session_id is not None:
            message["session_id"] = str(session_id)
        response = await link.request(await self._downgrade_message(message))
        self.counters.frames_transcoded += 1
        return response

    async def _send_dict(self, link: ShardLink, message: dict,
                         version: int) -> dict:
        """Forward a decoded message dict in the best shared codec."""
        await link.connect()
        if version >= 2 and link.version < 2:
            response = await link.request(
                await self._downgrade_message(message))
            self.counters.frames_transcoded += 1
            return response
        return await link.request(message,
                                  wire_version=min(version, link.version))

    def _restore_id(self, response: dict | bytes, request_id) -> dict | bytes:
        """Restore the client-facing correlation id on a shard response —
        an O(header) restamp for raw v2 payloads, a dict update otherwise."""
        if isinstance(response, (bytes, bytearray, memoryview)):
            response = bytes(response)
            if wire2.is_v2_payload(response):
                return wire2.restamp(response, request_id)
            response = protocol.decode_frame(response)
        response = dict(response)
        response["id"] = request_id
        return response

    async def _forward_keyed(self, key: bytes, request_id,
                             send) -> dict | bytes:
        """Forward a content-keyed one-shot RPC to the key's shard, failing
        over along the ring walk.

        ``send(link)`` performs the actual downstream exchange (dict or
        bytes-through).  ``solve``/``process`` are pure functions of their
        payload, so replaying one on the next shard is always safe —
        unlike session traffic, which never fails over (see :meth:`_feed`).
        """
        last_error: ConnectionError | None = None
        hops = 0
        for address in self.ring.preference(key):
            health = self.health[address]
            if not health.up:
                continue
            if hops > 0:
                self.counters.failovers += 1
                await asyncio.sleep(self._backoff.delay(hops - 1))
            hops += 1
            link = self._links[address]
            try:
                response = await send(link)
            except ConnectionError as exc:
                health.note_failure(hard=True)
                last_error = exc
                continue
            health.note_success()
            self.counters.routed[address] += 1
            return self._restore_id(response, request_id)
        detail = f"; last error: {last_error}" if last_error else ""
        raise ServerOverloadedError(
            f"no shard reachable for this request "
            f"({len(self.shards)} configured, "
            f"{len(self.shards_up())} marked up{detail})",
            retry_after_seconds=max(self.health_interval,
                                    protocol.DEFAULT_RETRY_AFTER))

    def _session_candidates(self) -> list[str]:
        up = [address for address in self.shards if self.health[address].up]
        up.sort(key=lambda address: (self._session_load[address],
                                     self._index[address]))
        return up

    async def _open_session(self, message: dict, record: _Connection) -> dict:
        request_id = message.get("id")
        last_error: ConnectionError | None = None
        for address in self._session_candidates():
            link = self._links[address]
            health = self.health[address]
            try:
                response = await link.request(message)
            except ConnectionError as exc:
                health.note_failure(hard=True)
                last_error = exc
                continue
            health.note_success()
            if response.get("type") == "error":
                response = dict(response)
                response["id"] = request_id
                return response
            shard_session = str(response["session_id"])
            # shards allocate ids independently, so the public id is
            # namespaced by the shard's ring index
            public_id = f"{self._index[address]}:{shard_session}"
            record.sessions[public_id] = (link, shard_session)
            self._session_load[address] += 1
            self.counters.sessions_routed[address] += 1
            return protocol.session_response(request_id, public_id)
        detail = f"; last error: {last_error}" if last_error else ""
        raise ServerOverloadedError(
            f"no shard reachable to host the session{detail}",
            retry_after_seconds=max(self.health_interval,
                                    protocol.DEFAULT_RETRY_AFTER))

    def _drop_session(self, record: _Connection, public_id: str) -> None:
        entry = record.sessions.pop(public_id, None)
        if entry is not None:
            self._session_load[entry[0].address] -= 1

    def _session_entry(self, record: _Connection,
                       public_id: str) -> tuple[ShardLink, str]:
        entry = record.sessions.get(public_id)
        if entry is None:
            raise SessionClosedError(
                f"unknown session {public_id!r} on this connection")
        link, shard_session = entry
        # stream state cannot move between shards, so a session is never
        # re-routed: a dead owning shard means the session is dead
        if not self.health[link.address].up:
            self._drop_session(record, public_id)
            raise SessionClosedError(
                f"session {public_id} died with shard {link.address}")
        return link, shard_session

    async def _feed_exchange(self, record: _Connection, public_id: str,
                             link: ShardLink, send):
        try:
            response = await send()
        except ConnectionError as exc:
            self.health[link.address].note_failure(hard=True)
            self._drop_session(record, public_id)
            raise SessionClosedError(
                f"session {public_id} died with shard {link.address} "
                f"({exc})") from exc
        self.health[link.address].note_success()
        return response

    async def _feed(self, message: dict, record: _Connection,
                    version: int) -> dict:
        request_id = message.get("id")
        public_id = str(message.get("session_id"))
        link, shard_session = self._session_entry(record, public_id)
        forward = dict(message)
        forward["session_id"] = shard_session

        async def send():
            await link.connect()
            if version >= 2 and link.version < 2:
                response = await link.request(
                    await self._downgrade_message(forward))
                self.counters.frames_transcoded += 1
                return response
            return await link.request(
                forward, wire_version=min(version, link.version))

        response = await self._feed_exchange(record, public_id, link, send)
        return self._restore_id(response, request_id)

    async def _feed_raw(self, payload: bytes, header: dict,
                        record: _Connection) -> dict | bytes:
        request_id = header.get("id")
        public_id = str(header.get("session_id"))
        link, shard_session = self._session_entry(record, public_id)
        response = await self._feed_exchange(
            record, public_id, link,
            lambda: self._send_raw(link, payload, session_id=shard_session))
        return self._restore_id(response, request_id)

    async def _close_session(self, message: dict,
                             record: _Connection) -> dict:
        request_id = message.get("id")
        public_id = str(message.get("session_id"))
        entry = record.sessions.pop(public_id, None)
        if entry is not None:
            link, shard_session = entry
            self._session_load[link.address] -= 1
            forward = dict(message)
            forward["session_id"] = shard_session
            with contextlib.suppress(ConnectionError, OSError):
                await link.request(forward)
        # closing is idempotent: an unknown or already-dead session
        # closes cleanly, exactly like on a single server
        return protocol.session_closed_response(request_id, public_id)

    async def _stats(self, request_id) -> dict:
        async def fetch(address: str):
            link = self._links[address]
            try:
                response = await link.request(protocol.stats_request(0))
            except ConnectionError:
                self.health[address].note_failure(hard=True)
                return None
            if response.get("type") != "stats":
                return None
            self.health[address].note_success()
            payload = dict(response["stats"])
            if payload.get("shard_id") is None:
                payload["shard_id"] = link.shard_id or address
            return payload

        fetched = await asyncio.gather(
            *(fetch(address) for address in self.shards))
        shards = {}
        for address, payload in zip(self.shards, fetched):
            if payload is not None:
                shards[str(payload.get("shard_id") or address)] = payload
        payload = aggregate_stats(shards, cluster=self.cluster_info())
        return protocol.stats_response(request_id, payload)

    def cluster_info(self) -> dict:
        """The router's own counters, as they appear under the ``cluster``
        key of the aggregated stats payload."""
        info = {
            "router_id": self.router_id,
            "shards_configured": len(self.shards),
            "shards_up": len(self.shards_up()),
            "shards_down": [address for address in self.shards
                            if not self.health[address].up],
            "ring_replicas": self.ring.replicas,
            "sessions_open": sum(self._session_load.values()),
            "markdowns": sum(health.markdowns
                             for health in self.health.values()),
            "markups": sum(health.markups
                           for health in self.health.values()),
        }
        info.update(self.counters.as_dict())
        return info

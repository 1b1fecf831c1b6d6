"""The sans-IO core every client request path runs on.

One table describes each RPC the SDK speaks — how to build its request
for the negotiated codec, which reply type answers it, and how to decode
that reply — and :class:`ClientBase` holds the rest of the per-request
policy both clients share: the connection settings, the hello check, the
codec pick (:func:`repro.serve.wire2.encode_any`) and the retry pacing.
Nothing here reads or writes a socket; :class:`~repro.client.sync.Client`
(whose lockstep calls are depth-1 pipelines),
:class:`~repro.client.sync.ClientPipeline` and
:class:`~repro.client.aio.AsyncClient` only move the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.session import SessionClosedError
from repro.client.backoff import Backoff
from repro.core.histogram import Histogram
from repro.imaging.image import Image
from repro.serve import protocol, wire2
from repro.serve.coalescer import ServerOverloadedError
from repro.serve.net import DEFAULT_PORT
from repro.serve.shm import ShmLane

__all__ = ["Call", "ClientBase", "SessionBase", "parse_address",
           "original_for", "solve", "process", "open_session", "feed",
           "close_session", "stats", "stats_dict"]


def parse_address(address: str, default_port: int = DEFAULT_PORT,
                  ) -> tuple[str, int]:
    """Split ``"host:port"`` (or bare ``"host"``) into ``(host, port)``.

    IPv6 literals use the usual bracket form when they carry a port
    (``"[::1]:7095"``); a bare multi-colon literal (``"::1"``) is taken as
    a host with the default port.
    """
    text = address.strip()
    if not text:
        raise ValueError("address must not be empty")
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or not host:
            raise ValueError(f"unclosed IPv6 bracket in address {address!r}")
        if not rest:
            return host, default_port
        if not rest.startswith(":"):
            raise ValueError(f"malformed address {address!r}")
        return host, _parse_port(rest[1:], address)
    if text.count(":") == 1:
        host, _, port_text = text.partition(":")
        return host or "127.0.0.1", _parse_port(port_text, address)
    # zero colons: bare hostname; several: a bare IPv6 literal, no port
    return text, default_port


def _parse_port(port_text: str, address: str) -> int:
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in address {address!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in address {address!r}")
    return port


# --------------------------------------------------------------------- #
# the RPC table
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Call:
    """One RPC, described but not sent.

    ``build(request_id, binary, lane)`` returns the request message for a
    fresh id, the negotiated codec (``binary`` on v2) and the active
    shared-memory lane the caller may use for image payloads (``None``
    for the socket).  ``expected`` is the reply type that answers it and
    ``decode`` turns that reply into the caller's value.  Only
    ``replayable`` calls are re-sent on a new connection after a lost
    one: session traffic is not, because its state died with the socket.
    """

    build: Callable[[int, bool, "ShmLane | None"], dict]
    expected: str
    decode: Callable[[dict], Any]
    replayable: bool = True

    def reply(self, response: Mapping[str, Any]) -> Any:
        """Decode ``response``, or raise the typed error it carries."""
        kind = response.get("type")
        if kind == "error":
            raise protocol.exception_from_error(response)
        if kind != self.expected:
            raise protocol.ProtocolError(
                f"expected a {self.expected!r} response, got {kind!r}")
        return self.decode(response)


def original_for(wire: Mapping[str, Any], image: Image) -> Image | None:
    """The ``original`` to decode a result with.  A v2 reply omits it —
    it is the grayscale rendition of the request image, rebuilt here
    bit-exactly; a v1 reply carries it (``None``: decode that one)."""
    return None if "original" in wire else image.to_grayscale()


def solve(source: Image | Histogram, max_distortion: float,
          algorithm: str | None = None) -> Call:
    return Call(
        lambda rid, binary, lane: protocol.solve_request(
            rid, source, max_distortion, algorithm=algorithm),
        "solution",
        lambda response: protocol.solution_from_wire(response["solution"]))


def process(image: Image, max_distortion: float,
            algorithm: str | None = None) -> Call:
    routing = protocol.routing_key(image)

    def build(rid: int, binary: bool, lane: ShmLane | None) -> dict:
        return protocol.process_request(
            rid, image, max_distortion, algorithm=algorithm,
            routing=routing, binary=binary,
            shm=None if lane is None else lane.send_image(image))

    def decode(response: dict):
        wire = response["result"]
        return protocol.result_from_wire(wire,
                                         original=original_for(wire, image))
    return Call(build, "result", decode)


def open_session(max_distortion: float, algorithm: str | None,
                 options: Mapping[str, Any]) -> Call:
    """Decodes to the server-assigned session id."""
    return Call(
        lambda rid, binary, lane: protocol.open_session_request(
            rid, max_distortion, algorithm=algorithm, options=options),
        "session",
        lambda response: str(response["session_id"]))


def feed(session_id: str, frame: Image) -> Call:
    def build(rid: int, binary: bool, lane: ShmLane | None) -> dict:
        return protocol.feed_request(
            rid, session_id, frame, binary=binary,
            shm=None if lane is None else lane.send_image(frame))

    def decode(response: dict):
        wire = response["outcome"]
        return protocol.stream_frame_from_wire(
            wire, original=original_for(wire.get("result", {}), frame))
    return Call(build, "frame", decode, replayable=False)


def close_session(session_id: str) -> Call:
    return Call(
        lambda rid, binary, lane: protocol.close_session_request(
            rid, session_id),
        "session_closed", lambda response: None, replayable=False)


def stats() -> Call:
    return Call(lambda rid, binary, lane: protocol.stats_request(rid),
                "stats",
                lambda response: protocol.server_stats_from_wire(
                    response["stats"]))


def stats_dict() -> Call:
    return Call(lambda rid, binary, lane: protocol.stats_request(rid),
                "stats", lambda response: response["stats"])


class SessionBase:
    """State both remote-session flavours share: the server-assigned id,
    the budget, and the closed flag that gates the session's calls."""

    def __init__(self, client: "ClientBase", session_id: str,
                 max_distortion: float) -> None:
        self._client = client
        self._id = session_id
        self._max_distortion = float(max_distortion)
        self._closed = False

    @property
    def id(self) -> str:
        """The server-assigned session identifier (the stats key)."""
        return self._id

    @property
    def max_distortion(self) -> float:
        return self._max_distortion

    @property
    def closed(self) -> bool:
        return self._closed

    def _feed(self, frame: Image) -> Call:
        if self._closed:
            raise SessionClosedError(
                f"remote session {self._id} has been closed")
        return feed(self._id, frame)

    def _close(self) -> Call | None:
        """The close call, or ``None`` when already closed (idempotent)."""
        if self._closed:
            return None
        self._closed = True
        return close_session(self._id)


# --------------------------------------------------------------------- #
# settings and policy shared by both clients
# --------------------------------------------------------------------- #
class ClientBase:
    """Connection settings and the policy that reads them, common to
    :class:`~repro.client.sync.Client` and
    :class:`~repro.client.aio.AsyncClient` (see :class:`Client
    <repro.client.sync.Client>` for the parameters)."""

    def __init__(self, host: str, port: int, *, timeout: float,
                 retries: int, backoff: float, max_backoff: float,
                 jitter: float, rng, retry_overloaded: bool,
                 max_version: int) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if not protocol.PROTOCOL_V1 <= int(max_version) <= protocol.PROTOCOL_VERSION:
            raise ValueError(
                f"max_version must be within [{protocol.PROTOCOL_V1}, "
                f"{protocol.PROTOCOL_VERSION}], got {max_version}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self.retry_overloaded = bool(retry_overloaded)
        self.max_version = int(max_version)
        self.protocol_version: int | None = None
        self._backoff = Backoff(backoff, max_backoff, jitter=jitter, rng=rng)
        self._next_id = 0

    def __repr__(self) -> str:
        state = ("disconnected" if self.protocol_version is None
                 else f"protocol v{self.protocol_version}{self._lane_note()}")
        return f"{type(self).__name__}({self.host}:{self.port}, {state})"

    def _lane_note(self) -> str:
        return ""

    @classmethod
    def at(cls, address: str, **options):
        """Build a client from a ``"host:port"`` string."""
        host, port = parse_address(address)
        return cls(host=host, port=port, **options)

    def _hello(self, shm: Any = None) -> bytes:
        """The hello frame: advertises ``[1, max_version]`` (and the shm
        probe, when offered).  It always travels as v1 JSON."""
        return protocol.encode_frame(
            protocol.hello_frame(max_version=self.max_version, shm=shm))

    def _check_hello(self, hello: Mapping[str, Any]) -> int:
        """The generation the server picked, or the handshake's error."""
        if hello.get("type") == "error":
            raise protocol.exception_from_error(hello)
        version = hello.get("version")
        if (hello.get("type") != "hello" or not isinstance(version, int)
                or not protocol.PROTOCOL_V1 <= version <= self.max_version):
            raise protocol.ProtocolError(
                f"server answered the handshake with "
                f"{hello.get('type')!r} v{version!r}")
        return version

    def _frame(self, call: Call,
               lane: ShmLane | None = None) -> tuple[int, bytes]:
        """A fresh request id and ``call``'s request, encoded in the
        negotiated codec."""
        self._next_id += 1
        version = self.protocol_version or protocol.PROTOCOL_V1
        message = call.build(self._next_id, version >= 2, lane)
        return self._next_id, wire2.encode_any(message, version)

    def _retry_delay(self, error: Exception, attempt: int,
                     replayable: bool) -> float:
        """Seconds to wait before retry ``attempt`` (0-based) of a call
        that failed with ``error``; raises ``error`` to give up.

        A lost connection (:class:`ConnectionError`) is retried with
        jittered exponential back-off, for replayable calls only.  An
        ``overloaded`` error frame is retried after the server's
        ``retry_after`` hint — never jittered, capped at ``max_backoff``
        — when ``retry_overloaded`` is set.  Both count against
        ``retries``.
        """
        if attempt < self.retries:
            if isinstance(error, ServerOverloadedError):
                if self.retry_overloaded:
                    delay = error.retry_after_seconds
                    return min(self.backoff if delay is None else delay,
                               self.max_backoff)
            elif isinstance(error, ConnectionError) and replayable:
                return self._backoff.delay(attempt)
        raise error

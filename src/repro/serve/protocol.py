"""Wire codec and protocol of the network serving API.

The paper's central decomposition (Fig. 4) — solve once per *histogram*,
replay a cheap per-pixel LUT — means a backlight-scaling service never needs
to see pixels: a client ships a 256-bin histogram plus a distortion budget
and gets back a :class:`~repro.api.types.CompensationSolution` to apply
locally.  This module defines everything both ends of that conversation
share:

**Framing.**  A frame is a 4-byte big-endian length prefix followed by a
UTF-8 JSON object.  :func:`encode_frame` builds one; :func:`frame_length`
validates a received header (bounded by :data:`MAX_FRAME_BYTES`) and
:func:`decode_frame` parses a received payload.  Binary payloads (pixel
arrays, driver voltages) travel as base64 inside the JSON, so a frame is
always one self-describing JSON document.

**Codec.**  ``*_to_wire`` / ``*_from_wire`` pairs for every value the
service exchanges: histograms, images, every built-in
:class:`~repro.core.transforms.PixelTransform` (exact field round-trip;
unknown third-party transforms degrade to their per-level LUT),
driver programs, power breakdowns, :class:`CompensationSolution`,
:class:`~repro.api.types.CompensationResult`,
:class:`~repro.api.types.StreamFrameResult` and
:class:`~repro.serve.stats.ServerStats`.  Round-trips are **bit-exact**:
integer arrays travel as raw bytes, floats survive via JSON's shortest
round-trip ``repr``, so a decoded transform applies to an image with the
exact same output pixels as the original.

**Messages.**  Version negotiation (``hello`` both ways; a client opens
with its baseline ``version`` — always :data:`PROTOCOL_V1`, so pre-v2
servers keep accepting it — plus an optional ``max_version`` advertising
the newest generation it speaks, and the server answers with the highest
version both sides share, :func:`negotiated_version`; a server that is
part of a cluster identifies itself with a ``shard_id``), the request types ``solve`` (histogram-only,
the paper-native fast path), ``process`` (full image), ``open_session`` /
``feed`` / ``close_session`` (the push-based stream surface), ``stats``
and ``health`` (the cheap liveness probe of the cluster router),
with one response type each and a typed ``error`` frame.
:func:`error_response` maps
:class:`~repro.serve.coalescer.ServerOverloadedError` (with its structured
``queue_depth`` / ``retry_after_seconds`` hints),
:class:`~repro.serve.coalescer.ServerClosedError` and
:class:`~repro.api.session.SessionClosedError` onto protocol error codes,
and :func:`exception_from_error` rebuilds the same typed exception on the
client — so backpressure semantics survive the network hop instead of
degenerating into a dropped connection.

**Routing.**  :func:`routing_key` is the cluster routing key of a piece of
content: the quantized grayscale-histogram signature of
:func:`repro.api.cache.histogram_signature` — the same bytes the engine's
solution cache is keyed on.  A ``process`` request may carry it pre-stamped
(the ``routing`` field) so a router never has to decode pixels to place the
request on the shard whose cache already holds its solution.

**Protocol v2.**  This module is the *message* codec; frames carrying the
same messages can travel in two payload formats, negotiated per
connection: the v1 JSON format defined here (arrays as base64 mappings —
byte-for-byte unchanged since v1) and the v2 binary format of
:mod:`repro.serve.wire2` (arrays as raw zero-copy segments).  Every
``*_from_wire`` decoder accepts either leaf form — a base64 mapping or a
decoded ``np.ndarray`` — so the layers above never care which codec a
frame arrived in.  ``*_to_wire`` encoders take ``binary=True`` to emit
ndarray leaves for wire2 to lift into segments (images additionally pack
to ``uint8`` when the bit depth allows, halving pixel bytes).

:mod:`repro.serve.net` is the asyncio server speaking this protocol;
:mod:`repro.client` is the SDK; :mod:`repro.cluster` is the
consistent-hash router in front of many servers.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Mapping

import numpy as np

from repro.api.session import SessionClosedError
from repro.api.types import (
    CompensationResult,
    CompensationSolution,
    StreamFrameResult,
)
from repro.api.cache import CacheStats, histogram_signature
from repro.core.histogram import Histogram
from repro.core.transforms import (
    GrayscaleShiftTransform,
    GrayscaleSpreadTransform,
    IdentityTransform,
    LUTTransform,
    PiecewiseLinearTransform,
    PixelTransform,
    SingleBandSpreadTransform,
)
from repro.display.driver import DriverProgram
from repro.display.power import PowerBreakdown
from repro.imaging.image import Image
from repro.serve.coalescer import ServerClosedError, ServerOverloadedError
from repro.serve.stats import ServerStats, SessionFrameStats

__all__ = [
    "PROTOCOL_VERSION",
    "PROTOCOL_V1",
    "negotiated_version",
    "MAX_FRAME_BYTES",
    "MAX_HISTOGRAM_PIXELS",
    "HEADER_BYTES",
    "DEFAULT_RETRY_AFTER",
    "ProtocolError",
    "encode_frame",
    "frame_length",
    "decode_frame",
    "hello_frame",
    "solve_request",
    "process_request",
    "open_session_request",
    "feed_request",
    "close_session_request",
    "stats_request",
    "health_request",
    "health_response",
    "routing_key",
    "solution_response",
    "result_response",
    "session_response",
    "frame_response",
    "session_closed_response",
    "stats_response",
    "error_response",
    "exception_from_error",
    "array_to_wire",
    "array_from_wire",
    "check_descriptor",
    "histogram_to_wire",
    "histogram_from_wire",
    "image_to_wire",
    "image_from_wire",
    "transform_to_wire",
    "transform_from_wire",
    "driver_program_to_wire",
    "driver_program_from_wire",
    "solution_to_wire",
    "solution_from_wire",
    "result_to_wire",
    "result_from_wire",
    "stream_frame_to_wire",
    "stream_frame_from_wire",
    "server_stats_from_wire",
]

#: Newest protocol generation spoken by this build.  Both ends open with
#: a ``hello`` frame; the server answers with the highest generation both
#: sides share (:func:`negotiated_version`) and refuses a client it
#: cannot speak to with an ``unsupported_version`` error frame.
PROTOCOL_VERSION = 2

#: The original JSON protocol generation — the baseline every peer
#: speaks, and the ``version`` value a client's hello always carries
#: (pre-v2 servers reject any other; newer generations ride in the
#: separate ``max_version`` key those servers ignore).
PROTOCOL_V1 = 1

#: Frame header size: one big-endian unsigned 32-bit payload length.
HEADER_BYTES = 4

#: Upper bound on one frame's JSON payload.  Generous for any realistic
#: image (a 1024x1024 16-bit frame is ~2.7 MiB base64) while refusing a
#: corrupt or hostile length prefix before allocating for it.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Retry hint (seconds) put on ``overloaded`` error frames when the raising
#: component did not estimate one itself.
DEFAULT_RETRY_AFTER = 0.05

#: Upper bound on the total pixel mass of a wire histogram (2**28 ≈ a
#: 16k x 16k frame).  The counts are the real amplification vector — a
#: ~50-byte ``solve`` frame could otherwise claim terabytes of pixels and
#: make the server's histogram realization allocate them — so the codec
#: refuses them at decode time, long before ``Histogram.to_image``.
MAX_HISTOGRAM_PIXELS = 1 << 28


class ProtocolError(RuntimeError):
    """A malformed, oversized or version-incompatible protocol frame."""


# --------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------- #
def encode_frame(message: Mapping[str, Any]) -> bytes:
    """Serialize one message into a length-prefixed JSON frame."""
    payload = json.dumps(message, separators=(",", ":"),
                         allow_nan=False).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit")
    return len(payload).to_bytes(HEADER_BYTES, "big") + payload


def frame_length(header: bytes) -> int:
    """Validate a received 4-byte header and return the payload length."""
    if len(header) != HEADER_BYTES:
        raise ProtocolError(
            f"frame header must be {HEADER_BYTES} bytes, got {len(header)}")
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame, beyond the "
            f"{MAX_FRAME_BYTES}-byte protocol limit")
    return length


def decode_frame(payload: bytes) -> dict:
    """Parse one frame payload into its message dictionary."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}")
    return message


# --------------------------------------------------------------------- #
# value codec: arrays, histograms, images
# --------------------------------------------------------------------- #
def check_descriptor(dtype: Any, shape: Any,
                     nbytes: int) -> tuple[np.dtype, tuple[int, ...]]:
    """Validate a wire array descriptor against its payload length.

    Both codecs funnel through here before ``np.frombuffer`` so a
    malformed frame surfaces as a typed ``bad_request`` error instead of
    a raw numpy exception server-side: the dtype must name a plain
    bool/int/uint/float scalar (no object, void or structured dtypes —
    those can execute pickle or hide padding), every dimension must be a
    non-negative integer (``-1`` would make ``reshape`` silently *infer*
    a shape the peer never declared), and the declared element count must
    match the payload length exactly.

    Returns the parsed ``(np.dtype, shape tuple)``.
    """
    try:
        parsed = np.dtype(dtype)
    except TypeError as exc:
        raise ProtocolError(f"malformed array payload: {exc}") from exc
    if parsed.kind not in "biuf":
        raise ProtocolError(
            f"malformed array payload: unsupported wire dtype {dtype!r}")
    if not isinstance(shape, (list, tuple)):
        raise ProtocolError(
            f"malformed array payload: shape must be a list, "
            f"got {type(shape).__name__}")
    dims: list[int] = []
    for dim in shape:
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise ProtocolError(
                f"malformed array payload: non-integer dimension {dim!r}")
        if dim < 0:
            raise ProtocolError(
                f"malformed array payload: negative dimension {dim!r}")
        dims.append(int(dim))
    count = 1
    for dim in dims:
        count *= dim
    if count * parsed.itemsize != nbytes:
        raise ProtocolError(
            f"malformed array payload: shape {dims} of dtype "
            f"{parsed.str} needs {count * parsed.itemsize} bytes, "
            f"payload has {nbytes}")
    return parsed, tuple(dims)


def array_to_wire(array: np.ndarray) -> dict:
    """Bit-exact wire form of a numpy array (dtype + shape + base64 data)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": [int(n) for n in array.shape],
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def array_from_wire(wire: Mapping[str, Any] | np.ndarray) -> np.ndarray:
    """Decode a wire array leaf — a v1 base64 mapping, or an ndarray a v2
    frame already materialized (returned as-is, still a zero-copy view)."""
    if isinstance(wire, np.ndarray):
        return wire
    try:
        raw = base64.b64decode(str(wire["data"]).encode("ascii"),
                               validate=True)
        declared_dtype = wire["dtype"]
        declared_shape = wire["shape"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed array payload: {exc}") from exc
    dtype, shape = check_descriptor(declared_dtype, declared_shape, len(raw))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


# kept under the historical private names for in-package call sites
_array_to_wire = array_to_wire
_array_from_wire = array_from_wire


def histogram_to_wire(histogram: Histogram) -> dict:
    """Wire form of a histogram: the exact integer counts."""
    return {"counts": [int(count) for count in histogram.counts]}


def histogram_from_wire(wire: Mapping[str, Any]) -> Histogram:
    try:
        histogram = Histogram(np.asarray(wire["counts"], dtype=np.int64))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed histogram payload: {exc}") from exc
    if histogram.n_pixels > MAX_HISTOGRAM_PIXELS:
        raise ProtocolError(
            f"histogram claims {histogram.n_pixels} pixels, beyond the "
            f"{MAX_HISTOGRAM_PIXELS}-pixel protocol limit")
    return histogram


def image_to_wire(image: Image, *, binary: bool = False) -> dict:
    """Wire form of an image: raw pixels plus bit depth and name.

    With ``binary=True`` (v2 frames) the pixels stay an ``np.ndarray``
    leaf for :mod:`repro.serve.wire2` to lift into a raw segment —
    additionally packed to ``uint8`` when the bit depth fits, halving
    the bytes of the common 8-bit case.  The dtype travels in the
    segment descriptor, so decoding needs no extra flag:
    :class:`~repro.imaging.image.Image` widens back to its uint16
    internal storage bit-exactly.
    """
    if binary:
        pixels = image.pixels
        if image.bit_depth <= 8:
            pixels = pixels.astype(np.uint8)
        return {
            "pixels": pixels,
            "bit_depth": int(image.bit_depth),
            "name": image.name,
        }
    return {
        "pixels": _array_to_wire(image.pixels),
        "bit_depth": int(image.bit_depth),
        "name": image.name,
    }


def image_from_wire(wire: Mapping[str, Any]) -> Image:
    try:
        return Image(_array_from_wire(wire["pixels"]),
                     bit_depth=int(wire["bit_depth"]),
                     name=str(wire.get("name", "")))
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed image payload: {exc}") from exc


# --------------------------------------------------------------------- #
# value codec: transforms
# --------------------------------------------------------------------- #
def transform_to_wire(transform: PixelTransform) -> dict:
    """Wire form of a pixel transformation.

    Every built-in transform serializes its exact defining fields, so the
    decoded instance is equal to (``==``) and applies bit-identically to
    the original.  An unknown third-party subclass degrades to its
    per-level LUT sampled on the :class:`LUTTransform` grid — exact at
    every grid point, interpolated in between.
    """
    if isinstance(transform, IdentityTransform):
        return {"kind": "identity"}
    if isinstance(transform, GrayscaleShiftTransform):
        return {"kind": "grayscale-shift", "beta": float(transform.beta)}
    if isinstance(transform, GrayscaleSpreadTransform):
        return {"kind": "grayscale-spread", "beta": float(transform.beta)}
    if isinstance(transform, SingleBandSpreadTransform):
        return {"kind": "single-band", "g_low": float(transform.g_low),
                "g_high": float(transform.g_high)}
    if isinstance(transform, PiecewiseLinearTransform):
        return {"kind": "piecewise",
                "x_breaks": [float(x) for x in transform.x_breaks],
                "y_breaks": [float(y) for y in transform.y_breaks]}
    if isinstance(transform, LUTTransform):
        return {"kind": "lut", "table": [float(v) for v in transform.table]}
    if isinstance(transform, PixelTransform):
        table = transform(np.linspace(0.0, 1.0, 256))
        return {"kind": "lut", "table": [float(v) for v in table]}
    raise TypeError(f"not a PixelTransform: {transform!r}")


def transform_from_wire(wire: Mapping[str, Any]) -> PixelTransform:
    try:
        kind = wire["kind"]
        if kind == "identity":
            return IdentityTransform()
        if kind == "grayscale-shift":
            return GrayscaleShiftTransform(beta=float(wire["beta"]))
        if kind == "grayscale-spread":
            return GrayscaleSpreadTransform(beta=float(wire["beta"]))
        if kind == "single-band":
            return SingleBandSpreadTransform(g_low=float(wire["g_low"]),
                                             g_high=float(wire["g_high"]))
        if kind == "piecewise":
            return PiecewiseLinearTransform(
                x_breaks=tuple(float(x) for x in wire["x_breaks"]),
                y_breaks=tuple(float(y) for y in wire["y_breaks"]))
        if kind == "lut":
            return LUTTransform(table=tuple(float(v) for v in wire["table"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed transform payload: {exc}") from exc
    raise ProtocolError(f"unknown transform kind {wire.get('kind')!r}")


# --------------------------------------------------------------------- #
# value codec: driver programs, power, solutions, results
# --------------------------------------------------------------------- #
def driver_program_to_wire(program: DriverProgram) -> dict:
    return {
        "breakpoint_levels": _array_to_wire(program.breakpoint_levels),
        "reference_voltages": _array_to_wire(program.reference_voltages),
        "backlight_factor": float(program.backlight_factor),
        "vdd": float(program.vdd),
        "levels": int(program.levels),
    }


def driver_program_from_wire(wire: Mapping[str, Any]) -> DriverProgram:
    try:
        return DriverProgram(
            breakpoint_levels=_array_from_wire(wire["breakpoint_levels"]),
            reference_voltages=_array_from_wire(wire["reference_voltages"]),
            backlight_factor=float(wire["backlight_factor"]),
            vdd=float(wire["vdd"]),
            levels=int(wire["levels"]))
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed driver program payload: {exc}") from exc


def _power_to_wire(power: PowerBreakdown) -> dict:
    return {"ccfl": float(power.ccfl), "panel": float(power.panel)}


def _power_from_wire(wire: Mapping[str, Any]) -> PowerBreakdown:
    try:
        return PowerBreakdown(ccfl=float(wire["ccfl"]),
                              panel=float(wire["panel"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed power payload: {exc}") from exc


def solution_to_wire(solution: CompensationSolution) -> dict:
    """Wire form of an image-independent solution.

    The technique-native ``details`` payload stays server-side (it holds
    solver intermediates a remote client cannot use); transformation,
    backlight factor and driver program — everything needed for the
    client-side LUT application — round-trip exactly.
    """
    return {
        "algorithm": solution.algorithm,
        "transform": transform_to_wire(solution.transform),
        "backlight_factor": float(solution.backlight_factor),
        "driver_program": (None if solution.driver_program is None
                           else driver_program_to_wire(solution.driver_program)),
    }


def solution_from_wire(wire: Mapping[str, Any]) -> CompensationSolution:
    try:
        program = wire.get("driver_program")
        return CompensationSolution(
            algorithm=str(wire["algorithm"]),
            transform=transform_from_wire(wire["transform"]),
            backlight_factor=float(wire["backlight_factor"]),
            driver_program=(None if program is None
                            else driver_program_from_wire(program)))
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed solution payload: {exc}") from exc


def result_to_wire(result: CompensationResult, *, binary: bool = False,
                   include_original: bool = True) -> dict:
    """Wire form of a full per-image result (``details`` stays server-side).

    ``binary=True`` leaves pixel arrays as ndarray leaves for the v2
    codec.  ``include_original=False`` (v2 responses) omits the
    ``original`` image entirely: every algorithm sets it to the
    grayscale rendition of the request image, which the requester can
    reconstruct bit-exactly with :meth:`Image.to_grayscale
    <repro.imaging.image.Image.to_grayscale>` — so the downlink never
    re-ships pixels the client already has.
    """
    wire = {
        "algorithm": result.algorithm,
        "output": image_to_wire(result.output, binary=binary),
        "backlight_factor": float(result.backlight_factor),
        "transform": transform_to_wire(result.transform),
        "distortion": float(result.distortion),
        "power": _power_to_wire(result.power),
        "reference_power": _power_to_wire(result.reference_power),
        "max_distortion": (None if result.max_distortion is None
                           else float(result.max_distortion)),
        "driver_program": (None if result.driver_program is None
                           else driver_program_to_wire(result.driver_program)),
        "from_cache": bool(result.from_cache),
        "replayed": bool(result.replayed),
    }
    if include_original:
        wire["original"] = image_to_wire(result.original, binary=binary)
    return wire


def result_from_wire(wire: Mapping[str, Any], *,
                     original: Image | None = None) -> CompensationResult:
    """Rebuild a result; ``original`` supplies the image when the frame
    omitted it (v2) — pass the request image's grayscale rendition."""
    try:
        original_wire = wire.get("original")
        if original_wire is not None:
            original = image_from_wire(original_wire)
        elif original is None:
            raise ProtocolError(
                "result payload omits 'original' and no request image "
                "was provided to reconstruct it")
        program = wire.get("driver_program")
        budget = wire.get("max_distortion")
        return CompensationResult(
            algorithm=str(wire["algorithm"]),
            original=original,
            output=image_from_wire(wire["output"]),
            backlight_factor=float(wire["backlight_factor"]),
            transform=transform_from_wire(wire["transform"]),
            distortion=float(wire["distortion"]),
            power=_power_from_wire(wire["power"]),
            reference_power=_power_from_wire(wire["reference_power"]),
            max_distortion=None if budget is None else float(budget),
            driver_program=(None if program is None
                            else driver_program_from_wire(program)),
            from_cache=bool(wire.get("from_cache", False)),
            replayed=bool(wire.get("replayed", False)))
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed result payload: {exc}") from exc


def stream_frame_to_wire(outcome: StreamFrameResult, *,
                         binary: bool = False,
                         include_original: bool = True) -> dict:
    return {
        "result": result_to_wire(outcome.result, binary=binary,
                                 include_original=include_original),
        "requested_backlight": float(outcome.requested_backlight),
        "applied_backlight": float(outcome.applied_backlight),
        "scene_change": bool(outcome.scene_change),
        "reused": bool(outcome.reused),
    }


def stream_frame_from_wire(wire: Mapping[str, Any], *,
                           original: Image | None = None) -> StreamFrameResult:
    try:
        return StreamFrameResult(
            result=result_from_wire(wire["result"], original=original),
            requested_backlight=float(wire["requested_backlight"]),
            applied_backlight=float(wire["applied_backlight"]),
            scene_change=bool(wire["scene_change"]),
            reused=bool(wire.get("reused", False)))
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed stream frame payload: {exc}") from exc


def server_stats_from_wire(wire: Mapping[str, Any]) -> ServerStats:
    """Rebuild a :class:`~repro.serve.stats.ServerStats` from the payload of
    a ``stats`` response (the server's ``as_dict`` view, latencies in ms)."""
    try:
        sessions = {
            session_id: SessionFrameStats(
                session_id=str(entry["session_id"]),
                frames=int(entry["frames"]),
                latency_mean=float(entry["latency_mean_ms"]) / 1e3,
                latency_p50=float(entry["latency_p50_ms"]) / 1e3,
                latency_p95=float(entry["latency_p95_ms"]) / 1e3)
            for session_id, entry in dict(wire.get("sessions", {})).items()
        }
        return ServerStats(
            submitted=int(wire["submitted"]),
            completed=int(wire["completed"]),
            failed=int(wire["failed"]),
            rejected=int(wire["rejected"]),
            batches=int(wire["batches"]),
            mean_batch_size=float(wire["mean_batch_size"]),
            elapsed_seconds=float(wire["elapsed_seconds"]),
            throughput=float(wire["throughput_rps"]),
            latency_mean=float(wire["latency_mean_ms"]) / 1e3,
            latency_p50=float(wire["latency_p50_ms"]) / 1e3,
            latency_p95=float(wire["latency_p95_ms"]) / 1e3,
            latency_p99=float(wire["latency_p99_ms"]) / 1e3,
            queue_depth=int(wire["queue_depth"]),
            cache=CacheStats(
                hits=int(wire["cache_hits"]),
                misses=int(wire["cache_misses"]),
                size=int(wire.get("cache_size", 0)),
                max_size=int(wire.get("cache_max_size", 0)),
                evictions=int(wire.get("cache_evictions", 0)),
                replays=int(wire["cache_replays"])),
            sessions_open=int(wire.get("sessions_open", 0)),
            sessions_opened=int(wire.get("sessions_opened", 0)),
            sessions_closed=int(wire.get("sessions_closed", 0)),
            sessions_evicted=int(wire.get("sessions_evicted", 0)),
            session_frames=int(wire.get("session_frames", 0)),
            sessions=sessions,
            connections_v1=int(wire.get("connections_v1", 0)),
            connections_v2=int(wire.get("connections_v2", 0)),
            shard_id=(None if wire.get("shard_id") is None
                      else str(wire["shard_id"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed stats payload: {exc}") from exc


# --------------------------------------------------------------------- #
# messages: handshake and requests
# --------------------------------------------------------------------- #
def hello_frame(version: int = PROTOCOL_V1,
                shard_id: str | None = None, *,
                max_version: int | None = None,
                shm: Any = None) -> dict:
    """The handshake message both ends open with.

    ``version`` is the *baseline* generation — a client always sends
    :data:`PROTOCOL_V1` there, because pre-v2 servers reject any other
    value; the newest generation it speaks rides in ``max_version``,
    which old servers ignore (and which is omitted when it would equal
    ``version``, keeping the v1 handshake bytes pinned).  A server's
    reply carries the negotiated generation in ``version``.

    A server that is part of a cluster identifies itself with its
    ``shard_id`` (the attribution key of aggregated cluster stats).
    ``shm`` carries the shared-memory-lane negotiation payload of
    :mod:`repro.serve.shm`: a probe descriptor on the client hello, a
    boolean verdict on the server reply.  Every optional key is omitted
    entirely when unset, so the plain v1 handshake bytes are unchanged.
    """
    frame = {"type": "hello", "version": int(version)}
    if max_version is not None and int(max_version) != int(version):
        frame["max_version"] = int(max_version)
    if shard_id is not None:
        frame["shard_id"] = str(shard_id)
    if shm is not None:
        frame["shm"] = shm
    return frame


def negotiated_version(hello: Mapping[str, Any]) -> int:
    """The protocol generation to speak with the peer that sent ``hello``.

    The peer offers the range ``[version, max(version, max_version)]``;
    we speak ``[PROTOCOL_V1, PROTOCOL_VERSION]``.  Returns the highest
    generation in both ranges, or ``0`` when the ranges are disjoint or
    the hello malformed (→ answer ``unsupported_version`` and close).
    """
    try:
        low = int(hello.get("version"))
        high = int(hello.get("max_version", low))
    except (TypeError, ValueError):
        return 0
    high = max(low, high)
    if low < PROTOCOL_V1 or low > PROTOCOL_VERSION:
        return 0
    return min(high, PROTOCOL_VERSION)


def routing_key(source: Image | Histogram) -> bytes:
    """The cluster routing key of a piece of content.

    The quantized grayscale-histogram signature
    (:func:`repro.api.cache.histogram_signature`) — exactly what the
    engine's solution cache is keyed on, which is the whole argument for
    content-hash routing: identical content always lands on the shard
    whose cache already holds its solution.  An image and the histogram
    of its grayscale rendition produce the same key, so ``solve`` and
    ``process`` traffic for the same content co-locate.
    """
    if isinstance(source, Histogram):
        histogram = source
    else:
        histogram = Histogram.of_image(source.to_grayscale())
    return histogram_signature(histogram)


def solve_request(request_id: int, source: Image | Histogram,
                  max_distortion: float,
                  algorithm: str | None = None) -> dict:
    """The histogram-only fast path: ship O(histogram) bytes, get back an
    image-independent solution to apply locally."""
    histogram = (source if isinstance(source, Histogram)
                 else Histogram.of_image(source))
    return {"type": "solve", "id": int(request_id),
            "histogram": histogram_to_wire(histogram),
            "max_distortion": float(max_distortion),
            "algorithm": algorithm}


def process_request(request_id: int, image: Image, max_distortion: float,
                    algorithm: str | None = None,
                    routing: bytes | None = None, *,
                    binary: bool = False,
                    shm: Mapping[str, Any] | None = None) -> dict:
    """The full-image path: the server applies the solution and accounts
    distortion and power.

    ``routing`` optionally pre-stamps the :func:`routing_key` of the
    image (hex on the wire), so a cluster router can place the request
    without decoding pixels on its event loop.  Servers ignore it; an
    un-stamped request routes fine — the router derives the key itself,
    off-loop.  ``shm`` replaces the pixel payload with a shared-memory
    block reference, as in :func:`feed_request`.
    """
    message = {"type": "process", "id": int(request_id),
               "image": (image_to_wire(image, binary=binary) if shm is None
                         else {"shm": dict(shm)}),
               "max_distortion": float(max_distortion),
               "algorithm": algorithm}
    if routing is not None:
        message["routing"] = bytes(routing).hex()
    return message


def open_session_request(request_id: int, max_distortion: float,
                         algorithm: str | None = None,
                         options: Mapping[str, Any] | None = None) -> dict:
    """Open a server-side stream session.  ``options`` are the
    JSON-representable keyword options of :meth:`Engine.open_session
    <repro.api.engine.Engine.open_session>` (``scene_gated_solve=``,
    ``snap_on_scene_change=``, ``stability_bins=``, ...); stateful objects
    (smoothers, detectors) cannot cross the wire and stay server-defaults."""
    return {"type": "open_session", "id": int(request_id),
            "max_distortion": float(max_distortion),
            "algorithm": algorithm,
            "options": dict(options or {})}


def feed_request(request_id: int, session_id: str, frame: Image, *,
                 binary: bool = False,
                 shm: Mapping[str, Any] | None = None) -> dict:
    """``shm`` replaces the pixel payload with a shared-memory block
    reference (:mod:`repro.serve.shm`) on a negotiated same-host lane —
    the control frame still travels the socket, the pixels do not."""
    message = {"type": "feed", "id": int(request_id),
               "session_id": str(session_id)}
    if shm is not None:
        message["frame"] = {"shm": dict(shm)}
    else:
        message["frame"] = image_to_wire(frame, binary=binary)
    return message


def close_session_request(request_id: int, session_id: str) -> dict:
    return {"type": "close_session", "id": int(request_id),
            "session_id": str(session_id)}


def stats_request(request_id: int) -> dict:
    return {"type": "stats", "id": int(request_id)}


def health_request(request_id: int) -> dict:
    """The liveness probe of the cluster router: answered straight off
    the event loop, no engine work — a shard that cannot answer it
    within the probe timeout is marked down."""
    return {"type": "health", "id": int(request_id)}


# --------------------------------------------------------------------- #
# messages: responses
# --------------------------------------------------------------------- #
def solution_response(request_id: int,
                      solution: CompensationSolution) -> dict:
    return {"type": "solution", "id": int(request_id),
            "solution": solution_to_wire(solution)}


def result_response(request_id: int, result: CompensationResult, *,
                    binary: bool = False,
                    include_original: bool = True) -> dict:
    return {"type": "result", "id": int(request_id),
            "result": result_to_wire(result, binary=binary,
                                     include_original=include_original)}


def session_response(request_id: int, session_id: str) -> dict:
    return {"type": "session", "id": int(request_id),
            "session_id": str(session_id)}


def frame_response(request_id: int, outcome: StreamFrameResult, *,
                   binary: bool = False,
                   include_original: bool = True) -> dict:
    return {"type": "frame", "id": int(request_id),
            "outcome": stream_frame_to_wire(
                outcome, binary=binary,
                include_original=include_original)}


def session_closed_response(request_id: int, session_id: str) -> dict:
    return {"type": "session_closed", "id": int(request_id),
            "session_id": str(session_id)}


def stats_response(request_id: int,
                   stats: ServerStats | Mapping[str, Any]) -> dict:
    payload = stats.as_dict() if isinstance(stats, ServerStats) else stats
    return {"type": "stats", "id": int(request_id), "stats": dict(payload)}


def health_response(request_id: int, shard_id: str | None = None,
                    status: str = "ok", sessions_open: int = 0,
                    queue_depth: int = 0) -> dict:
    """Answer to a ``health`` probe: identity plus two cheap load gauges."""
    return {"type": "health", "id": int(request_id),
            "shard_id": None if shard_id is None else str(shard_id),
            "status": str(status),
            "sessions_open": int(sessions_open),
            "queue_depth": int(queue_depth)}


# --------------------------------------------------------------------- #
# messages: typed errors
# --------------------------------------------------------------------- #
#: Protocol error codes.  ``overloaded`` carries the backpressure hints;
#: ``session_closed`` covers both a closed and an unknown session id;
#: ``bad_request`` is a client-side mistake (malformed payload, unknown
#: algorithm, invalid operating point); ``internal`` is everything else.
ERROR_CODES = ("overloaded", "server_closed", "session_closed",
               "bad_request", "unsupported_version", "internal")


def error_response(request_id: int | None, error: BaseException, *,
                   code: str | None = None) -> dict:
    """Map an exception onto a typed protocol error frame.

    :class:`~repro.serve.coalescer.ServerOverloadedError` becomes
    ``overloaded`` with its ``queue_depth`` and ``retry_after_seconds``
    hints (defaulting to :data:`DEFAULT_RETRY_AFTER` so a remote client
    always has a back-off to honor) — the server stays connected and
    answers again after the hint, instead of dropping the socket.
    """
    retry_after = None
    queue_depth = None
    if code is None:
        if isinstance(error, ServerOverloadedError):
            code = "overloaded"
        elif isinstance(error, ServerClosedError):
            code = "server_closed"
        elif isinstance(error, SessionClosedError):
            code = "session_closed"
        elif isinstance(error, (ProtocolError, ValueError, KeyError,
                                TypeError)):
            code = "bad_request"
        else:
            code = "internal"
    if isinstance(error, ServerOverloadedError):
        queue_depth = error.queue_depth
        retry_after = error.retry_after_seconds
        if retry_after is None:
            retry_after = DEFAULT_RETRY_AFTER
    message = str(error) or type(error).__name__
    return {"type": "error",
            "id": None if request_id is None else int(request_id),
            "code": code,
            "message": message,
            "retry_after": None if retry_after is None else float(retry_after),
            "queue_depth": None if queue_depth is None else int(queue_depth)}


def exception_from_error(frame: Mapping[str, Any]) -> BaseException:
    """Rebuild the typed exception an ``error`` frame describes.

    The client SDK raises these, so remote callers catch the *same*
    exception types as in-process callers: ``overloaded`` →
    :class:`~repro.serve.coalescer.ServerOverloadedError` (with
    ``queue_depth`` / ``retry_after_seconds`` restored), ``server_closed``
    → :class:`~repro.serve.coalescer.ServerClosedError`,
    ``session_closed`` → :class:`~repro.api.session.SessionClosedError`,
    ``bad_request`` → :class:`ValueError`, ``unsupported_version`` →
    :class:`ProtocolError`, ``internal`` → :class:`RuntimeError`.
    """
    code = frame.get("code", "internal")
    message = str(frame.get("message", "")) or f"server error ({code})"
    if code == "overloaded":
        retry_after = frame.get("retry_after")
        queue_depth = frame.get("queue_depth")
        return ServerOverloadedError(
            message,
            queue_depth=None if queue_depth is None else int(queue_depth),
            retry_after_seconds=(None if retry_after is None
                                 else float(retry_after)))
    if code == "server_closed":
        return ServerClosedError(message)
    if code == "session_closed":
        return SessionClosedError(message)
    if code == "bad_request":
        return ValueError(message)
    if code == "unsupported_version":
        return ProtocolError(message)
    return RuntimeError(message)

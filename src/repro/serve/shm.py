"""Same-host shared-memory lane for v2 image payloads.

A video client feeding a server on the *same machine* pays two pointless
copies per frame: pixels into the socket, pixels out of the socket.  When
both ends negotiate protocol v2, the client may offer a shared-memory
lane in its hello; if the server proves the offer genuine, ``feed`` /
``process`` image payloads travel via ``multiprocessing.shared_memory``
blocks and only the *control* frames (a ~100-byte block reference instead
of pixels) cross the socket.

**Same-host proof.**  "We are on the same host" cannot be taken on the
client's word — a remote client could guess block names.  The client
creates a probe block, fills it with a random nonce, and sends
``{"name", "nonce"}`` inside the hello's ``shm`` key.  The server
attaches the named block and compares contents: only a process on the
same machine can see the nonce, so a spoofed claim (wrong host, wrong
nonce, stale name) fails the attach or the compare and the server answers
``shm: false`` — the connection continues on the ordinary socket lane.

**Frame transport.**  :class:`ShmLane` (client side) maintains one
reusable data block per connection, grown on demand; an image travels as
the descriptor ``{"block", "dtype", "shape", "nbytes", "bit_depth",
"label"}`` in place of its pixel payload.  The lane is restricted to
sync *lockstep* calls made with no pipeline open — one request in flight
per connection — so the block is never overwritten before the server has
copied it out (:meth:`ShmRegistry.resolve` copies at decode time).
Pipelined and async traffic stays on the socket lane.

**Leak-proofing.**  Shared-memory blocks outlive processes, so both ends
unlink: the client in :meth:`ShmLane.close` (normal shutdown), the server
in :meth:`ShmRegistry.close` on session close/disconnect (crashed-client
insurance).  Whichever side loses the race suppresses the
``FileNotFoundError``.
"""

from __future__ import annotations

import secrets
from typing import Any, Mapping

import numpy as np

from repro.imaging.image import Image
from repro.serve.protocol import ProtocolError, check_descriptor

try:  # gate the optional dependency: some minimal pythons omit _posixshmem
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - present on every supported target
    _shared_memory = None

__all__ = [
    "shm_available",
    "ShmLane",
    "ShmRegistry",
    "is_shm_wire",
]

_NONCE_BYTES = 16


def shm_available() -> bool:
    """Whether this interpreter can host the shared-memory lane."""
    return _shared_memory is not None


def _attach(name: str):
    """Attach an existing block without registering it with the resource
    tracker (the attaching side never owns the block; tracking it would
    double-unlink).  ``track=`` only exists on 3.13+, so fall back."""
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return _shared_memory.SharedMemory(name=name)


def _quiet_unlink(block) -> None:
    try:
        block.unlink()
    except FileNotFoundError:
        pass


def is_shm_wire(wire: Any) -> bool:
    """Whether an image wire value is a shared-memory block reference."""
    return isinstance(wire, Mapping) and "shm" in wire


# --------------------------------------------------------------------- #
# client side
# --------------------------------------------------------------------- #
class ShmLane:
    """Client side of the lane: the probe offer and the data block."""

    def __init__(self) -> None:
        if not shm_available():
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._probe = None
        self._nonce = b""
        self._data = None
        self.active = False

    # -- negotiation --------------------------------------------------- #
    def offer(self) -> dict:
        """The ``shm`` payload of the client hello: a nonce-filled probe
        block only a same-host server can read."""
        self._nonce = secrets.token_bytes(_NONCE_BYTES)
        self._probe = _shared_memory.SharedMemory(create=True,
                                                  size=_NONCE_BYTES)
        self._probe.buf[:_NONCE_BYTES] = self._nonce
        return {"name": self._probe.name, "nonce": self._nonce.hex()}

    def conclude(self, accepted: bool) -> None:
        """Record the server's verdict and retire the probe block."""
        if self._probe is not None:
            _quiet_unlink(self._probe)
            self._probe.close()
            self._probe = None
        self.active = bool(accepted)

    # -- frame transport ----------------------------------------------- #
    def send_image(self, image: Image) -> dict:
        """Write ``image`` into the data block; returns the block
        descriptor the caller puts under the ``"shm"`` key of the wire
        value that replaces the pixel payload."""
        if not self.active:
            raise RuntimeError("shared-memory lane was not negotiated")
        pixels = image.pixels
        if image.bit_depth <= 8:
            pixels = pixels.astype(np.uint8)
        pixels = np.ascontiguousarray(pixels)
        nbytes = int(pixels.nbytes)
        if self._data is None or self._data.size < nbytes:
            if self._data is not None:
                _quiet_unlink(self._data)
                self._data.close()
            self._data = _shared_memory.SharedMemory(create=True, size=nbytes)
        self._data.buf[:nbytes] = pixels.tobytes()
        return {
            "block": self._data.name,
            "dtype": pixels.dtype.str,
            "shape": [int(n) for n in pixels.shape],
            "nbytes": nbytes,
            "bit_depth": int(image.bit_depth),
            "label": image.name,
        }

    def close(self) -> None:
        """Unlink and release every block this lane created."""
        self.conclude(False)
        if self._data is not None:
            _quiet_unlink(self._data)
            self._data.close()
            self._data = None


# --------------------------------------------------------------------- #
# server side
# --------------------------------------------------------------------- #
class ShmRegistry:
    """Server side of the lane, one per connection: probe verification,
    cached data-block attachments, and unlink-on-disconnect."""

    def __init__(self) -> None:
        self._attached: dict[str, Any] = {}

    @staticmethod
    def verify_offer(offer: Any) -> bool:
        """Prove (or refute) a hello's same-host claim by reading the
        nonce back out of the named probe block."""
        if not shm_available() or not isinstance(offer, Mapping):
            return False
        try:
            name = str(offer["name"])
            nonce = bytes.fromhex(str(offer["nonce"]))
        except (KeyError, TypeError, ValueError):
            return False
        if not nonce:
            return False
        try:
            probe = _attach(name)
        except (FileNotFoundError, OSError, ValueError):
            return False
        try:
            return bytes(probe.buf[:len(nonce)]) == nonce
        finally:
            probe.close()

    def resolve(self, wire: Mapping[str, Any]) -> Image:
        """Materialize the image a ``{"shm": ...}`` wire value references.

        The pixels are **copied** out of the block (the client will reuse
        it for the next frame); descriptor validation runs through the
        same :func:`~repro.serve.protocol.check_descriptor` gate as the
        socket codecs, so a malformed reference is a ``bad_request``.
        """
        descriptor = wire.get("shm")
        if not isinstance(descriptor, Mapping):
            raise ProtocolError("malformed shared-memory reference")
        try:
            name = str(descriptor["block"])
            nbytes = int(descriptor["nbytes"])
            bit_depth = int(descriptor["bit_depth"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed shared-memory reference: {exc}") from exc
        dtype, shape = check_descriptor(descriptor.get("dtype"),
                                        descriptor.get("shape"), nbytes)
        block = self._attached.get(name)
        if block is None:
            try:
                block = _attach(name)
            except (FileNotFoundError, OSError, ValueError) as exc:
                raise ProtocolError(
                    f"unknown shared-memory block {name!r}") from exc
            self._attached[name] = block
        # block sizes round up to the page, so bound, don't equate
        if nbytes > block.size:
            raise ProtocolError(
                f"shared-memory reference claims {nbytes} bytes of a "
                f"{block.size}-byte block")
        pixels = np.frombuffer(block.buf[:nbytes],
                               dtype=dtype).reshape(shape).copy()
        try:
            return Image(pixels, bit_depth=bit_depth,
                         name=str(descriptor.get("label", "")))
        except ValueError as exc:
            raise ProtocolError(f"malformed shared-memory image: {exc}") from exc

    def close(self) -> None:
        """Release every attachment and unlink the blocks — the
        crashed-client insurance making the lane leak-proof."""
        for block in self._attached.values():
            _quiet_unlink(block)
            block.close()
        self._attached.clear()

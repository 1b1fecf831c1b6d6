"""Client SDK for the network serving API.

The remote counterpart of the :class:`~repro.api.engine.Engine` facade,
speaking the wire protocol of :mod:`repro.serve.protocol` to a
:class:`~repro.serve.net.NetworkServer` (``repro serve --host --port``):

:class:`Client` (sync) / :class:`AsyncClient` (asyncio)
    ``solve`` — ship a 256-bin histogram + budget, get back the
    image-independent :class:`~repro.api.types.CompensationSolution`
    (O(histogram) bandwidth, the paper's Fig. 4 fast path);
    ``compensate`` — solve remotely, apply the LUT locally (pixels never
    leave the process; for the histogram-driven techniques the output is
    bit-identical to a server-side apply);
    ``process`` — ship the full image for server-side application and
    distortion/power accounting;
    ``open_session`` — a push-based :class:`RemoteSession` /
    :class:`AsyncRemoteSession` matching the
    :class:`~repro.api.session.StreamSession` surface;
    ``stats`` — the server's live statistics snapshot;
    ``pipeline`` (sync) — a :class:`ClientPipeline` batch context with
    multiple requests in flight on one socket, correlated by id (the
    :class:`AsyncClient` multiplexes concurrent ``await``-ers the same
    way without a dedicated context).

    A sync lockstep call is a pipeline of depth 1 (inside an open batch
    it joins the batch); both clients run on the sans-IO RPC core of
    :mod:`repro.client.core`.

    Connections negotiate the newest shared protocol generation
    (binary zero-copy v2 frames against this build's servers, v1 JSON
    against older ones — see :attr:`Client.protocol_version`), and
    ``Client(shm=True)`` offers the same-host shared-memory lane of
    :mod:`repro.serve.shm` for the image payloads of lockstep calls.

    A replayable call with nothing else in flight reconnects after a
    lost connection with jittered exponential back-off (:class:`Backoff`
    — a herd of clients dropped by the same restart spreads out instead
    of returning in lockstep); a typed
    ``overloaded`` error honors the server's ``retry_after`` hint.  Error
    frames raise the same exception types as in-process calls
    (:class:`~repro.serve.coalescer.ServerOverloadedError` with its
    structured fields, :class:`~repro.serve.coalescer.ServerClosedError`,
    :class:`~repro.api.session.SessionClosedError`).

:class:`RemoteServerAdapter`
    Drives the :mod:`repro.serve.loadgen` load generators (and ``repro
    loadtest --connect HOST:PORT``) against a remote server: one
    connection per load thread, the in-process ``Server`` surface on top.

Quickstart::

    from repro.client import Client

    with Client(host="127.0.0.1", port=7095) as client:
        applied = client.compensate(image, max_distortion=10.0)
        panel.show(applied.output, backlight=applied.backlight_factor)

        with client.open_session(max_distortion=10.0) as session:
            outcome = session.submit(frame)     # a StreamFrameResult

``examples/remote_client.py`` walks through the full surface.
"""

from repro.client.adapter import RemoteServerAdapter
from repro.client.aio import AsyncClient, AsyncRemoteSession
from repro.client.backoff import Backoff
from repro.client.sync import (
    Client,
    ClientPipeline,
    LocalCompensation,
    PendingReply,
    RemoteSession,
    parse_address,
)

__all__ = [
    "Client",
    "ClientPipeline",
    "PendingReply",
    "AsyncClient",
    "Backoff",
    "RemoteSession",
    "AsyncRemoteSession",
    "LocalCompensation",
    "RemoteServerAdapter",
    "parse_address",
]

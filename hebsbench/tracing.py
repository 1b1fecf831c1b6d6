"""In-memory span tracing of the program's layers, from outside.

:class:`Tracer` wraps public functions of ``repro.core``, ``repro.quality``,
``repro.display``, ``repro.api``, ``repro.serve``, ``repro.client`` and
``repro.cluster`` at run time and records one span (name, start, end,
parent, request id, thread) per call.  Nothing inside ``src/`` changes.

Two rules keep the wrappers honest:

* :meth:`Tracer.install` must run before any engine is built, because
  ``HEBS`` binds its equalizer and distortion measure at construction;
* each name is patched where its caller looks it up (for example
  ``repro.core.pipeline.coarsen_transform``, not ``repro.core.plc``).

Spans on one thread nest, which gives self time.  Work that crosses threads
(a request submitted on the event loop and finished by a coalescer worker)
is recorded as a :class:`ServeRecord` with its submit, batch-start,
batch-end and done times instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

now = time.perf_counter


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: int


@dataclass
class ServeRecord:
    """One request's trip through the serving stack (cross-thread)."""

    submitted: float
    batch_start: float | None = None
    batch_end: float | None = None
    done: float | None = None


class Tracer:
    """Records spans and serve records while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.serve: list[ServeRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # in-flight serve records by id() of the submitted image (the image
        # is held alongside so the id cannot be reused while pending)
        self._pending: dict[int, tuple[Any, ServeRecord]] = {}
        self._plans: dict[int, tuple[Any, ServeRecord]] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent, request = stack[-1] if stack else (None, sid)
        stack.append((sid, request))
        start = now()
        try:
            return func(*args, **kwargs)
        finally:
            end = now()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, request,
                                   threading.get_ident()))

    async def call_async(self, name: str, func: Callable, *args, **kwargs):
        """Await ``func`` inside a span.  Coroutines interleave on their
        loop thread, so async spans never nest (no parent)."""
        sid = next(self._ids)
        start = now()
        try:
            return await func(*args, **kwargs)
        finally:
            self.spans.append(Span(sid, name, start, now(), None, sid,
                                   threading.get_ident()))

    def admit(self, image: Any) -> None:
        """A request (or session frame) entered the serving stack."""
        with self._lock:
            self._pending[id(image)] = (image, ServeRecord(submitted=now()))

    def batch_started(self, image: Any, plan: Any = None,
                      at: float | None = None) -> None:
        """The batch serving ``image`` started (at ``at``, default now);
        a session frame's ``plan`` later identifies its batch end."""
        at = now() if at is None else at
        with self._lock:
            entry = self._pending.get(id(image))
            if entry is None:
                return
            if entry[1].batch_start is None:
                entry[1].batch_start = at
            if plan is not None:
                self._plans[id(plan)] = (plan, entry[1])

    def batch_ended(self, image: Any = None, plan: Any = None) -> None:
        with self._lock:
            if plan is not None:
                entry = self._plans.pop(id(plan), None)
            else:
                entry = self._pending.get(id(image))
            if entry is not None:
                entry[1].batch_end = now()

    def finished(self, image: Any) -> None:
        with self._lock:
            entry = self._pending.pop(id(image), None)
            if entry is not None:
                entry[1].done = now()
                self.serve.append(entry[1])

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_patch(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer.  Call before building any engine."""
        from repro.api import engine as api_engine
        from repro.api.registry import HEBSAlgorithm
        from repro.client.sync import Client, RemoteSession
        from repro.cluster.router import ShardLink
        from repro.core import pipeline
        from repro.display.driver import HierarchicalDriver
        from repro.display.power import DisplayPowerModel
        from repro.serve import wire2
        from repro.serve.server import Server, ServerSession

        spans = [
            (HEBSAlgorithm, "solve", "core.solve"),
            (pipeline.HEBS, "solve_range", "core.solve_range"),
            (pipeline, "coarsen_transform", "core.plc.coarsen"),
            (pipeline, "equalize_histogram", "core.equalize"),
            (DisplayPowerModel, "breakdown", "display.power"),
            (DisplayPowerModel, "reference", "display.power"),
            (HierarchicalDriver, "program", "display.driver.program"),
            (api_engine, "histogram_signature", "api.cache.signature"),
            (api_engine.Engine, "process", "api.engine.process"),
            (HEBSAlgorithm, "apply_solution", "api.engine.apply"),
            (HEBSAlgorithm, "at_backlight", "api.session.rederive"),
            (wire2, "encode_message", "serve.codec.encode"),
            (wire2, "decode_message", "serve.codec.decode"),
            (Client, "process", "client.rpc"),
            (RemoteSession, "submit", "client.rpc"),
        ]
        for owner, attr, name in spans:
            self._span_patch(owner, attr, name)

        get_measure = pipeline.__dict__["get_measure"]

        def traced_get_measure(measure_name):
            measure = get_measure(measure_name)

            def traced(original, transformed):
                return self.call("quality.measure", measure, original,
                                 transformed)
            return traced
        self._patch(pipeline, "get_measure", traced_get_measure)

        forward = ShardLink.__dict__["forward"]

        async def traced_forward(*args, **kwargs):
            return await self.call_async("cluster.forward", forward, *args,
                                         **kwargs)
        self._patch(ShardLink, "forward", traced_forward)

        def admitting(original):
            def submit(owner, image, *args, **kwargs):
                self.admit(image)
                future = original(owner, image, *args, **kwargs)
                future.add_done_callback(lambda _: self.finished(image))
                return future
            return submit
        self._patch(Server, "submit", admitting(Server.__dict__["submit"]))
        self._patch(ServerSession, "submit",
                    admitting(ServerSession.__dict__["submit"]))

        process_batch = api_engine.Engine.__dict__["process_batch"]

        def traced_batch(engine, images, *args, **kwargs):
            images = list(images)
            for image in images:
                self.batch_started(image)
            try:
                return process_batch(engine, images, *args, **kwargs)
            finally:
                for image in images:
                    self.batch_ended(image)
        self._patch(api_engine.Engine, "process_batch", traced_batch)

        begin = ServerSession.__dict__["begin"]
        complete = ServerSession.__dict__["complete"]

        def traced_begin(session, frame):
            start = now()
            plan = begin(session, frame)
            self.batch_started(frame, plan, at=start)
            return plan

        def traced_complete(session, plan, raw):
            try:
                return complete(session, plan, raw)
            finally:
                self.batch_ended(plan=plan)
        self._patch(ServerSession, "begin", traced_begin)
        self._patch(ServerSession, "complete", traced_complete)

    def uninstall(self) -> None:
        """Put every wrapped name back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write(self, path: Path) -> None:
        """Write the spans and serve records as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "span": span.sid, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request, "thread": span.thread}) + "\n")
            for record in self.serve:
                out.write(json.dumps({"serve": vars(record)}) + "\n")


def self_times(spans: list[Span]) -> tuple[dict[str, float], Counter]:
    """Per-name total self time (seconds) and call count."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        totals[span.name] += span.end - span.start - child_time[span.sid]
        calls[span.name] += 1
    return totals, calls

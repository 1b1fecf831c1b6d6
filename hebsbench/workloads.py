"""The three closed-loop workloads, driven through the public API.

Each workload prepares its seeded inputs (untimed), builds its serving
stack (timed as set-up), runs one or two callers in a closed loop for the
run's seconds, and checks every output.  An operation fails when it raises,
returns a typed error, or fails its workload's check.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import inputs
from repro.api.cache import histogram_signature
from repro.bench.suite import clear_caches, default_engine
from repro.client.sync import Client
from repro.cluster.router import ClusterRouter
from repro.core.histogram import Histogram
from repro.core.temporal import BacklightSmoother
from repro.serve.net import NetworkServer
from repro.serve.server import Server

now = time.perf_counter

#: Threads and connections per remote workload (the box has two cores).
CLIENTS = 2
#: Server-side coalescer workers.
WORKERS = 2
#: Each caller's first operations whose mean power saving is reported;
#: a fixed prefix keeps ``power_saving_pct`` identical for one seed.
POWER_OPS = {"album-cold": inputs.ALBUM_BLOCK, "gallery-remote": 400,
             "video-routed": 300}
#: Upper bound on the request rate the pre-made album is sized for.
ALBUM_RATE = 30


@dataclass
class Op:
    latency: float | None        # None when the call raised
    failed: bool
    power_pct: float | None = None
    checked: Any = None          # what a post-phase check compares


@dataclass
class Phase:
    """One timed closed-loop phase."""

    ops: list[list[Op]]          # per caller, in order
    started: float
    elapsed: float
    threads: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    @property
    def flat(self) -> list[Op]:
        return [op for caller in self.ops for op in caller]

    @property
    def completed(self) -> int:
        return sum(1 for op in self.flat if op.latency is not None)


def signature(image) -> bytes:
    return histogram_signature(Histogram.of_image(image.to_grayscale()))


#: Relative tolerance on the power accounting when comparing results.  The
#: panel power is a float mean whose summation order follows the pixel
#: array's memory layout, and the wire always delivers C-ordered pixels
#: while the synthetic generator makes Fortran-ordered ones, so the same
#: photo's power can differ in the last bit between a remote and an
#: in-process call.  Everything else must match bit for bit.
POWER_RTOL = 1e-12


@dataclass(frozen=True)
class Fingerprint:
    """What a result must reproduce: a bit-exact digest of the output
    pixels, backlight factor and distortion, plus the power accounting."""

    exact: bytes
    power: tuple[float, ...]

    def matches(self, other: "Fingerprint") -> bool:
        return self.exact == other.exact and all(
            math.isclose(mine, theirs, rel_tol=POWER_RTOL)
            for mine, theirs in zip(self.power, other.power))


def fingerprint(result) -> Fingerprint:
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(result.output.pixels.tobytes())
    hasher.update(repr((float(result.backlight_factor),
                        float(result.distortion))).encode())
    return Fingerprint(hasher.digest(), (
        result.power.ccfl, result.power.panel,
        result.reference_power.ccfl, result.reference_power.panel))


def run_phase(callers: list[Callable[[int], Op | None]], seconds: float,
              min_ops: int) -> Phase:
    """Run every caller in a closed loop until the deadline (and at least
    ``min_ops`` operations each); a caller returning ``None`` is out of
    inputs and stops early."""
    ops: list[list[Op]] = [[] for _ in callers]
    errors: list[str] = []
    threads: set[int] = set()
    start = now()
    deadline = start + seconds

    def loop(index: int) -> None:
        threads.add(threading.get_ident())
        call, mine = callers[index], ops[index]
        while now() < deadline or len(mine) < min_ops:
            try:
                op = call(len(mine))
            except Exception as exc:    # noqa: BLE001 - counted as failed
                errors.append(f"{type(exc).__name__}: {exc}")
                op = Op(latency=None, failed=True)
            if op is None:
                return
            mine.append(op)

    if len(callers) == 1:
        loop(0)
    else:
        workers = [threading.Thread(target=loop, args=(index,))
                   for index in range(len(callers))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    return Phase(ops=ops, started=start, elapsed=now() - start,
                 threads=threads, errors=errors)


class Workload:
    """Interface of one workload (see the subclasses)."""

    name = ""

    def prepare(self, seed: int, seconds: float) -> Any:
        """Make the seeded inputs and check their premises (untimed)."""
        raise NotImplementedError

    def setup(self, data: Any) -> Any:
        """Build the stack the timed phase runs against (timed)."""
        raise NotImplementedError

    def callers(self, stack: Any,
                data: Any) -> list[Callable[[int], Op | None]]:
        """One closed-loop caller per client: ``call(i)`` makes the i-th
        request and returns its :class:`Op` (``None`` when out of inputs)."""
        raise NotImplementedError

    def counters(self, stack: Any) -> dict[str, float]:
        """Layer counters read before and after a phase."""
        raise NotImplementedError

    def check(self, stack: Any, data: Any, phase: Phase,
              delta: dict[str, float]) -> tuple[int, list[str]]:
        """Post-phase checks: (extra failed operations, premise problems)."""
        return 0, []

    def teardown(self, stack: Any) -> None:
        raise NotImplementedError


def _fresh_engine():
    # drop the cached suite and curve so every set-up pays the
    # characterization a fresh process pays
    clear_caches()
    return default_engine()


def _cache_counters(engine) -> dict[str, float]:
    stats = engine.cache_stats
    return {"hits": stats.hits, "misses": stats.misses,
            "replays": stats.replays}


class AlbumCold(Workload):
    """In-process ``Engine.process`` with ``hebs-adaptive``; every request
    is a distinct photo, so every request misses the cache."""

    name = "album-cold"
    algorithm = "hebs-adaptive"

    def prepare(self, seed, seconds):
        photos = inputs.album(seed, max(POWER_OPS[self.name],
                                        int(seconds * ALBUM_RATE)))
        if len({signature(photo) for photo in photos}) != len(photos):
            raise RuntimeError("album photos share cache signatures")
        return photos

    def setup(self, photos):
        engine = _fresh_engine()
        engine.algorithm(self.algorithm)
        return engine

    def callers(self, engine, photos):
        g_min = engine.algorithm(self.algorithm).pipeline.config.g_min

        def call(index):
            if index >= len(photos):
                return None
            budget = inputs.album_budget(index)
            start = now()
            result = engine.process(photos[index], budget,
                                    algorithm=self.algorithm)
            latency = now() - start
            # within budget, or process_adaptive's documented full-range
            # fallback when even the full range exceeds it
            full = result.original.levels - 1 - g_min
            ok = (result.distortion <= budget
                  or result.details.target_range == full)
            return Op(latency, not ok, result.power_saving_percent)
        return [call]

    def counters(self, engine):
        return {**_cache_counters(engine), "bytes": 0.0, "batch_size": 0.0,
                "fast_path": 0.0, "forwarded": 0.0}

    def check(self, engine, photos, phase, delta):
        problems = []
        if delta["misses"] != phase.completed or delta["hits"] != 0:
            problems.append(f"album-cold expected {phase.completed} misses "
                            f"and no hits, saw {delta['misses']:g} misses "
                            f"and {delta['hits']:g} hits")
        return 0, problems

    def teardown(self, engine):
        pass


@dataclass
class RemoteStack:
    engine: Any
    shard: NetworkServer
    clients: list[Client]
    router: ClusterRouter | None = None
    sessions: list[Any] = field(default_factory=list)

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        for client in self.clients:
            client.close()
        if self.router is not None:
            self.router.close()
        self.shard.close()


def _start_shard(engine) -> tuple[NetworkServer, tuple[str, int]]:
    shard = NetworkServer(Server(engine, workers=WORKERS))
    return shard, shard.start()


def _remote_counters(stack: RemoteStack) -> dict[str, float]:
    counters = _cache_counters(stack.engine)
    counters["bytes"] = float(sum(client.bytes_sent + client.bytes_received
                                  for client in stack.clients))
    counters["batch_size"] = stack.shard.server.stats().mean_batch_size
    counters["fast_path"] = counters["forwarded"] = 0.0
    return counters


class GalleryRemote(Workload):
    """Two protocol-v2 clients send ``process`` RPCs for 24 photos to one
    in-thread ``NetworkServer``; the cache is warm, so every request hits."""

    name = "gallery-remote"
    algorithm = "hebs"

    def prepare(self, seed, seconds):
        photos = inputs.gallery(seed)
        if len({signature(photo) for photo in photos}) != len(photos):
            raise RuntimeError("gallery photos share cache signatures")
        orders = [inputs.gallery_order(seed, client, int(seconds * 1000)
                                       + POWER_OPS[self.name])
                  for client in range(CLIENTS)]
        return photos, orders

    def setup(self, data):
        engine = _fresh_engine()
        shard, (host, port) = _start_shard(engine)
        clients = [Client(host, port) for _ in range(CLIENTS)]
        for client in clients:
            client.connect()
        for photo in data[0]:       # the cache-warming pass
            engine.prime(photo, inputs.GALLERY_BUDGET,
                         algorithm=self.algorithm)
        return RemoteStack(engine, shard, clients)

    def callers(self, stack, data):
        photos, orders = data

        def caller(client, order):
            def call(index):
                if index >= len(order):
                    return None
                photo = order[index]
                start = now()
                result = client.process(photos[photo], inputs.GALLERY_BUDGET,
                                        algorithm=self.algorithm)
                latency = now() - start
                return Op(latency, False, result.power_saving_percent,
                          checked=(photo, fingerprint(result)))
            return call
        return [caller(client, order)
                for client, order in zip(stack.clients, orders)]

    def counters(self, stack):
        return _remote_counters(stack)

    def check(self, stack, data, phase, delta):
        photos, _ = data
        # the reference: the same photo through a fresh in-process engine
        engine = default_engine()
        expected = [fingerprint(engine.process(photo, inputs.GALLERY_BUDGET,
                                          algorithm=self.algorithm))
                    for photo in photos]
        mismatched = sum(1 for op in phase.flat if op.checked is not None
                         and not op.checked[1].matches(
                             expected[op.checked[0]]))
        problems = []
        # a request batched with an identical one replays its solution
        # instead of probing the cache; both are served without a solve
        served = delta["hits"] + delta["replays"]
        if served != phase.completed or delta["misses"] != 0:
            problems.append(f"gallery-remote expected {phase.completed} "
                            f"hits or replays and no misses, saw "
                            f"{served:g} and {delta['misses']:g} misses")
        return mismatched, problems

    def teardown(self, stack):
        stack.close()


class VideoRouted(Workload):
    """Two video clients, each with a ``RemoteSession`` through an
    in-thread ``ClusterRouter`` in front of one ``NetworkServer`` shard."""

    name = "video-routed"

    def prepare(self, seed, seconds):
        return seed

    def setup(self, seed):
        engine = _fresh_engine()
        shard, (host, port) = _start_shard(engine)
        router = ClusterRouter([f"{host}:{port}"])
        router_host, router_port = router.start()
        clients = [Client(router_host, router_port) for _ in range(CLIENTS)]
        for client in clients:
            client.connect()
        sessions = [client.open_session(inputs.VIDEO_BUDGET)
                    for client in clients]
        return RemoteStack(engine, shard, clients, router, sessions)

    def callers(self, stack, seed):
        max_step = BacklightSmoother().max_step

        def caller(session, frames):
            previous = None

            def call(index):
                nonlocal previous
                frame = next(frames)
                start = now()
                outcome = session.submit(frame)
                latency = now() - start
                applied = outcome.applied_backlight
                ok = (previous is None
                      or abs(applied - previous) <= max_step + 1e-9)
                previous = applied
                return Op(latency, not ok, outcome.result.power_saving_percent)
            return call
        return [caller(session, inputs.clip(seed, client))
                for client, session in enumerate(stack.sessions)]

    def counters(self, stack):
        counters = _remote_counters(stack)
        # a connection of its own, so the stats RPC's bytes stay out of
        # the video clients' byte counters
        with Client(*stack.router.address) as client:
            cluster = client.stats_dict()["cluster"]
        counters["fast_path"] = float(cluster["frames_fast_path"])
        counters["forwarded"] = float(cluster["frames_fast_path"]
                                      + cluster["frames_transcoded"])
        return counters

    def teardown(self, stack):
        stack.close()


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (AlbumCold(), GalleryRemote(), VideoRouted())
}

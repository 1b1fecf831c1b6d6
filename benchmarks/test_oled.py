"""Benchmark: the emissive (OLED) workload as a first-class citizen.

Three claims of PR 9's ``repro.display.oled`` subsystem, measured:

1. **Power reduction under the budget** — on the full 19-image synthetic
   corpus at the reference budget, ``oled-darken`` must save at least
   ``MEAN_SAVING_FLOOR`` percent of display power on average (and
   ``MIN_SAVING_FLOOR`` on every image), while the *measured* distortion
   stays within the budget on **every** image — the darkener's safety
   margin is what makes the histogram-only solve honest on textured
   content, and this gate is what pins it.
2. **Serving-stack parity** — the darkened output must be bit-identical
   across the in-process engine, a real NetworkServer over protocol v1
   (base64 arrays) and v2 (zero-copy binary frames), and a 2-shard
   ClusterRouter: the whole serving stack serves the emissive display
   class unchanged.
3. **Zero cross-class cache leakage** — a mixed CCFL/OLED workload through
   the cluster must take exactly one cluster-wide cache miss per distinct
   ``(frame, algorithm)`` pair and none on a re-drive: instance-led cache
   keys keep the display classes from ever sharing a solution.

Measurements are emitted as ``build/BENCH_oled.json`` (override the location
with the ``BENCH_OLED_JSON`` environment variable) alongside the serving,
sessions, network, and cluster artifacts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.client import Client, RemoteServerAdapter
from repro.cluster import ClusterRouter
from repro.serve import NetworkServer, Server
from repro.serve.loadgen import run_load

BUDGET = 10.0
#: Pinned floors for the corpus-wide emissive power reduction at BUDGET
#: (measured ~44% mean / ~31% min for ghe, ~43% / ~30% for clipped).
MEAN_SAVING_FLOOR = 35.0
MIN_SAVING_FLOOR = 20.0

#: Mixed-workload shape: every distinct frame drives BOTH display classes.
MIXED_FRAMES = 8
MIXED_ALGORITHMS = ("hebs", "oled-darken")


@pytest.mark.paper_experiment("oled")
def test_oled_power_reduction_within_budget_on_every_image(suite,
                                                           bench_json):
    sections = {}
    for name in ("oled-darken", "oled-darken-clipped"):
        engine = Engine(name)
        start = time.perf_counter()
        results = {image_name: engine.process(image, BUDGET)
                   for image_name, image in suite.items()}
        elapsed = time.perf_counter() - start
        savings = [result.power_saving_percent
                   for result in results.values()]
        distortions = [result.distortion for result in results.values()]
        sections[name] = {
            "images": len(results),
            "budget_percent": BUDGET,
            "mean_saving_percent": round(float(np.mean(savings)), 3),
            "min_saving_percent": round(float(np.min(savings)), 3),
            "max_distortion_percent": round(float(np.max(distortions)), 3),
            "images_over_budget": int(sum(d > BUDGET for d in distortions)),
            "elapsed_seconds": round(elapsed, 6),
            "per_image": {
                image_name: {
                    "saving_percent": round(result.power_saving_percent, 3),
                    "distortion_percent": round(result.distortion, 3),
                    "target_range": result.details.target_range,
                }
                for image_name, result in results.items()
            },
        }

    # write the perf artifact before any assertion: the run that fails
    # the gate is exactly the run whose numbers need diagnosing
    bench_json("oled", {"benchmark": "oled", "power": sections})

    print()
    for name, section in sections.items():
        print(f"{name}: mean saving {section['mean_saving_percent']}%, "
              f"min {section['min_saving_percent']}%, worst distortion "
              f"{section['max_distortion_percent']}% (budget {BUDGET}%)")

    for name, section in sections.items():
        assert section["images_over_budget"] == 0, (
            f"{name}: distortion exceeded the budget on "
            f"{section['images_over_budget']} images")
        assert section["mean_saving_percent"] >= MEAN_SAVING_FLOOR
        assert section["min_saving_percent"] >= MIN_SAVING_FLOOR


@pytest.mark.paper_experiment("oled")
def test_oled_outputs_bit_identical_across_the_serving_stack(suite,
                                                             bench_json):
    frames = [suite[name] for name in ("lena", "baboon", "pout", "testpat")]
    reference = Engine("oled-darken")
    expected = [reference.process(frame, BUDGET) for frame in frames]

    lanes = {}

    def record(lane: str, results) -> None:
        identical = all(
            np.array_equal(got.output.pixels, want.output.pixels)
            and got == want
            for got, want in zip(results, expected))
        lanes[lane] = {"frames": len(frames), "bit_identical": identical}

    server = Server(engine=Engine(), workers=2, max_delay=0.002)
    network = NetworkServer(server)
    host, port = network.start()
    try:
        for version in (1, 2):
            with Client(host=host, port=port, timeout=60.0,
                        max_version=version) as client:
                record(f"network_v{version}",
                       [client.process(frame, BUDGET,
                                       algorithm="oled-darken")
                        for frame in frames])
    finally:
        network.close()

    shards = []
    for _ in range(2):
        shard = NetworkServer(Server(engine=Engine(), workers=2,
                                     max_delay=0.002))
        shard.start()
        shards.append(shard)
    router = ClusterRouter([f"{h}:{p}"
                            for h, p in (s.address for s in shards)],
                           health_interval=30.0, request_timeout=60.0)
    router.start()
    try:
        rhost, rport = router.address
        with Client(host=rhost, port=rport, timeout=60.0) as client:
            record("cluster_router",
                   [client.process(frame, BUDGET, algorithm="oled-darken")
                    for frame in frames])
    finally:
        router.close()
        for shard in shards:
            shard.close()

    bench_json("oled", {"parity": lanes})
    print()
    for lane, section in lanes.items():
        print(f"{lane}: bit_identical={section['bit_identical']}")
    for lane, section in lanes.items():
        assert section["bit_identical"], f"{lane} diverged from in-process"


@pytest.mark.paper_experiment("oled")
def test_mixed_cluster_has_zero_cross_class_cache_leakage(bench_json):
    # every frame appears twice in a row, and the algorithm list cycles
    # with period 2, so each distinct frame drives BOTH display classes
    rng = np.random.default_rng(20050307)
    from repro.imaging.image import Image
    frames = [Image(rng.integers(0, 256, (32, 32), dtype=np.uint8),
                    name=f"mixed-{index:02d}")
              for index in range(MIXED_FRAMES)]
    workload = [frame for frame in frames for _ in MIXED_ALGORITHMS]
    distinct_pairs = len(frames) * len(MIXED_ALGORITHMS)

    shards = []
    for _ in range(2):
        shard = NetworkServer(Server(engine=Engine(), workers=2,
                                     max_delay=0.002))
        shard.start()
        shards.append(shard)
    router = ClusterRouter([f"{h}:{p}"
                            for h, p in (s.address for s in shards)],
                           health_interval=30.0, request_timeout=60.0)
    router.start()
    try:
        host, port = router.address
        with RemoteServerAdapter(f"{host}:{port}", timeout=60.0) as remote:
            first = run_load(remote, workload, BUDGET, clients=4,
                             algorithm=list(MIXED_ALGORITHMS))
            second = run_load(remote, workload, BUDGET, clients=4,
                              algorithm=list(MIXED_ALGORITHMS))
        with Client(host=host, port=port, timeout=60.0) as client:
            stats = client.stats_dict()
    finally:
        router.close()
        for shard in shards:
            shard.close()

    assert first.errors == 0 and second.errors == 0
    # sanity: the interleave really exercised both display classes
    classes = {result.algorithm for result in first.results.values()}
    assert classes == set(MIXED_ALGORITHMS)

    misses = int(stats["cache_misses"])
    hits = int(stats["cache_hits"])
    section = {
        "frames": len(frames),
        "algorithms": list(MIXED_ALGORITHMS),
        "requests": 2 * len(workload),
        "distinct_pairs": distinct_pairs,
        "cluster_misses": misses,
        "cluster_hits": hits,
        "routed_shards": len(stats["cluster"]["routed"]),
    }
    bench_json("oled", {"mixed_cluster": section})
    print(f"\nmixed cluster: {section['requests']} requests, "
          f"{misses} misses for {distinct_pairs} distinct "
          f"(frame, algorithm) pairs, {hits} hits")

    # zero cross-class leakage: one miss per (frame, algorithm) pair
    # cluster-wide, and the re-drive took none at all
    assert misses == distinct_pairs
    assert hits == 2 * len(workload) - distinct_pairs

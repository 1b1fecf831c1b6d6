"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest hebsbench/selftest.py -q

The file is deliberately not named ``test_*.py``: the repository's default
test run does not collect it, so its tiny end-to-end runs (about a minute)
do not lengthen that suite.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ["setup_s", "throughput_per_s", "latency_p50_ms",
              "power_saving_pct"]
PER_LAYER = [
    "core.solve_ms", "core.solve.calls", "core.solve_range.calls",
    "core.plc.coarsen_ms", "core.equalize_ms", "quality.measure_ms",
    "quality.measure.calls", "display.power_ms", "display.driver.program_ms",
    "api.cache.hit_ratio", "api.cache.hits", "api.cache.lookups",
    "api.cache.signature_ms", "api.engine.apply_ms",
    "api.session.rederive.calls", "serve.coalescer.queue_wait_ms",
    "serve.coalescer.batch_size", "serve.codec.encode_ms",
    "serve.codec.decode_ms", "serve.wire.bytes_per_request",
    "client.rpc_self_ms", "cluster.router.hop_ms", "cluster.fast_path_ratio",
    "trace.ops", "trace.overhead_pct", "trace.unattributed_pct",
    "latency_p90_ms", "latency_p90.beyond",
]
LEGAL_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY_OPS = 4


def pixels(images) -> list[bytes]:
    return [image.pixels.tobytes() for image in images]


def test_same_seed_gives_identical_inputs():
    assert pixels(inputs.album(7, 12)) == pixels(inputs.album(7, 12))
    assert pixels(inputs.gallery(7)) == pixels(inputs.gallery(7))
    assert (inputs.gallery_order(7, 1, 50)
            == inputs.gallery_order(7, 1, 50))
    assert (pixels(itertools.islice(inputs.clip(7, 0), 70))
            == pixels(itertools.islice(inputs.clip(7, 0), 70)))


def test_different_seed_gives_different_inputs():
    assert set(pixels(inputs.album(7, 12))).isdisjoint(
        pixels(inputs.album(8, 12)))
    assert pixels(inputs.gallery(7)) != pixels(inputs.gallery(8))
    assert (inputs.gallery_order(7, 0, 50)
            != inputs.gallery_order(8, 0, 50))
    assert (pixels(itertools.islice(inputs.clip(7, 0), 5))
            != pixels(itertools.islice(inputs.clip(8, 0), 5)))
    # the two video clients of one seed see different clips too
    assert (pixels(itertools.islice(inputs.clip(7, 0), 5))
            != pixels(itertools.islice(inputs.clip(7, 1), 5)))


def test_clip_holds_scenes_with_noise_and_cuts():
    frames = [frame.pixels.astype(int)
              for frame in itertools.islice(inputs.clip(3, 0), 130)]
    steps = [abs(b - a).max() for a, b in zip(frames, frames[1:])]
    cuts = [index for index, step in enumerate(steps) if step > 4]
    assert 2 <= len(cuts) <= 4          # scenes of 30-60 frames
    assert all(step > 0 for step in steps)   # every frame is noisy
    assert cuts[0] + 1 >= 30


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failed_operations(name):
    workload = workloads.WORKLOADS[name]
    data = workload.prepare(5, 0.0)
    report = run.run_untraced(workload, data, 0.0, imports=[0.0],
                              min_ops=TINY_OPS)
    assert report.failed == 0, report.problems
    assert report.problems == []
    result = report.result()
    assert result["correct"] and result["attempted"] >= TINY_OPS
    assert list(result["metrics"]) == END_TO_END
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", ["album-cold", "video-routed"])
def test_same_seed_gives_identical_power_saving(name):
    workload = workloads.WORKLOADS[name]

    def power() -> float:
        data = workload.prepare(11, 0.0)
        report = run.run_untraced(workload, data, 0.0, imports=[0.0],
                                  min_ops=TINY_OPS)
        return report.metrics["power_saving_pct"][0]
    assert power() == power()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_layer_metric(name):
    workload = workloads.WORKLOADS[name]
    data = workload.prepare(5, 0.0)
    report = run.run_traced(workload, data, 0.0, spans_path=None,
                            min_ops=TINY_OPS)
    assert report.failed == 0, report.problems
    assert list(report.metrics) == PER_LAYER
    metrics = report.metrics
    if name == "gallery-remote":
        assert metrics["core.solve_ms"][0] == 0.0
        assert metrics["api.cache.hit_ratio"][0] == 1.0
    if name == "album-cold":
        assert metrics["api.cache.hit_ratio"][0] == 0.0
        assert metrics["serve.wire.bytes_per_request"][0] == 0.0
    if name == "video-routed":
        assert metrics["cluster.fast_path_ratio"][0] == 1.0
        assert metrics["core.solve_range.calls"][0] == 1.0


def test_metric_names_are_legal_and_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [metric["name"] for metric in spec["end_to_end"]] == END_TO_END
    assert [metric["name"] for metric in spec["per_layer"]] == PER_LAYER
    # album-cold stays runnable but is not listed (see README.md)
    assert [workload["name"] for workload in spec["workloads"]] == [
        "gallery-remote", "video-routed"]
    for name in END_TO_END + PER_LAYER:
        assert LEGAL_NAME.match(name), name
    setup = next(metric for metric in spec["end_to_end"]
                 if metric["name"] == "setup_s")
    assert setup["bound"] == max(metric["bound"]
                                 for metric in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "album-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""

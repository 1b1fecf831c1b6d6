"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 hebsbench/run.py --workload album-cold --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, throughput,
median latency, power saving); ``--trace 1`` runs the workload untraced and
then traced, and prints the per-layer table.  Human-readable rows come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where traced runs write their spans (inside the benchmark's directory).
OUT = HERE / "out"
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: The modules whose import time counts as set-up.
PROGRAM_MODULES = ("numpy", "repro.core", "repro.quality", "repro.display",
                   "repro.api", "repro.serve", "repro.client",
                   "repro.cluster", "repro.bench.suite")
#: Times the program's imports in a fresh interpreter (a module is
#: imported once per process, so each sample needs its own).
IMPORT_PROBE = ("import importlib, sys, time; "
                "sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); "
                "[importlib.import_module(name) for name in sys.argv[2:]]; "
                "print(time.perf_counter() - start)")

now = time.perf_counter


def import_seconds() -> list[float]:
    """``SETUP_REPEATS`` samples of the program's import time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
             *PROGRAM_MODULES],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(probe.stdout))
    return samples


def end_to_end(phase, setup_s: float, workload: str) -> dict:
    import workloads
    latencies = [op.latency for op in phase.flat if op.latency is not None]
    power = [op.power_pct for caller in phase.ops
             for op in caller[:workloads.POWER_OPS[workload]]
             if op.power_pct is not None]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (len(latencies) / phase.elapsed, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "power_saving_pct": (statistics.fmean(power), "%"),
    }


def per_layer(traced, untraced, tracer, delta: dict) -> dict:
    """The per-layer table of one traced phase (see README.md)."""
    from tracing import self_times

    ops = max(traced.completed, 1)
    end = traced.started + traced.elapsed
    spans = [span for span in tracer.spans
             if traced.started <= span.start <= end]
    totals, calls = self_times(spans)
    names = {span.sid: span.name for span in spans}

    def per_op_ms(*span_names: str) -> float:
        return 1e3 * sum(totals[name] for name in span_names) / ops

    def duration(name: str, client_side: bool | None = None) -> float:
        return sum(span.end - span.start for span in spans
                   if span.name == name and (
                       client_side is None
                       or (span.thread in traced.threads) == client_side))

    solves = calls["core.solve"]
    steps = sum(1 for span in spans if span.name == "core.solve_range"
                and names.get(span.parent) == "core.solve")
    served = [record for record in tracer.serve
              if traced.started <= record.submitted <= end
              and record.batch_start is not None and record.done is not None]
    queue_wait = sum(record.batch_start - record.submitted
                     for record in served)
    after_batch = sum(record.done - record.batch_end for record in served
                      if record.batch_end is not None)
    handled = sum(record.done - record.submitted for record in served)
    server_codec = (duration("serve.codec.encode", client_side=False)
                    + duration("serve.codec.decode", client_side=False))
    client_codec = (duration("serve.codec.encode", client_side=True)
                    + duration("serve.codec.decode", client_side=True))
    rpc = duration("client.rpc")
    forward = duration("cluster.forward")
    if rpc:
        # caller-observed RPC minus everything measured beyond the socket
        beyond = forward if forward else handled + server_codec
        rpc_self = rpc - client_codec - beyond
        hop = forward - handled - server_codec if forward else 0.0
        unattributed = after_batch / rpc
    else:
        rpc_self = hop = 0.0
        process = duration("api.engine.process")
        unattributed = (totals["api.engine.process"] / process
                        if process else 0.0)
    lookups = delta["hits"] + delta["misses"]
    latencies = [op.latency for op in untraced.flat
                 if op.latency is not None]
    p90 = statistics.quantiles(latencies, n=10)[-1]
    thr_untraced = untraced.completed / untraced.elapsed
    thr_traced = traced.completed / traced.elapsed
    return {
        "core.solve_ms": (per_op_ms("core.solve", "core.solve_range"), "ms"),
        "core.solve.calls": (solves, "count"),
        "core.solve_range.calls": (steps / solves if solves else 0.0,
                                   "count"),
        "core.plc.coarsen_ms": (per_op_ms("core.plc.coarsen"), "ms"),
        "core.equalize_ms": (per_op_ms("core.equalize"), "ms"),
        "quality.measure_ms": (per_op_ms("quality.measure"), "ms"),
        "quality.measure.calls": (calls["quality.measure"] / ops, "count"),
        "display.power_ms": (per_op_ms("display.power"), "ms"),
        "display.driver.program_ms": (per_op_ms("display.driver.program"),
                                      "ms"),
        "api.cache.hit_ratio": (delta["hits"] / lookups if lookups else 0.0,
                                "ratio"),
        "api.cache.hits": (delta["hits"], "count"),
        "api.cache.lookups": (lookups, "count"),
        "api.cache.signature_ms": (per_op_ms("api.cache.signature"), "ms"),
        "api.engine.apply_ms": (per_op_ms("api.engine.apply"), "ms"),
        "api.session.rederive.calls": (calls["api.session.rederive"] / ops,
                                       "count"),
        "serve.coalescer.queue_wait_ms": (
            1e3 * queue_wait / len(served) if served else 0.0, "ms"),
        "serve.coalescer.batch_size": (delta["batch_size"], "count"),
        "serve.codec.encode_ms": (per_op_ms("serve.codec.encode"), "ms"),
        "serve.codec.decode_ms": (per_op_ms("serve.codec.decode"), "ms"),
        "serve.wire.bytes_per_request": (delta["bytes"] / ops, "count"),
        "client.rpc_self_ms": (1e3 * rpc_self / ops, "ms"),
        "cluster.router.hop_ms": (1e3 * hop / ops, "ms"),
        "cluster.fast_path_ratio": (
            delta["fast_path"] / delta["forwarded"]
            if delta["forwarded"] else 0.0, "ratio"),
        "trace.ops": (traced.completed, "count"),
        "trace.overhead_pct": (
            100.0 * (thr_untraced - thr_traced) / thr_untraced, "%"),
        "trace.unattributed_pct": (100.0 * unattributed, "%"),
        "latency_p90_ms": (1e3 * p90, "ms"),
        "latency_p90.beyond": (sum(1 for value in latencies if value > p90),
                               "count"),
    }


def measure(workload, stack, data, seconds: float,
            min_ops: int | None = None):
    """One timed phase plus its checks: (phase, delta, failed, problems).
    Each caller runs at least ``min_ops`` operations (by default the
    prefix ``power_saving_pct`` is taken over)."""
    import workloads
    if min_ops is None:
        min_ops = workloads.POWER_OPS[workload.name]
    callers = workload.callers(stack, data)
    before = workload.counters(stack)
    phase = workloads.run_phase(callers, seconds, min_ops)
    after = workload.counters(stack)
    delta = {key: after[key] - before[key] for key in after}
    delta["batch_size"] = after["batch_size"]
    extra, problems = workload.check(stack, data, phase, delta)
    failed = sum(1 for op in phase.flat if op.failed) + extra
    return phase, delta, failed, problems + phase.errors[:5]


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]

    def result(self) -> dict:
        """The JSON object printed as the run's last line."""
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def run_untraced(workload, data, seconds: float, imports: list[float],
                 min_ops: int | None = None) -> Report:
    """Set up ``SETUP_REPEATS`` times, then one timed phase: the
    end-to-end metrics.  ``setup_s`` is the median import time plus the
    median set-up."""
    setups, stack = [], None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            workload.teardown(stack)
        start = now()
        stack = workload.setup(data)
        setups.append(now() - start)
    try:
        phase, _, failed, problems = measure(workload, stack, data, seconds,
                                             min_ops)
    finally:
        workload.teardown(stack)
    setup_s = statistics.median(imports) + statistics.median(setups)
    metrics = end_to_end(phase, setup_s, workload.name)
    notes = [f"latency_p50_ms over {phase.completed} samples",
             "setup_s = median of imports "
             + ", ".join(f"{value:.3f}" for value in imports)
             + " s + median of set-ups "
             + ", ".join(f"{value:.3f}" for value in setups) + " s"]
    return Report(metrics, len(phase.flat), failed, problems, notes)


def run_traced(workload, data, seconds: float, spans_path: Path | None,
               min_ops: int | None = None) -> Report:
    """An untraced phase, then a traced one on a stack built after the
    wrappers went in: the per-layer table."""
    from tracing import Tracer

    stack = workload.setup(data)
    try:
        untraced, _, failed, problems = measure(workload, stack, data,
                                                seconds, min_ops)
    finally:
        workload.teardown(stack)
    tracer = Tracer()
    tracer.install()
    try:
        stack = workload.setup(data)
        try:
            traced, delta, failed_traced, problems_traced = measure(
                workload, stack, data, seconds, min_ops)
        finally:
            workload.teardown(stack)
    finally:
        tracer.uninstall()
    metrics = per_layer(traced, untraced, tracer, delta)
    notes = [f"per-layer times are per completed operation "
             f"({traced.completed} traced)"]
    if spans_path is not None:
        tracer.write(spans_path)
        notes.append(f"{len(tracer.spans)} spans written to "
                     f"{spans_path.relative_to(ROOT)}")
    return Report(metrics, len(untraced.flat) + len(traced.flat),
                  failed + failed_traced, problems + problems_traced, notes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    data = workload.prepare(args.seed, args.seconds)
    if args.trace:
        report = run_traced(
            workload, data, args.seconds,
            OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        report = run_untraced(workload, data, args.seconds, import_seconds())

    for name, (value, unit) in report.metrics.items():
        print(f"{args.workload:15s} {name:32s} {value:14.4f} {unit}")
    print(f"{args.workload:15s} operations attempted {report.attempted}, "
          f"failed {report.failed}")
    for line in report.notes + report.problems:
        print(f"{args.workload:15s} {line}")
    print(json.dumps(report.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

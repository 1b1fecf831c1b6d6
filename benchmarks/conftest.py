"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper (see DESIGN.md §4
for the experiment index) and prints the reproduced rows/series next to the
published values, so ``pytest benchmarks/ --benchmark-only -s`` doubles as a
report generator.  The heavyweight artifacts — the synthetic benchmark suite
and the fitted distortion characteristic curve — are session-scoped.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

import pytest

from repro.bench.suite import benchmark_images, default_curve, default_pipeline

#: Where the ``BENCH_*.json`` perf artifacts land by default.
BUILD_DIR = Path(__file__).resolve().parent.parent / "build"


def write_bench_json(name: str, section: Mapping[str, Any]) -> Path:
    """Merge ``section`` into the ``BENCH_<name>.json`` perf artifact.

    The file is ``build/BENCH_<name>.json`` at the repository root unless
    the ``BENCH_<NAME>_JSON`` environment variable names another path.
    Keys other tests wrote survive, whichever test runs (or fails) first;
    an unreadable file starts afresh.
    """
    destination = Path(os.environ.get(f"BENCH_{name.upper()}_JSON",
                                      BUILD_DIR / f"BENCH_{name}.json"))
    try:
        payload = json.loads(destination.read_text())
    except (OSError, json.JSONDecodeError):
        payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload.update(section)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(json.dumps(payload, indent=2) + "\n")
    return destination


def pytest_configure(config):
    # The benchmarks are also collected by a plain `pytest benchmarks/` run;
    # they are marked so users can deselect them explicitly if needed.
    config.addinivalue_line("markers",
                            "paper_experiment(id): maps a benchmark to a "
                            "table/figure of the paper")


@pytest.fixture(scope="session")
def suite():
    """All 19 synthetic benchmark images."""
    return benchmark_images()


@pytest.fixture(scope="session")
def curve():
    """The session-cached distortion characteristic curve (Fig. 7 artifact)."""
    return default_curve()


@pytest.fixture(scope="session")
def pipeline(curve):
    """The default HEBS pipeline used by every experiment."""
    return default_pipeline()


@pytest.fixture(scope="session")
def bench_json():
    """The :func:`write_bench_json` artifact writer."""
    return write_bench_json

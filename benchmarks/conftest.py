"""Benchmark-session configuration.

Each bench regenerates one table or figure of the paper at full
experiment scale and prints the artifact.  Two cache layers make that
cheap.  The stream memo (:func:`repro.engine.streamcache.experiment_stream`)
builds each app's L1-filtered L2 stream at most once per machine: a
per-process memo over memory-mapped bundles in the persistent stream
cache.  The result store (:mod:`repro.engine.store`) keys every canonical
(design x app) result by its job spec, so ``canonical_result`` and
``suite_results`` serve the grid from disk, within a session and across
sessions, instead of re-simulating it.

Set ``REPRO_BENCH_LENGTH`` to shrink the per-app trace length for a
faster (less converged) pass.  Set ``REPRO_BENCH_COLD=1`` to disable
both persistent caches for the session, so wall-clock numbers measure
real simulation instead of cache reads.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH


def pytest_configure(config):
    """Honour ``REPRO_BENCH_COLD`` before any bench touches the store."""
    if os.environ.get("REPRO_BENCH_COLD"):
        os.environ["REPRO_CACHE_DISABLE"] = "1"


@pytest.fixture(scope="session")
def bench_length() -> int:
    """Trace length used by every bench (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_LENGTH", EXPERIMENT_TRACE_LENGTH))


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    The experiments are deterministic end-to-end, so repeated rounds
    would only re-measure the memoisation cache.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

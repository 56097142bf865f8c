"""Execution of the canonical designs over the workload suite.

Every figure and table draws on the same grid of runs — (design x app)
at the experiment trace length.  This module is a thin shim over
:mod:`repro.engine`: canonical results are :func:`run_jobs` batches
against the persistent on-disk store (so a fresh process no longer
re-pays the grid), and streams come from the engine's one per-process
stream memo, :func:`~repro.engine.streamcache.experiment_stream`.
"""

from __future__ import annotations

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.core.result import DesignResult
from repro.engine.executor import run_jobs
from repro.engine.spec import EXPERIMENT_TRACE_LENGTH, JobSpec
from repro.engine.store import default_store
from repro.engine.streamcache import experiment_stream
from repro.trace.workloads import APP_NAMES

__all__ = [
    "EXPERIMENT_TRACE_LENGTH",
    "experiment_stream",
    "canonical_result",
    "suite_results",
    "run_design_on",
]


def canonical_result(
    design_name: str,
    app: str,
    length: int = EXPERIMENT_TRACE_LENGTH,
    seed: int = 0,
    platform: PlatformConfig = DEFAULT_PLATFORM,
) -> DesignResult:
    """Run one canonical design on one app (store-backed).

    The persistent store is consulted first (keyed by the full
    :class:`~repro.engine.spec.JobSpec`, so seeds and platforms never
    collide); a fresh simulation is written back for the next read.
    """
    spec = JobSpec(design=design_name, app=app, length=length, seed=seed, platform=platform)
    return run_jobs([spec], store=default_store())[0].result


def suite_results(
    design_name: str,
    length: int = EXPERIMENT_TRACE_LENGTH,
    apps: tuple[str, ...] = APP_NAMES,
    seed: int = 0,
) -> dict[str, DesignResult]:
    """One result per app for ``design_name``, in suite order (one batch)."""
    specs = [JobSpec(design=design_name, app=app, length=length, seed=seed) for app in apps]
    return {o.spec.app: o.result for o in run_jobs(specs, store=default_store())}


def run_design_on(
    design,
    app: str,
    platform: PlatformConfig = DEFAULT_PLATFORM,
    length: int = EXPERIMENT_TRACE_LENGTH,
    seed: int = 0,
) -> DesignResult:
    """Run an arbitrary (non-canonical) design instance on one app.

    The stream is filtered through ``platform``'s L1s — a non-default
    platform really sees its own L1 behaviour, not the default one's.
    """
    return design.run(experiment_stream(app, length, seed, platform), platform)

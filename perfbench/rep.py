"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with its own
``REPRO_CACHE_DIR``, so no in-process memo (``suite_trace``,
``experiment_stream``, the executor's ``_worker_stream``) can carry
work from one repetition into the next.  The script runs the workload's
set-up, then its timed section, then checks the outputs, and writes one
JSON record to ``--out``:

* ``setup_end`` (wall clock at the start of the timed section), ``wall_s``,
  ``cpu_s`` (self + reaped pool workers), ``peak_rss_mb`` (max of self
  and pool workers) and ``work_accesses`` (L2-stream accesses the
  workload's design runs replay);
* ``ops``: one ``[label, digest]`` per operation, the digest taken over
  the output with provenance (``extras["sim_engine"]``) removed;
* ``checks``: named output checks that must hold for every seed;
* ``layers``: per-layer metrics read from the results, plus the span
  metrics when ``--traced`` is given.

``--prebuild`` instead builds the L2 streams the workload replays into
the cache directory through the engine (the warm workloads start from
them) and records the engine's baseline results for the cross-checks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

APPS = ("browser", "maps", "email", "social", "music", "game", "video", "reader")
DESIGNS = ("baseline", "static-sram", "static-stt", "dynamic-stt")
FIG3_SIZES_KB = (128, 256, 512, 768, 1024, 2048)
FIG4_APPS = ("browser", "social", "game")
#: reference-mix replays its five variants on four apps: at about 0.3 s
#: of one CPU per variant and app, a repetition takes a few seconds, so a
#: run holds enough repetitions for a steady median.
REF_APPS = ("browser", "social", "game", "video")
#: reference-mix's (variant, app) -> replay, set before its pool forks.
REF_OPS: dict = {}
#: fastsim replays Figure 4 specifies per app at its defaults: the 4x3
#: partition sweep, the same sweep again inside ``find_static_partition``,
#: and the two full-size baselines.
FIG4_REPLAYS_PER_APP = 12 + 1 + 12 + 1


def payload(result) -> dict:
    """``result.to_dict()`` without provenance, DRAM stats made JSON."""
    extras = dict(result.extras)
    extras.pop("sim_engine", None)
    if dataclasses.is_dataclass(extras.get("dram_stats")):
        extras["dram_stats"] = dataclasses.asdict(extras["dram_stats"])
    return dataclasses.replace(result, extras=extras).to_dict()


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def rusage() -> tuple[float, float]:
    """(CPU seconds of self + reaped children, peak RSS MB of either)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


# ---------------------------------------------------------------------------
# workloads: each returns (setup, timed, check) closures over shared state


def grid_cold(args, cache_dir: Path, expect: dict):
    import repro.engine as engine
    from repro.engine import JobSpec, ResultStore, StreamCache
    from repro.config import DEFAULT_PLATFORM

    specs = [JobSpec(d, a, args.length, args.seed) for a in APPS for d in DESIGNS]
    store = ResultStore(cache_dir)
    state = {}

    def timed():
        t = time.perf_counter()
        state["cold"] = engine.run_jobs(specs, jobs=args.jobs, store=store)
        state["cold_wall"] = time.perf_counter() - t
        state["warm"] = engine.run_jobs(specs, jobs=args.jobs, store=store)

    def check(rec):
        cold, warm = state["cold"], state["warm"]
        streams = StreamCache(cache_dir)
        built = _streams_built(cache_dir)
        rows = {a: len(streams.get(a, args.length, args.seed, DEFAULT_PLATFORM)) for a in APPS}
        rec["work_accesses"] = len(DESIGNS) * sum(rows.values())
        for label, outcomes in (("cold", cold), ("warm", warm)):
            rec["ops"] += [[f"{label}:{o.spec.label()}", digest(payload(o.result))]
                           for o in outcomes]
        checks = rec["checks"]
        checks["cold batch simulated every job"] = not any(o.cached for o in cold)
        checks["warm re-issue served every job from the store"] = all(o.cached for o in warm)
        checks["warm results equal cold results"] = all(
            payload(c.result) == payload(w.result) for c, w in zip(cold, warm))
        checks["each stream built once per repetition"] = built == len(APPS)
        checks["cache invariants"] = _invariants(o.result for o in cold)
        results = {(o.spec.design, o.spec.app): o.result for o in cold}
        rec["layers"].update(_claims(results))
        fresh = [o for o in cold if not o.cached]
        rec["layers"].update({
            "executor.job_wall_p50_s": median(o.wall_s for o in fresh),
            "executor.cpu_util": sum(o.cpu_s for o in fresh) / (state["cold_wall"] * args.jobs),
            "executor.retries": sum(o.attempts - 1 for o in fresh),
            "executor.overhead_s": state["cold_wall"] - sum(o.wall_s for o in fresh) / args.jobs,
        })

    return (lambda: None), timed, check


def _claims(results) -> dict:
    """The six ``repro validate`` bands, recomputed from grid results."""
    import numpy as np
    from repro.experiments.figures import EnergySummaryResult
    from repro.experiments.tables import PerformanceTable
    from repro.types import Privilege

    base = {a: results["baseline", a] for a in APPS}
    share = float(np.mean([
        base[a].l2_stats.access_share_of(Privilege.KERNEL) for a in APPS]))
    energy = EnergySummaryResult({
        a: {d: results[d, a].l2_energy.total_j / base[a].l2_energy.total_j for d in DESIGNS}
        for a in APPS})
    perf = PerformanceTable({
        a: {d: results[d, a].timing.perf_loss_vs(base[a].timing) for d in DESIGNS[1:]}
        for a in APPS})
    s_save, d_save = energy.saving("static-stt"), energy.saving("dynamic-stt")
    s_loss, d_loss = perf.mean("static-stt"), perf.mean("dynamic-stt")
    bands = [share > 0.40, 0.65 < s_save < 0.85, 0.75 < d_save < 0.92,
             d_save > s_save, s_loss < 0.06, d_loss < 0.12]
    return {
        "experiments.claims_passed": sum(bands),
        "experiments.kernel_share_pct": 100 * share,
        "experiments.static_saving_pct": 100 * s_save,
        "experiments.dynamic_saving_pct": 100 * d_save,
        "experiments.static_perf_loss_pct": 100 * s_loss,
        "experiments.dynamic_perf_loss_pct": 100 * d_loss,
    }


def _invariants(results) -> bool:
    for result in results:
        result.l2_stats.check_invariants()
    return True


def _open_streams(args, apps=APPS):
    from repro.experiments import runner

    return {a: runner.experiment_stream(a, args.length, args.seed) for a in apps}


def _streams_built(cache_dir: Path) -> int:
    from repro.engine import StreamCache

    return StreamCache(cache_dir).counters().get("writes", 0)


def design_space(args, cache_dir: Path, expect: dict):
    import functools

    from repro.experiments import figures, runner

    # The figure functions read seed-0 streams; bind the benchmark seed
    # at the names they look up.
    figures.experiment_stream = functools.partial(runner.experiment_stream, seed=args.seed)
    figures.run_design_on = functools.partial(runner.run_design_on, seed=args.seed)
    state = {}

    def setup():
        state["streams"] = _open_streams(args)

    def timed():
        state["fig3"] = figures.fig3_size_sweep(args.length)
        state["fig4"] = figures.fig4_static_space(args.length)

    def check(rec):
        rows = {a: len(s) for a, s in state["streams"].items()}
        rec["work_accesses"] = (len(FIG3_SIZES_KB) * sum(rows.values())
                                + FIG4_REPLAYS_PER_APP * sum(rows[a] for a in FIG4_APPS))
        fig3, fig4 = state["fig3"], state["fig4"]
        rec["ops"] += [[f"fig3:{size // 1024}KB", digest(rate)] for size, rate in fig3.points]
        rec["ops"] += [[f"fig4:{p.user_ways}u+{p.kernel_ways}k", digest(dataclasses.asdict(p))]
                       for p in fig4.points]
        rec["ops"].append(["fig4:chosen", digest(dataclasses.asdict(fig4.chosen))])
        rec["ops"].append(["fig4:baseline", digest(fig4.baseline_miss_rate)])
        checks = rec["checks"]
        rates = [rate for _, rate in sorted(fig3.points)]
        checks["fig3 miss rate never rises with ways (LRU inclusion)"] = all(
            b <= a for a, b in zip(rates, rates[1:]))
        checks["fig3 1024 KB point equals the engine's baseline"] = (
            dict(fig3.points)[1024 * 1024] == expect["baseline_mean_miss_rate"])
        checks["fig4 chosen point is one of the swept points"] = fig4.chosen in fig4.points
        checks["no stream built (warm start)"] = _streams_built(cache_dir) == 0

    return setup, timed, check


def reference_mix(args, cache_dir: Path, expect: dict):
    from repro.cache.prefetch import StridePrefetcher
    from repro.config import DEFAULT_PLATFORM
    from repro.core.baseline import BaselineDesign
    from repro.core.drowsy import DrowsySRAMDesign
    from repro.core.hybrid import HybridPartitionDesign
    from repro.dram import DRAMModel

    variants = {
        "baseline+dram": lambda s: BaselineDesign().run(
            s, DEFAULT_PLATFORM, dram_model=DRAMModel()),
        "baseline+stride": lambda s: BaselineDesign().run(
            s, DEFAULT_PLATFORM, prefetcher=StridePrefetcher()),
        "baseline-srrip": lambda s: BaselineDesign(policy="srrip").run(s, DEFAULT_PLATFORM),
        "drowsy": lambda s: DrowsySRAMDesign().run(s, DEFAULT_PLATFORM),
        "hybrid": lambda s: HybridPartitionDesign().run(s, DEFAULT_PLATFORM),
    }
    state = {}

    def setup():
        streams = state["streams"] = _open_streams(args, REF_APPS)
        REF_OPS.update({(v, a): functools.partial(run, streams[a])
                        for v, run in variants.items() for a in REF_APPS})
        if args.jobs > 1:
            # Forked once the streams are open, so the workers share their pages.
            state["pool"] = multiprocessing.get_context("fork").Pool(args.jobs)

    def timed():
        pool = state.get("pool")
        if pool is None:
            state["results"] = {op: _ref_op(op) for op in REF_OPS}
            return
        state["results"] = dict(zip(REF_OPS, pool.imap(_ref_op, REF_OPS)))
        pool.close()
        pool.join()  # reaped, so RUSAGE_CHILDREN holds the workers' CPU and RSS

    def check(rec):
        results = state["results"]
        rec["work_accesses"] = len(variants) * sum(len(s) for s in state["streams"].values())
        rec["ops"] += [[f"{v}:{a}", digest(payload(r))] for (v, a), r in results.items()]
        base = expect["baseline_l2_stats"]
        checks = rec["checks"]
        checks["DRAM model leaves the L2 unchanged"] = all(
            results["baseline+dram", a].l2_stats.to_dict() == base[a] for a in REF_APPS)
        checks["drowsy mode leaves the L2 unchanged"] = all(
            results["drowsy", a].l2_stats.to_dict() == base[a] for a in REF_APPS)
        issued = sum(results["baseline+stride", a].extras["prefetch_issued"] for a in REF_APPS)
        useful = sum(results["baseline+stride", a].extras["prefetch_useful"] for a in REF_APPS)
        checks["useful prefetches never exceed issued"] = useful <= issued
        checks["no stream built (warm start)"] = _streams_built(cache_dir) == 0
        checks["cache invariants"] = _invariants(results.values())
        rec["layers"].update({
            "dram.accesses": sum(results["baseline+dram", a].extras["dram_stats"].accesses
                                 for a in REF_APPS),
            "prefetch.issued": issued,
            "prefetch.useful_frac": useful / issued if issued else 0.0,
        })

    return setup, timed, check


def _ref_op(op):
    return REF_OPS[op]()


WORKLOADS = {"grid-cold": grid_cold, "design-space": design_space, "reference-mix": reference_mix}


def prebuild(args) -> dict:
    """Build the workload's streams through the engine; keep its baselines."""
    import numpy as np
    from repro.engine import JobSpec, run_jobs

    apps = REF_APPS if args.workload == "reference-mix" else APPS
    specs = [JobSpec("baseline", a, args.length, args.seed) for a in apps]
    outcomes = run_jobs(specs, jobs=args.jobs, store=None)
    return {
        "baseline_mean_miss_rate": float(np.mean(
            [o.result.l2_stats.demand_miss_rate for o in outcomes])),
        "baseline_l2_stats": {o.spec.app: o.result.l2_stats.to_dict() for o in outcomes},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--prebuild", action="store_true")
    parser.add_argument("--expect", help="JSON file written by --prebuild")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])

    if args.prebuild:
        Path(args.out).write_text(json.dumps(prebuild(args)))
        return 0

    recorder = None
    if args.traced:
        from spans import Recorder

        recorder = Recorder().install()
    span = recorder.span if recorder is not None else (lambda name: contextlib.nullcontext())
    expect = json.loads(Path(args.expect).read_text()) if args.expect else {}
    setup, timed, check = WORKLOADS[args.workload](args, cache_dir, expect)
    with span("setup"):
        setup()

    cpu0, _ = rusage()
    setup_end = time.time()
    t0 = time.perf_counter()
    with span("timed"):
        timed()
    wall = time.perf_counter() - t0
    if recorder is not None:
        recorder.active = False
    cpu1, peak_rss = rusage()

    import numpy
    from repro.engine.spec import SCHEMA_VERSION

    rec = {"setup_end": setup_end, "wall_s": wall, "cpu_s": cpu1 - cpu0,
           "peak_rss_mb": peak_rss, "schema": SCHEMA_VERSION, "numpy": numpy.__version__,
           "ops": [], "checks": {}, "layers": {}}
    check(rec)
    if recorder is not None:
        rec["layers"].update(recorder.layer_metrics())
        rec["missing_layers"] = recorder.missing_layers(args.workload)
        if args.spans:
            recorder.dump(args.spans)
    Path(args.out).write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Differential verification of the vectorized fast-path kernel.

The fast kernel (:mod:`repro.cache.fastsim`) promises *bit-identical*
``CacheStats`` against the per-access reference engine inside its
envelope.  This file is that promise, tested three ways:

1. the randomized differential harness (:mod:`repro.cache.diffsim`)
   sweeps trace x geometry x retention configurations;
2. the production entry points (``l1_filter`` and the fixed L2 designs)
   are replayed through both engines and compared field by field;
3. the dispatch layer is pinned down: what qualifies, what falls back,
   what ``engine="fast"`` rejects, and the ``REPRO_FASTSIM`` kill switch;
4. the dynamic partition design's epoch-chunked kernel is swept over
   randomized controller x technology x burst-shape configurations and
   compared on the *whole* ``DesignResult`` (timelines and resize
   counts included), plus its own dispatch rules;
5. the all-associativity kernel (``simulate_ways``) is compared, way
   count by way count, with per-geometry ``simulate_trace`` replays,
   including its declines and the kill switch;
6. the retention-free extensions — drowsy awake-time accounting on the
   segment kernel and the bank-level DRAM model fed by recorded miss
   events — are swept by their own samplers and compared on whole
   designs, including what still falls back;
7. the segment kernel's FIFO/SRRIP victim rules and its prefetch path
   are swept by their own sampler (stats plus issued/useful prefetch
   counts) and compared on whole designs, including the multi-segment
   and DRAM declines.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.cache import fastsim
from repro.cache.diffsim import (
    assert_case_equal,
    assert_dram_case_equal,
    assert_drowsy_case_equal,
    assert_dynamic_case_equal,
    assert_policy_case_equal,
    assert_ways_case_equal,
    sample_case,
    sample_dram_case,
    sample_drowsy_case,
    sample_dynamic_case,
    sample_policy_case,
    sample_ways_case,
)
from repro.cache.hierarchy import l1_filter
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.core.baseline import BaselineDesign
from repro.core.designs import make_design
from repro.core.drowsy import DrowsySRAMDesign
from repro.core.multi_retention import multi_retention_design
from repro.core.pipeline import replay_ways
from repro.core.search import sweep_partitions
from repro.core.static_partition import StaticPartitionDesign
from repro.trace.access import Trace
from repro.types import TRACE_DTYPE, AccessKind, Privilege

from conftest import make_trace, sequential_accesses

# The PR's acceptance floor is >= 20 randomized configurations; 24 covers
# both refresh modes (even seeds replay retention "none", odd seeds
# "invalidate") across the full geometry grid in diffsim.sample_case.
DIFF_SEEDS = range(24)


# ----------------------------------------------------------------------
# 1. randomized differential harness


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_kernel_matches_reference(seed):
    assert_case_equal(sample_case(seed))


def test_kernel_matches_reference_without_demand_column():
    """The no-demand specialization (the bench-shaped call) is exact too."""
    case = sample_case(3)
    geometry = case.geometry
    rng = np.random.default_rng(99)
    n = 2000
    addrs = (rng.integers(0, 64, size=n) * geometry.block_size).astype(np.uint64)
    privs = rng.integers(0, 2, size=n).astype(np.uint8)
    writes = rng.integers(0, 2, size=n) == 1
    ticks = np.arange(n, dtype=np.int64)

    cache = SetAssociativeCache(geometry, "lru")
    for tick, (addr, isw, priv) in enumerate(
        zip(addrs.tolist(), writes.tolist(), privs.tolist())
    ):
        cache.access(addr, isw, priv, tick)

    stats, events = fastsim.simulate_trace(geometry, ticks, addrs, privs, writes)
    assert events is None
    assert stats.to_dict() == cache.stats.to_dict()


def test_kernel_empty_trace():
    geometry = CacheGeometry(4096, 4)
    empty = np.zeros(0, dtype=np.int64)
    stats, events = fastsim.simulate_trace(
        geometry, empty, empty.astype(np.uint64), empty, empty.astype(bool)
    )
    assert stats.accesses == 0 and stats.misses == 0
    assert events is None


def test_kernel_rejects_unsupported_refresh_mode():
    geometry = CacheGeometry(4096, 4)
    empty = np.zeros(0, dtype=np.uint64)
    with pytest.raises(ValueError, match="refresh modes"):
        fastsim.simulate_trace(geometry, empty, empty, empty, empty,
                               refresh_mode="rewrite")
    with pytest.raises(ValueError, match="retention_ticks"):
        fastsim.simulate_trace(geometry, empty, empty, empty, empty,
                               refresh_mode="invalidate")


# ----------------------------------------------------------------------
# 2. production entry points


def _assert_streams_identical(ref, fast):
    for col in ("ticks", "addrs", "privs", "writes", "demand"):
        a, b = getattr(ref, col), getattr(fast, col)
        assert a.dtype == b.dtype, col
        assert np.array_equal(a, b), col
    assert ref.l1i_stats.to_dict() == fast.l1i_stats.to_dict()
    assert ref.l1d_stats.to_dict() == fast.l1d_stats.to_dict()
    assert ref.instructions == fast.instructions
    assert ref.trace_accesses == fast.trace_accesses
    assert ref.duration_ticks == fast.duration_ticks


def test_fast_l1_filter_matches_reference(browser_trace_small):
    ref = l1_filter(browser_trace_small, DEFAULT_PLATFORM, engine="reference")
    fast = l1_filter(browser_trace_small, DEFAULT_PLATFORM, engine="fast")
    _assert_streams_identical(ref, fast)


def test_fast_l1_filter_tiny_traces(tiny_platform):
    # Dirty write-backs: stores that alias in a 2-way L1D set.
    entries = sequential_accesses(6, kind=AccessKind.STORE)
    entries += [(10 + i, i * 64, AccessKind.LOAD, Privilege.KERNEL) for i in range(6)]
    entries += [(20 + i, 4096 + i * 64, AccessKind.IFETCH, Privilege.USER) for i in range(4)]
    entries.sort(key=lambda e: e[0])
    trace = make_trace(entries)
    ref = l1_filter(trace, tiny_platform, engine="reference")
    fast = l1_filter(trace, tiny_platform, engine="fast")
    _assert_streams_identical(ref, fast)


def test_fast_l1_filter_empty_trace(tiny_platform):
    trace = Trace("empty", np.zeros(0, dtype=TRACE_DTYPE), 0)
    ref = l1_filter(trace, tiny_platform, engine="reference")
    fast = l1_filter(trace, tiny_platform, engine="fast")
    _assert_streams_identical(ref, fast)


@pytest.mark.parametrize(
    "design_factory",
    [BaselineDesign, StaticPartitionDesign, multi_retention_design],
    ids=["baseline", "static", "static-stt"],
)
def test_fixed_designs_match_reference(design_factory, browser_stream_small):
    _assert_engines_agree(design_factory(), browser_stream_small, DEFAULT_PLATFORM)


def _assert_engines_agree(design, stream, platform):
    """Run ``design`` on both engines; return the fast result."""
    ref = design.run(stream, platform, engine="reference")
    fast = design.run(stream, platform, engine="fast")
    ref_d, fast_d = ref.to_dict(), fast.to_dict()
    assert ref_d["extras"].pop("sim_engine") == "reference"
    assert fast_d["extras"].pop("sim_engine") == "fastsim"
    assert ref_d == fast_d
    return fast


# At 10 MHz the retention windows are 100x shorter in ticks than at the
# default 1 GHz, so blocks on the small browser stream decay while
# resident and unobserved: both retention rules fire.
SLOW_CLOCK = dataclasses.replace(DEFAULT_PLATFORM, clock_hz=1e7)


def test_static_stt_matches_reference_where_retention_expires(browser_stream_small):
    stats = _assert_engines_agree(
        multi_retention_design(), browser_stream_small, SLOW_CLOCK).l2_stats
    assert stats.expiry_invalidations > 0
    assert stats.expiry_writebacks > 0


def test_static_stt_matches_reference_with_an_empty_segment(browser_stream_small):
    """A user-only stream leaves the kernel segment without a single row."""
    user_rows = browser_stream_small.privs == np.uint8(Privilege.USER)
    user_only = dataclasses.replace(browser_stream_small, **{
        name: col[user_rows] for name, col in browser_stream_small.columns().items()
    })
    result = _assert_engines_agree(multi_retention_design(), user_only, SLOW_CLOCK)
    assert result.segment("kernel").stats.accesses == 0
    assert result.segment("user").stats.expiry_invalidations > 0


def test_kernel_records_no_events_with_retention():
    geometry = CacheGeometry(4096, 4)
    empty = np.zeros(0, dtype=np.uint64)
    with pytest.raises(ValueError, match="record_events"):
        fastsim.simulate_trace(geometry, empty, empty, empty, empty, retention_ticks=100,
                               refresh_mode="invalidate", record_events=True)


# ----------------------------------------------------------------------
# 3. dispatch layer


def test_auto_engine_uses_fast_kernel(browser_stream_small):
    result = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "fastsim"


def test_auto_falls_back_for_prefetcher(browser_stream_small):
    """One prefetcher trained by two segments' misses needs their
    cross-segment order: a partitioned design stays on the reference
    engine, with a booked reason."""
    from repro.cache.prefetch import make_prefetcher

    before = obs.REGISTRY.counters.get("fastsim.decline.prefetch-segments", 0)
    result = StaticPartitionDesign().run(
        browser_stream_small, DEFAULT_PLATFORM,
        prefetcher=make_prefetcher("nextline"),
    )
    assert result.extras["sim_engine"] == "reference"
    assert obs.REGISTRY.counters["fastsim.decline.prefetch-segments"] == before + 1


def test_auto_falls_back_for_non_lru_policy(browser_stream_small):
    result = BaselineDesign(policy="plru").run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "reference"


def test_fast_engine_raises_when_disqualified(browser_stream_small):
    from repro.cache.prefetch import make_prefetcher

    with pytest.raises(ValueError, match="fast"):
        StaticPartitionDesign().run(
            browser_stream_small, DEFAULT_PLATFORM,
            prefetcher=make_prefetcher("nextline"), engine="fast",
        )
    with pytest.raises(ValueError, match="fast"):
        BaselineDesign(policy="plru").run(
            browser_stream_small, DEFAULT_PLATFORM, engine="fast"
        )


def test_fast_l1_filter_rejects_non_lru(browser_trace_small):
    with pytest.raises(ValueError, match="lru"):
        l1_filter(browser_trace_small, DEFAULT_PLATFORM, policy="plru", engine="fast")


def test_bad_engine_name_rejected(browser_trace_small, browser_stream_small):
    with pytest.raises(ValueError, match="engine"):
        l1_filter(browser_trace_small, DEFAULT_PLATFORM, engine="turbo")
    with pytest.raises(ValueError, match="engine"):
        BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM, engine="turbo")


def test_env_kill_switch(browser_stream_small, monkeypatch):
    monkeypatch.setenv("REPRO_FASTSIM", "0")
    assert not fastsim.enabled()
    result = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "reference"
    monkeypatch.setenv("REPRO_FASTSIM", "1")
    assert fastsim.enabled()


def test_supports_cache_envelope():
    geometry = CacheGeometry(8192, 4)
    assert fastsim.supports_cache(SetAssociativeCache(geometry, "lru"))
    assert not fastsim.supports_cache(SetAssociativeCache(geometry, "plru"))
    assert not fastsim.supports_cache(
        SetAssociativeCache(geometry, "lru", retention_ticks=100, refresh_mode="rewrite")
    )
    assert not fastsim.supports_cache(
        SetAssociativeCache(
            geometry, "lru", retention_ticks=100, refresh_mode="invalidate",
            retention_distribution="exponential",
        )
    )
    assert not fastsim.supports_cache(
        SetAssociativeCache(geometry, "lru", drowsy_window=50)
    )
    gated = SetAssociativeCache(geometry, "lru")
    gated.set_powered_ways(2, tick=0)
    assert not fastsim.supports_cache(gated)
    warm = SetAssociativeCache(geometry, "lru")
    warm.access(0, False, 0, 0)
    assert not fastsim.supports_cache(warm)


# ----------------------------------------------------------------------
# 4. the dynamic design's epoch-chunked kernel


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_dynamic_kernel_matches_reference(seed):
    assert_dynamic_case_equal(sample_dynamic_case(seed))


def test_dynamic_auto_engine_uses_fast_kernel(browser_stream_small):
    from repro.core.dynamic_partition import DynamicPartitionDesign

    result = DynamicPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "fastsim"


def test_dynamic_kill_switch_falls_back(browser_stream_small, monkeypatch):
    from repro.core.dynamic_partition import DynamicPartitionDesign

    monkeypatch.setenv("REPRO_FASTSIM", "0")
    result = DynamicPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "reference"


def test_dynamic_fast_engine_raises_when_disqualified(browser_stream_small):
    from repro.core.dynamic_partition import DynamicPartitionDesign

    with pytest.raises(ValueError, match="fast"):
        DynamicPartitionDesign(policy="plru").run(
            browser_stream_small, DEFAULT_PLATFORM, engine="fast"
        )
    with pytest.raises(ValueError, match="fast"):
        DynamicPartitionDesign(refresh_mode="rewrite").run(
            browser_stream_small, DEFAULT_PLATFORM, engine="fast"
        )


def test_dynamic_segment_rejects_bad_config():
    geometry = CacheGeometry(8192, 4)
    with pytest.raises(ValueError, match="refresh modes"):
        fastsim.EpochReplaySegment(geometry, refresh_mode="rewrite")
    with pytest.raises(ValueError, match="retention_ticks"):
        fastsim.EpochReplaySegment(geometry, refresh_mode="invalidate")
    seg = fastsim.EpochReplaySegment(geometry)
    with pytest.raises(ValueError, match="new_powered"):
        seg.set_powered_ways(0, tick=0)
    with pytest.raises(ValueError, match="new_powered"):
        seg.set_powered_ways(5, tick=0)


# ----------------------------------------------------------------------
# 5. the all-associativity kernel (one pass, every way count)


WAYS_SEEDS = range(24)


def _ways_equal_per_geometry(geometry, ways, addrs, privs, writes, demand):
    got = fastsim.simulate_ways(geometry, ways, addrs, privs, writes, demand)
    assert sorted(got) == sorted(set(ways))
    for w in ways:
        ref, _ = fastsim.simulate_trace(geometry.with_ways(w), None, addrs, privs, writes, demand)
        assert got[w].to_dict() == ref.to_dict(), f"W={w}"
    return got


@pytest.mark.parametrize("seed", WAYS_SEEDS)
def test_ways_kernel_matches_per_geometry_replay(seed):
    assert_ways_case_equal(sample_ways_case(seed))


def test_ways_kernel_empty_stream():
    empty = np.zeros(0, dtype=np.uint64)
    got = _ways_equal_per_geometry(
        CacheGeometry(4096, 4), (1, 2, 8), empty, empty.astype(np.uint8),
        empty.astype(bool), empty.astype(bool),
    )
    assert all(stats.accesses == 0 for stats in got.values())


def test_ways_kernel_single_way():
    rng = np.random.default_rng(5)
    n = 3000
    blocks = rng.integers(0, 96, size=n)
    _ways_equal_per_geometry(
        CacheGeometry(16 * 64, 1), (1,), (blocks * 64).astype(np.uint64),
        (blocks % 3 == 0).astype(np.uint8), rng.random(n) < 0.4, rng.random(n) < 0.9,
    )


def test_ways_kernel_credits_dirty_blocks_left_on_the_stack():
    # One set: four written blocks, then four reads push them to depths
    # 4..7, and nothing is touched again.  Every W < 8 evicted 8 - W
    # blocks, the written ones first, and none of them is re-referenced
    # or falls off the stack: only end-of-set crediting counts them.
    addrs = (np.arange(8, dtype=np.uint64) * np.uint64(64))
    writes = np.arange(8) < 4
    got = _ways_equal_per_geometry(
        CacheGeometry(64, 1), range(1, 9), addrs, np.zeros(8, dtype=np.uint8),
        writes, np.ones(8, dtype=bool),
    )
    assert [got[w].writebacks for w in range(1, 9)] == [4, 4, 4, 4, 3, 2, 1, 0]


def test_ways_kernel_declines_mixed_privilege_blocks():
    rng = np.random.default_rng(11)
    n = 2500
    blocks = rng.integers(0, 200, size=n)
    privs = rng.integers(0, 2, size=n).astype(np.uint8)  # blocks shared by both
    before = obs.REGISTRY.counters.get("fastsim.decline.mixed-privilege", 0)
    _ways_equal_per_geometry(
        CacheGeometry(8 * 64, 1), range(1, 13), (blocks * 64).astype(np.uint64), privs,
        rng.random(n) < 0.3, rng.random(n) < 0.85,
    )
    assert obs.REGISTRY.counters["fastsim.decline.mixed-privilege"] == before + 1


def test_ways_kernel_declines_wide_stacks():
    rng = np.random.default_rng(12)
    blocks = rng.integers(0, 150, size=800)
    before = obs.REGISTRY.counters.get("fastsim.decline.ways", 0)
    _ways_equal_per_geometry(
        CacheGeometry(64, 1), (1, fastsim.MAX_STACK_WAYS + 1), (blocks * 64).astype(np.uint64),
        np.zeros(800, dtype=np.uint8), rng.random(800) < 0.5, np.ones(800, dtype=bool),
    )
    assert obs.REGISTRY.counters["fastsim.decline.ways"] == before + 1


def test_ways_kernel_rejects_bad_way_counts():
    empty = np.zeros(0, dtype=np.uint64)
    with pytest.raises(ValueError, match="positive"):
        fastsim.simulate_ways(CacheGeometry(4096, 4), (0, 2), empty, empty, empty, empty)


def test_ways_kill_switch(browser_stream_small, monkeypatch):
    """Under the kill switch every way count replays through the
    reference engine, one counted replay per way count."""
    fast = replay_ways("baseline", browser_stream_small, DEFAULT_PLATFORM.l2, (2, 4))
    fast_points = sweep_partitions([browser_stream_small], DEFAULT_PLATFORM, (2, 4), (1, 3))
    monkeypatch.setenv("REPRO_FASTSIM", "0")
    before = obs.REGISTRY.counters.get("pipeline.dispatch.reference", 0)
    assert replay_ways("baseline", browser_stream_small, DEFAULT_PLATFORM.l2, (2, 4)) == fast
    assert obs.REGISTRY.counters["pipeline.dispatch.reference"] == before + 2
    assert sweep_partitions([browser_stream_small], DEFAULT_PLATFORM, (2, 4), (1, 3)) == fast_points


# ----------------------------------------------------------------------
# 6. drowsy accounting and the DRAM feed (retention-free extensions)


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_drowsy_segment_matches_reference(seed):
    assert_drowsy_case_equal(sample_drowsy_case(seed))


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_dram_feed_matches_reference(seed):
    assert_dram_case_equal(sample_dram_case(seed))


def test_segment_rejects_drowsy_with_retention():
    geometry = CacheGeometry(8192, 4)
    with pytest.raises(ValueError, match="drowsy_window"):
        fastsim.EpochReplaySegment(geometry, retention_ticks=100, refresh_mode="invalidate",
                                   drowsy_window=50)
    with pytest.raises(ValueError, match="drowsy_window"):
        fastsim.EpochReplaySegment(geometry, drowsy_window=0)


def _without_dram_stats(result):
    return dataclasses.replace(
        result, extras={k: v for k, v in result.extras.items() if k != "dram_stats"})


@pytest.mark.parametrize("design_name", ["baseline", "static-sram"])
def test_dram_model_designs_match_reference(design_name, browser_stream_small):
    from repro.dram import DRAMModel

    runs = {
        engine: make_design(design_name).run(
            browser_stream_small, DEFAULT_PLATFORM, dram_model=DRAMModel(), engine=engine)
        for engine in ("reference", "auto")
    }
    ref, fast = runs["reference"], runs["auto"]
    assert fast.extras["sim_engine"] == "fastsim"
    assert fast.extras["dram_stats"] == ref.extras["dram_stats"]
    assert fast.extras["dram_stats"].accesses > 0
    ref_d, fast_d = _without_dram_stats(ref).to_dict(), _without_dram_stats(fast).to_dict()
    assert ref_d["extras"].pop("sim_engine") == "reference"
    assert fast_d["extras"].pop("sim_engine") == "fastsim"
    assert ref_d == fast_d


def test_dram_model_with_retention_falls_back(browser_stream_small):
    """The retention kernel records no miss events: static-stt with a
    DRAM model stays on the reference engine, with a booked reason."""
    from repro.dram import DRAMModel

    before = obs.REGISTRY.counters.get("fastsim.decline.dram-retention", 0)
    result = multi_retention_design().run(
        browser_stream_small, DEFAULT_PLATFORM, dram_model=DRAMModel())
    assert result.extras["sim_engine"] == "reference"
    assert obs.REGISTRY.counters["fastsim.decline.dram-retention"] == before + 1
    with pytest.raises(ValueError, match="fast"):
        multi_retention_design().run(
            browser_stream_small, DEFAULT_PLATFORM, dram_model=DRAMModel(), engine="fast")


def test_dram_model_with_prefetcher_falls_back(browser_stream_small):
    from repro.cache.prefetch import make_prefetcher
    from repro.dram import DRAMModel

    result = BaselineDesign().run(
        browser_stream_small, DEFAULT_PLATFORM, dram_model=DRAMModel(),
        prefetcher=make_prefetcher("nextline"),
    )
    assert result.extras["sim_engine"] == "reference"


def test_drowsy_design_matches_reference(browser_stream_small):
    fast = _assert_engines_agree(DrowsySRAMDesign(), browser_stream_small, DEFAULT_PLATFORM)
    assert fast.extras["drowsy_wakeups"] > 0
    assert 0 < fast.extras["awake_fraction"] < 1


def test_drowsy_design_non_lru_falls_back(browser_stream_small):
    result = DrowsySRAMDesign(policy="plru").run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "reference"
    with pytest.raises(ValueError, match="fast"):
        DrowsySRAMDesign(policy="plru").run(
            browser_stream_small, DEFAULT_PLATFORM, engine="fast")


# ----------------------------------------------------------------------
# 7. FIFO/SRRIP victim rules and single-segment prefetch


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_policy_prefetch_segment_matches_reference(seed):
    assert_policy_case_equal(sample_policy_case(seed))


@pytest.mark.parametrize(
    "design",
    [BaselineDesign(policy="srrip"), BaselineDesign(policy="fifo"),
     StaticPartitionDesign(policy="srrip"), DrowsySRAMDesign(policy="fifo")],
    ids=["baseline-srrip", "baseline-fifo", "static-srrip", "drowsy-fifo"],
)
def test_policy_designs_match_reference(design, browser_stream_small):
    _assert_engines_agree(design, browser_stream_small, DEFAULT_PLATFORM)


class _PrefetchingBaseline:
    """The baseline behind a fresh prefetcher on every run."""

    def __init__(self, prefetcher: str, policy: str = "lru") -> None:
        self.prefetcher = prefetcher
        self.policy = policy

    def run(self, stream, platform, engine):
        from repro.cache.prefetch import make_prefetcher

        return BaselineDesign(policy=self.policy).run(
            stream, platform, prefetcher=make_prefetcher(self.prefetcher), engine=engine)


@pytest.mark.parametrize("prefetcher,policy", [("nextline", "lru"), ("stride", "lru"),
                                               ("stride", "srrip")])
def test_prefetch_designs_match_reference(prefetcher, policy, browser_stream_small):
    fast = _assert_engines_agree(
        _PrefetchingBaseline(prefetcher, policy), browser_stream_small, DEFAULT_PLATFORM)
    assert fast.extras["prefetch_useful"] > 0


def test_supports_cache_takes_fifo_and_srrip():
    geometry = CacheGeometry(8192, 4)
    for policy in ("fifo", "srrip"):
        assert fastsim.supports_cache(SetAssociativeCache(geometry, policy))
    assert not fastsim.supports_cache(SetAssociativeCache(geometry, "random"))


def test_segment_rejects_unknown_policy_and_non_lru_ranks():
    geometry = CacheGeometry(8192, 4)
    with pytest.raises(ValueError, match="policies"):
        fastsim.EpochReplaySegment(geometry, policy="plru")
    seg = fastsim.EpochReplaySegment(geometry, policy="srrip", min_rank_accesses=4)
    rows = np.arange(4)
    with pytest.raises(ValueError, match="hit ranks"):
        seg.load(rows, rows.astype(np.uint64) * np.uint64(64), np.zeros(4, dtype=np.uint8),
                 np.zeros(4, dtype=bool), np.ones(4, dtype=bool), np.zeros(4), 1)


@pytest.mark.parametrize("reason", ["prefetch-dram", "dram-policy"])
def test_dram_model_declines_prefetch_and_non_lru(reason, browser_stream_small):
    from repro.cache.prefetch import make_prefetcher
    from repro.dram import DRAMModel

    if reason == "prefetch-dram":
        design, kwargs = BaselineDesign(), {"prefetcher": make_prefetcher("stride")}
    else:
        design, kwargs = BaselineDesign(policy="srrip"), {}
    before = obs.REGISTRY.counters.get(f"fastsim.decline.{reason}", 0)
    result = design.run(browser_stream_small, DEFAULT_PLATFORM, dram_model=DRAMModel(), **kwargs)
    assert result.extras["sim_engine"] == "reference"
    assert obs.REGISTRY.counters[f"fastsim.decline.{reason}"] == before + 1

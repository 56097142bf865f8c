"""Randomized differential verification of fastsim against the reference.

The fast kernel (:mod:`repro.cache.fastsim`) is trusted *by construction*:
every release must show exact :class:`~repro.cache.stats.CacheStats`
equality with :class:`~repro.cache.set_assoc.SetAssociativeCache` over a
randomized family of trace × geometry × retention configurations.  This
module is that harness — ``tests/test_fastsim.py`` drives it across a
seed range, and it is importable for ad-hoc bisection::

    from repro.cache.diffsim import sample_case, run_case
    ref, fast = run_case(sample_case(seed=7))
    assert ref.to_dict() == fast.to_dict()

The all-associativity kernel (:func:`~repro.cache.fastsim.simulate_ways`)
has its own sampler, :func:`sample_ways_case`: every way count up to the
case's ``W_max`` must equal a :func:`~repro.cache.fastsim.simulate_trace`
replay of that geometry.

Two more samplers cover the kernel's retention-free extensions:
:func:`sample_drowsy_case` compares drowsy awake-time accounting
(``SetAssociativeCache(drowsy_window=...)`` against a one-chunk
:class:`~repro.cache.fastsim.EpochReplaySegment`), and
:func:`sample_dram_case` compares a bank-level DRAM model fed by
``ReplaySession.replay_fixed`` with one fed the fast replay's miss
events (:func:`~repro.cache.fastsim.try_run_fixed`), over one shared
or two privilege-split segments.

:func:`sample_policy_case` covers the segment kernel's victim rules
and prefetch path: FIFO, SRRIP and LRU segments, with and without a
prefetcher, against the reference cache driven by
``ReplaySession.replay_fixed`` (whose pending-prefetch bookkeeping
yields ``prefetch_issued``/``prefetch_useful``).

Workloads are deliberately adversarial for the envelope: sub-block
address offsets, skewed set pressure, both privilege levels, write-back
(non-demand) rows, and — for the retention cases — tick gaps sampled
around the retention window so expiry invalidations, expired-frame
reclaims and finalize-time drains all fire.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.cache.fastsim import replay_one_chunk, simulate_trace, simulate_ways, try_run_fixed
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import CacheGeometry, PlatformConfig
from repro.dram.model import DRAMConfig, DRAMModel

__all__ = [
    "DiffCase",
    "sample_case",
    "run_case",
    "assert_case_equal",
    "sample_drowsy_case",
    "run_drowsy_case",
    "assert_drowsy_case_equal",
    "PolicyDiffCase",
    "sample_policy_case",
    "run_policy_case",
    "assert_policy_case_equal",
    "DRAMDiffCase",
    "sample_dram_case",
    "run_dram_case",
    "assert_dram_case_equal",
    "WaysDiffCase",
    "sample_ways_case",
    "run_ways_case",
    "assert_ways_case_equal",
    "DynamicDiffCase",
    "sample_dynamic_case",
    "run_dynamic_case",
    "assert_dynamic_case_equal",
]


@dataclass(frozen=True)
class DiffCase:
    """One randomized configuration of the differential harness."""

    seed: int
    sets: int
    ways: int
    block_size: int
    refresh_mode: str           # "none" or "invalidate"
    retention_ticks: int | None
    length: int
    addr_blocks: int            # footprint, in distinct block addresses
    max_gap: int                # upper bound of inter-access tick gaps
    write_frac: float
    kernel_frac: float
    wb_frac: float              # fraction of rows marked non-demand
    drowsy_window: int | None = None
    policy: str = "lru"

    @property
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(
            self.sets * self.ways * self.block_size, self.ways, self.block_size
        )

    def describe(self) -> str:
        return (
            f"seed={self.seed} {self.sets}x{self.ways}w/{self.block_size}B "
            f"{self.refresh_mode}"
            + (f"(ret={self.retention_ticks})" if self.retention_ticks else "")
            + (f" drowsy={self.drowsy_window}" if self.drowsy_window else "")
            + (f" {self.policy}" if self.policy != "lru" else "")
            + f" n={self.length} blocks={self.addr_blocks} gap<={self.max_gap}"
        )


def sample_case(seed: int) -> DiffCase:
    """Draw one configuration; even seeds are retention-free, odd seeds
    use invalidate-on-expiry, so any seed range covers both modes."""
    rng = np.random.default_rng(seed)
    sets = int(rng.choice([1, 2, 4, 16, 64]))
    ways = int(rng.choice([1, 2, 3, 4, 8, 16]))
    block_size = int(rng.choice([32, 64, 128]))
    refresh_mode = "invalidate" if seed % 2 else "none"
    retention_ticks = int(rng.integers(20, 2_000)) if refresh_mode == "invalidate" else None
    capacity_blocks = sets * ways
    footprint = max(1, int(capacity_blocks * float(rng.choice([0.5, 1.0, 2.0, 4.0]))))
    if retention_ticks is not None:
        # Gaps straddling the window make expiry outcomes order-sensitive.
        max_gap = max(2, int(retention_ticks * float(rng.choice([0.05, 0.4, 1.5]))))
    else:
        max_gap = int(rng.choice([1, 4, 60]))
    return DiffCase(
        seed=seed,
        sets=sets,
        ways=ways,
        block_size=block_size,
        refresh_mode=refresh_mode,
        retention_ticks=retention_ticks,
        length=int(rng.integers(1_500, 4_000)),
        addr_blocks=footprint,
        max_gap=max_gap,
        write_frac=float(rng.uniform(0.05, 0.6)),
        kernel_frac=float(rng.uniform(0.1, 0.7)),
        wb_frac=float(rng.uniform(0.0, 0.25)),
    )


def _workload(case: DiffCase):
    """Generate the access columns of one case (deterministic per seed)."""
    rng = np.random.default_rng(case.seed ^ 0xFA57)
    n = case.length
    blocks = rng.integers(0, case.addr_blocks, size=n).astype(np.uint64)
    offsets = rng.integers(0, case.block_size, size=n).astype(np.uint64)
    addrs = blocks * np.uint64(case.block_size) + offsets
    ticks = np.cumsum(rng.integers(0, case.max_gap + 1, size=n)).astype(np.int64)
    writes = rng.random(n) < case.write_frac
    privs = (rng.random(n) < case.kernel_frac).astype(np.uint8)
    demand = rng.random(n) >= case.wb_frac
    final_tick = int(ticks[-1]) + case.max_gap + 1
    return ticks, addrs, privs, writes, demand, final_tick


def _replay_reference(case: DiffCase, ticks, addrs, privs, writes, demand, final_tick):
    """Replay one case's columns through a finalized reference cache."""
    cache = SetAssociativeCache(
        case.geometry,
        case.policy,
        retention_ticks=case.retention_ticks,
        refresh_mode=case.refresh_mode,
        drowsy_window=case.drowsy_window,
        name="diff-ref",
    )
    access = cache.access
    for tick, addr, priv, isw, dm in zip(
        ticks.tolist(), addrs.tolist(), privs.tolist(), writes.tolist(), demand.tolist()
    ):
        access(addr, isw, priv, tick, dm)
    cache.finalize(final_tick)
    cache.stats.check_invariants()
    return cache


def _raise_on_mismatch(ref_d: dict, fast_d: dict, what: str, describe: str) -> None:
    """Raise ``AssertionError`` with a field-level diff unless equal."""
    if ref_d != fast_d:
        mismatches = [
            f"  {key}: reference={ref_d[key]!r} fast={fast_d[key]!r}"
            for key in ref_d
            if ref_d[key] != fast_d[key]
        ]
        raise AssertionError(
            f"{what} diverged from the reference engine on "
            + describe + "\n" + "\n".join(mismatches)
        )


def run_case(case: DiffCase) -> tuple[CacheStats, CacheStats]:
    """Run one case through both engines; returns (reference, fast) stats."""
    ticks, addrs, privs, writes, demand, final_tick = _workload(case)
    cache = _replay_reference(case, ticks, addrs, privs, writes, demand, final_tick)
    fast_stats, _ = simulate_trace(
        case.geometry,
        ticks,
        addrs,
        privs,
        writes,
        demand,
        retention_ticks=case.retention_ticks,
        refresh_mode=case.refresh_mode,
        finalize_tick=final_tick,
    )
    return cache.stats, fast_stats


def assert_case_equal(case: DiffCase) -> None:
    """Raise ``AssertionError`` with a field-level diff on any mismatch."""
    ref, fast = run_case(case)
    _raise_on_mismatch(ref.to_dict(), fast.to_dict(), "fastsim", case.describe())


# ----------------------------------------------------------------------
# drowsy harness (awake-time accounting on the segment kernel)


def sample_drowsy_case(seed: int) -> DiffCase:
    """Draw one retention-free configuration with a drowsy window.

    The geometry and workload shape come from :func:`sample_case` (an
    even seed, so retention ``none``); inter-access gaps are resampled
    around the window so lines both stay awake between touches and
    drop into drowsy mode (wake-ups on hits, on evictions and at
    finalize).
    """
    rng = np.random.default_rng(seed ^ 0xD205)
    window = int(rng.integers(5, 2_000))
    gap = max(2, int(window * float(rng.choice([0.002, 0.02, 0.2, 1.5]))))
    return replace(sample_case(2 * seed), seed=seed, drowsy_window=window, max_gap=gap)


def run_drowsy_case(case: DiffCase) -> tuple[dict, dict]:
    """Run one drowsy case through both engines; returns (reference,
    fast) dicts of the stats plus ``awake_block_ticks`` and
    ``drowsy_wakeups``."""
    ticks, addrs, privs, writes, demand, final_tick = _workload(case)
    ref = _replay_reference(case, ticks, addrs, privs, writes, demand, final_tick)
    fast = replay_one_chunk(
        case.geometry, ticks, addrs, privs, writes, demand,
        drowsy_window=case.drowsy_window, finalize_tick=final_tick,
    )
    return tuple(
        {**c.stats.to_dict(), "awake_block_ticks": c.awake_block_ticks,
         "drowsy_wakeups": c.drowsy_wakeups}
        for c in (ref, fast)
    )


def assert_drowsy_case_equal(case: DiffCase) -> None:
    """Raise ``AssertionError`` with a field-level diff on any mismatch."""
    ref_d, fast_d = run_drowsy_case(case)
    _raise_on_mismatch(ref_d, fast_d, "the drowsy segment kernel", case.describe())


# ----------------------------------------------------------------------
# policy and prefetch harness (victim rules and prefetch fills)


@dataclass(frozen=True)
class PolicyDiffCase:
    """One randomized configuration of the policy/prefetch harness.

    ``base`` gives the geometry, retention mode, policy and workload
    shape; ``stream_frac`` of the rows walk strided streams (so the
    stride prefetcher confirms strides and next-line proposals hit).
    """

    base: DiffCase
    prefetcher: str | None      # None, "nextline" or "stride"
    degree: int
    stream_frac: float

    def describe(self) -> str:
        pf = f" {self.prefetcher}x{self.degree}" if self.prefetcher else ""
        return f"{self.base.describe()}{pf}"

    def make_prefetcher(self):
        from repro.cache.prefetch import make_prefetcher

        return make_prefetcher(self.prefetcher, self.degree) if self.prefetcher else None


def sample_policy_case(seed: int) -> PolicyDiffCase:
    """Draw one configuration on a small cache (1-8 sets, 1-4 ways), so
    SRRIP victim scans meet ties and age the set, and prefetch fills
    evict blocks that are still pending.

    ``seed % 3`` picks the policy (LRU, FIFO, SRRIP), ``seed % 2`` the
    retention mode (as in :func:`sample_case`) and ``seed // 6 % 3`` the
    prefetcher (none, next-line, stride): seeds 0-17 cover every
    combination once.
    """
    rng = np.random.default_rng(seed ^ 0x9F1C)
    sets = int(rng.choice([1, 2, 4, 8]))
    ways = int(rng.choice([1, 2, 3, 4]))
    base = replace(
        sample_case(seed),
        sets=sets,
        ways=ways,
        block_size=int(rng.choice([32, 64, 128])),
        addr_blocks=max(2, int(sets * ways * float(rng.choice([1.0, 2.0, 6.0])))),
        policy=("lru", "fifo", "srrip")[seed % 3],
    )
    return PolicyDiffCase(
        base=base,
        prefetcher=(None, "nextline", "stride")[seed // 6 % 3],
        degree=int(rng.choice([1, 2, 3])),
        stream_frac=float(rng.choice([0.2, 0.5, 0.8])),
    )


def _policy_workload(case: PolicyDiffCase):
    """The base workload with ``stream_frac`` of its rows rewritten as
    walks of four strided streams (strides of -2..3 blocks)."""
    ticks, addrs, privs, writes, demand, final_tick = _workload(case.base)
    rng = np.random.default_rng(case.base.seed ^ 0x57E4)
    n = len(addrs)
    block = case.base.block_size
    span = case.base.addr_blocks * 4
    heads = rng.integers(0, span, size=4)
    strides = rng.choice([-2, -1, 1, 2, 3], size=4)
    walked = rng.random(n) < case.stream_frac
    which = rng.integers(0, 4, size=n)
    addrs = addrs.copy()
    for i in np.nonzero(walked)[0].tolist():
        k = int(which[i])
        heads[k] = (heads[k] + strides[k]) % span
        addrs[i] = np.uint64(int(heads[k]) * block + int(addrs[i]) % block)
    return ticks, addrs, privs, writes, demand, final_tick


def run_policy_case(case: PolicyDiffCase) -> tuple[dict, dict]:
    """Run one case through both engines; returns (reference, fast)
    dicts of the stats plus ``prefetch_issued``/``prefetch_useful``."""
    from repro.cache.hierarchy import L2Stream
    from repro.core.pipeline import FixedSegment, ReplaySession
    from repro.energy.technology import sram

    base = case.base
    ticks, addrs, privs, writes, demand, final_tick = _policy_workload(case)
    stream = L2Stream(
        name=f"policy-diff-{base.seed}",
        ticks=ticks, addrs=addrs, privs=privs, writes=writes, demand=demand,
        instructions=len(ticks) * 3,
        trace_accesses=len(ticks) * 4,
        duration_ticks=final_tick,
        l1i_stats=CacheStats(),
        l1d_stats=CacheStats(),
    )
    cache = SetAssociativeCache(
        base.geometry, base.policy,
        retention_ticks=base.retention_ticks, refresh_mode=base.refresh_mode,
    )
    _, issued, useful = ReplaySession("policy-diff", stream, "reference").replay_fixed(
        [FixedSegment("seg", cache, sram())], lambda priv: cache,
        prefetcher=case.make_prefetcher(),
    )
    cache.stats.check_invariants()
    ref = {**cache.stats.to_dict(), "prefetch_issued": issued, "prefetch_useful": useful}

    seg = replay_one_chunk(
        base.geometry, ticks, addrs, privs, writes, demand,
        retention_ticks=base.retention_ticks, refresh_mode=base.refresh_mode,
        finalize_tick=final_tick, policy=base.policy, prefetcher=case.make_prefetcher(),
    )
    fast = {**seg.stats.to_dict(), "prefetch_issued": seg.prefetch_issued,
            "prefetch_useful": seg.prefetch_useful}
    if base.refresh_mode == "none":
        # Without retention a block leaves the cache only as a victim,
        # and replay_fixed retires every victim: what stays pending is
        # resident.  (A stale entry is never credited — a block comes
        # back only through a miss, which resets it — so this is the
        # one place a skipped retire shows.)
        stale = len(seg._pending - seg._tagmap.keys())
        if stale:
            raise AssertionError(
                f"{stale} evicted blocks still pending in the segment kernel on "
                + case.describe())
    return ref, fast


def assert_policy_case_equal(case: PolicyDiffCase) -> None:
    """Raise ``AssertionError`` with a field-level diff on any mismatch."""
    ref_d, fast_d = run_policy_case(case)
    _raise_on_mismatch(ref_d, fast_d, "the segment kernel's policy/prefetch path",
                       case.describe())


# ----------------------------------------------------------------------
# DRAM harness (the bank-level model fed by recorded miss events)


@dataclass(frozen=True)
class DRAMDiffCase:
    """One randomized configuration of the DRAM harness.

    ``base`` (a retention-free :class:`DiffCase`) gives the workload and
    the geometry of the shared segment — or, with ``kernel_ways`` set,
    of the user segment, next to a kernel segment of that many ways.
    """

    base: DiffCase
    kernel_ways: int | None
    banks: int
    row_bytes: int

    def describe(self) -> str:
        split = f" kernel={self.kernel_ways}w" if self.kernel_ways else " shared"
        return f"{self.base.describe()}{split} dram={self.banks}b/{self.row_bytes}B"


def sample_dram_case(seed: int) -> DRAMDiffCase:
    """Draw one configuration: one shared or two privilege-split
    retention-free segments behind a small bank-level DRAM (few banks
    and short rows, so row hits, row misses and busy-bank waits all
    occur on the short workloads)."""
    rng = np.random.default_rng(seed ^ 0xD7A3)
    return DRAMDiffCase(
        base=replace(sample_case(2 * seed), seed=seed),
        kernel_ways=int(rng.choice([1, 2, 4])) if rng.random() < 0.5 else None,
        banks=int(rng.choice([1, 2, 8])),
        row_bytes=int(rng.choice([256, 2048])),
    )


def run_dram_case(case: DRAMDiffCase) -> tuple[dict, dict]:
    """Run one case through both engines; returns (reference, fast)
    dicts of the read stall, the DRAM stats and every segment's stats."""
    from repro.cache.hierarchy import L2Stream
    from repro.core.pipeline import FixedSegment, ReplaySession
    from repro.energy.technology import sram

    ticks, addrs, privs, writes, demand, final_tick = _workload(case.base)
    stream = L2Stream(
        name=f"dram-diff-{case.base.seed}",
        ticks=ticks, addrs=addrs, privs=privs, writes=writes, demand=demand,
        instructions=len(ticks) * 3,
        trace_accesses=len(ticks) * 4,
        duration_ticks=final_tick,
        l1i_stats=CacheStats(),
        l1d_stats=CacheStats(),
    )
    config = DRAMConfig(banks=case.banks, row_bytes=case.row_bytes)

    def build():
        geometry = case.base.geometry
        segments = [FixedSegment("user", SetAssociativeCache(geometry, "lru"), sram())]
        if case.kernel_ways:
            kernel = SetAssociativeCache(geometry.with_ways(case.kernel_ways), "lru")
            segments.append(FixedSegment("kernel", kernel, sram()))
        caches = [seg.cache for seg in segments]
        return segments, lambda priv: caches[priv] if case.kernel_ways else caches[0]

    def outcome(segments, dram, read_stall):
        return {"read_stall": read_stall, "dram_stats": asdict(dram.stats),
                **{seg.name: seg.cache.stats.to_dict() for seg in segments}}

    segments, router = build()
    dram = DRAMModel(config)
    read_stall, _, _ = ReplaySession("dram-diff", stream, "reference").replay_fixed(
        segments, router, dram)
    ref = outcome(segments, dram, read_stall)

    segments, router = build()
    dram = DRAMModel(config)
    fast = outcome(segments, dram, try_run_fixed(stream, segments, router, dram)[0])
    return ref, fast


def assert_dram_case_equal(case: DRAMDiffCase) -> None:
    """Raise ``AssertionError`` with a field-level diff on any mismatch."""
    ref_d, fast_d = run_dram_case(case)
    _raise_on_mismatch(ref_d, fast_d, "the DRAM feed", case.describe())


# ----------------------------------------------------------------------
# all-associativity harness (one pass, every way count)


@dataclass(frozen=True)
class WaysDiffCase:
    """One randomized configuration of the all-ways harness.

    Each block is touched at one privilege only (the kernel's
    precondition for its eviction matrix, and what every L1-filtered
    stream satisfies), so the case exercises the one-pass kernel rather
    than its per-way-count fallback.
    """

    seed: int
    sets: int
    max_ways: int
    block_size: int
    length: int
    addr_blocks: int
    write_frac: float
    kernel_frac: float          # fraction of *blocks* owned by the kernel
    wb_frac: float

    @property
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(self.sets * self.block_size, 1, self.block_size)

    def describe(self) -> str:
        return (
            f"seed={self.seed} {self.sets}s/{self.block_size}B W<={self.max_ways} "
            f"n={self.length} blocks={self.addr_blocks}"
        )


def sample_ways_case(seed: int) -> WaysDiffCase:
    """Draw one configuration: 1..64 sets, ``W_max`` in 1..32."""
    rng = np.random.default_rng(seed ^ 0xA11A)
    sets = int(rng.choice([1, 2, 4, 8, 16, 32, 64]))
    max_ways = int(rng.integers(1, 33))
    footprint = max(1, int(sets * max_ways * float(rng.choice([0.5, 1.0, 2.0, 4.0]))))
    return WaysDiffCase(
        seed=seed,
        sets=sets,
        max_ways=max_ways,
        block_size=int(rng.choice([32, 64, 128])),
        length=int(rng.integers(500, 4_000)),
        addr_blocks=footprint,
        write_frac=float(rng.uniform(0.05, 0.6)),
        kernel_frac=float(rng.uniform(0.0, 1.0)),
        wb_frac=float(rng.uniform(0.0, 0.25)),
    )


def _ways_workload(case: WaysDiffCase):
    """(addrs, privs, writes, demand) of one case, one privilege per block."""
    rng = np.random.default_rng(case.seed ^ 0x5A5A)
    n = case.length
    blocks = rng.integers(0, case.addr_blocks, size=n)
    owner = (rng.random(case.addr_blocks) < case.kernel_frac).astype(np.uint8)
    offsets = rng.integers(0, case.block_size, size=n).astype(np.uint64)
    addrs = blocks.astype(np.uint64) * np.uint64(case.block_size) + offsets
    writes = rng.random(n) < case.write_frac
    demand = rng.random(n) >= case.wb_frac
    return addrs, owner[blocks], writes, demand


def run_ways_case(case: WaysDiffCase) -> tuple[dict, dict]:
    """Returns ({W: per-geometry stats}, {W: all-ways stats}), W = 1..W_max."""
    addrs, privs, writes, demand = _ways_workload(case)
    ways = range(1, case.max_ways + 1)
    fast = simulate_ways(case.geometry, ways, addrs, privs, writes, demand)
    ref = {
        w: simulate_trace(case.geometry.with_ways(w), None, addrs, privs, writes, demand)[0]
        for w in ways
    }
    return ref, fast


def assert_ways_case_equal(case: WaysDiffCase) -> None:
    """Raise ``AssertionError`` naming the first way count that differs."""
    ref, fast = run_ways_case(case)
    for w, stats in ref.items():
        ref_d, fast_d = stats.to_dict(), fast[w].to_dict()
        if ref_d != fast_d:
            mismatches = [
                f"  {key}: per-geometry={ref_d[key]!r} all-ways={fast_d[key]!r}"
                for key in ref_d
                if ref_d[key] != fast_d[key]
            ]
            raise AssertionError(
                f"the all-ways kernel diverged at W={w} on " + case.describe() + "\n"
                + "\n".join(mismatches)
            )


# ----------------------------------------------------------------------
# dynamic-design differential harness (epoch-chunked replay)


@dataclass(frozen=True)
class DynamicDiffCase:
    """One randomized configuration of the dynamic-design harness.

    Covers the full :class:`~repro.core.dynamic_partition.
    DynamicPartitionDesign` run — controller resizes, idle gating,
    wake-on-first-access, retention expiry and gating semantics — not
    just raw cache counters, so equality is asserted on the whole
    :class:`~repro.core.result.DesignResult` (timelines, resize counts
    and energy/timing numbers included).
    """

    seed: int
    sets: int
    block_size: int
    clock_hz: float             # low clocks shrink retention windows
    epoch_ticks: int
    max_user_ways: int
    max_kernel_ways: int
    start_user_ways: int
    start_kernel_ways: int
    idle_accesses: int
    decision_accesses: int
    grow_step: int
    user_tech: str              # STT retention class, or "sram"
    kernel_tech: str
    bursts: int
    burst_len: int
    burst_gap: int              # upper bound of intra-burst tick gaps
    idle_gap: int               # upper bound of inter-burst idle spans
    addr_blocks: int
    write_frac: float
    kernel_frac: float
    wb_frac: float

    def describe(self) -> str:
        return (
            f"seed={self.seed} {self.sets}s/{self.block_size}B clock={self.clock_hz:g} "
            f"epoch={self.epoch_ticks} user={self.user_tech}<= {self.max_user_ways}w "
            f"kernel={self.kernel_tech}<={self.max_kernel_ways}w "
            f"bursts={self.bursts}x{self.burst_len} idle<={self.idle_gap}"
        )


def sample_dynamic_case(seed: int) -> DynamicDiffCase:
    """Draw one dynamic-design configuration.

    Workloads are bursty with multi-epoch idle gaps — the shape the
    controller exists for — so idle gating, wake-on-first-access and
    regrowth all fire.  Technologies mix retention classes with SRAM
    (volatile gating: contents lost when a way powers off), and low
    clock rates pull the retention windows inside the trace span.
    """
    rng = np.random.default_rng(seed ^ 0xD1FF)
    epoch_ticks = int(rng.choice([2_000, 5_000, 12_500, 25_000]))
    max_user = int(rng.integers(2, 11))
    max_kernel = int(rng.integers(2, 7))
    techs = ["short", "medium", "long", "sram"]
    return DynamicDiffCase(
        seed=seed,
        sets=int(rng.choice([4, 16, 64])),
        block_size=int(rng.choice([32, 64])),
        clock_hz=float(rng.choice([1e5, 3e5, 1e6])),
        epoch_ticks=epoch_ticks,
        max_user_ways=max_user,
        max_kernel_ways=max_kernel,
        start_user_ways=int(rng.integers(1, max_user + 1)),
        start_kernel_ways=int(rng.integers(1, max_kernel + 1)),
        idle_accesses=int(rng.choice([0, 8, 24])),
        decision_accesses=int(rng.choice([40, 120, 300])),
        grow_step=int(rng.choice([1, 3])),
        user_tech=str(rng.choice(techs)),
        kernel_tech=str(rng.choice(techs)),
        bursts=int(rng.integers(4, 12)),
        burst_len=int(rng.integers(200, 900)),
        burst_gap=int(rng.choice([4, 16, 40])),
        idle_gap=int(epoch_ticks * float(rng.choice([0.5, 2.0, 6.0]))),
        addr_blocks=int(rng.integers(64, 2_048)),
        write_frac=float(rng.uniform(0.05, 0.6)),
        kernel_frac=float(rng.uniform(0.1, 0.7)),
        wb_frac=float(rng.uniform(0.0, 0.25)),
    )


def _dynamic_stream(case: DynamicDiffCase):
    """Synthesize a bursty L2 stream for one case (deterministic)."""
    from repro.cache.hierarchy import L2Stream

    rng = np.random.default_rng(case.seed ^ 0xB0057)
    n = case.bursts * case.burst_len
    gaps = rng.integers(1, case.burst_gap + 1, size=n)
    # every burst boundary opens an idle span, often several epochs long
    starts = np.arange(0, n, case.burst_len)[1:]
    gaps[starts] += rng.integers(0, case.idle_gap + 1, size=len(starts))
    ticks = np.cumsum(gaps).astype(np.int64)
    blocks = rng.integers(0, case.addr_blocks, size=n).astype(np.uint64)
    offsets = rng.integers(0, case.block_size, size=n).astype(np.uint64)
    addrs = blocks * np.uint64(case.block_size) + offsets
    return L2Stream(
        name=f"dyn-diff-{case.seed}",
        ticks=ticks,
        addrs=addrs,
        privs=(rng.random(n) < case.kernel_frac).astype(np.uint8),
        writes=rng.random(n) < case.write_frac,
        demand=rng.random(n) >= case.wb_frac,
        instructions=n * 3,
        trace_accesses=n * 4,
        duration_ticks=int(ticks[-1]) + case.burst_gap + 1,
        l1i_stats=CacheStats(),
        l1d_stats=CacheStats(),
    )


def run_dynamic_case(case: DynamicDiffCase):
    """Run one case through both engines; returns (reference, fast)
    :class:`~repro.core.result.DesignResult` objects."""
    from repro.core.dynamic_partition import (
        DynamicControllerConfig,
        DynamicPartitionDesign,
    )
    from repro.energy.technology import sram, stt_ram

    def tech(name):
        return sram() if name == "sram" else stt_ram(name)

    config = DynamicControllerConfig(
        epoch_ticks=case.epoch_ticks,
        max_user_ways=case.max_user_ways,
        max_kernel_ways=case.max_kernel_ways,
        start_user_ways=case.start_user_ways,
        start_kernel_ways=case.start_kernel_ways,
        idle_accesses=case.idle_accesses,
        decision_accesses=case.decision_accesses,
        grow_step=case.grow_step,
    )
    design = DynamicPartitionDesign(
        config=config,
        user_tech=tech(case.user_tech),
        kernel_tech=tech(case.kernel_tech),
    )
    l2_ways = max(case.max_user_ways, case.max_kernel_ways)
    platform = PlatformConfig(
        l1i=CacheGeometry(32 * 1024, 4, case.block_size),
        l1d=CacheGeometry(32 * 1024, 4, case.block_size),
        l2=CacheGeometry(case.sets * l2_ways * case.block_size, l2_ways, case.block_size),
        clock_hz=case.clock_hz,
    )
    stream = _dynamic_stream(case)
    ref = design.run(stream, platform, engine="reference")
    fast = design.run(stream, platform, engine="fast")
    return ref, fast


def assert_dynamic_case_equal(case: DynamicDiffCase) -> None:
    """Raise ``AssertionError`` with a field-level diff on any mismatch."""
    ref, fast = run_dynamic_case(case)
    ref_d, fast_d = ref.to_dict(), fast.to_dict()
    assert ref_d["extras"].pop("sim_engine") == "reference"
    assert fast_d["extras"].pop("sim_engine") == "fastsim"
    _raise_on_mismatch(ref_d, fast_d, "the epoch-chunked kernel", case.describe())

"""Property-based tests (hypothesis) on core invariants.

These pin down the behaviours everything else is built on:

* the LRU cache engine matches a brute-force reference model,
* statistics conservation laws hold under arbitrary traffic,
* the static design's privilege segments are exactly two independent caches,
* retention can only remove hits, never add them,
* energy accounting is monotone in its inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.core.static_partition import StaticPartitionDesign
from repro.energy.model import segment_energy
from repro.energy.technology import sram
from repro.trace.generator import generate_trace
from repro.trace.workloads import app_profile
from repro.types import Privilege

# An access: (block index, is_write, privilege)
access_strategy = st.tuples(
    st.integers(min_value=0, max_value=63),
    st.booleans(),
    st.integers(min_value=0, max_value=1),
)
traffic = st.lists(access_strategy, min_size=1, max_size=300)

GEOMETRY = CacheGeometry(8 * 4 * 64, 4)  # 8 sets, 4 ways


class ReferenceLRU:
    """Brute-force fully-explicit LRU model for differential testing."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = sets
        self.ways = ways
        self.stacks: list[list[int]] = [[] for _ in range(sets)]

    def access(self, block: int) -> bool:
        set_i = block % self.sets
        tag = block // self.sets
        stack = self.stacks[set_i]
        hit = tag in stack
        if hit:
            stack.remove(tag)
        elif len(stack) == self.ways:
            stack.pop(0)
        stack.append(tag)
        return hit


@given(traffic)
@settings(max_examples=120, deadline=None)
def test_lru_cache_matches_reference_model(accs):
    cache = SetAssociativeCache(GEOMETRY, "lru")
    ref = ReferenceLRU(GEOMETRY.num_sets, GEOMETRY.associativity)
    for i, (block, is_write, priv) in enumerate(accs):
        got = cache.access(block * 64, is_write, priv, i).hit
        expected = ref.access(block)
        assert got == expected


@given(traffic)
@settings(max_examples=100, deadline=None)
def test_stats_conservation(accs):
    cache = SetAssociativeCache(GEOMETRY, "lru")
    for i, (block, is_write, priv) in enumerate(accs):
        cache.access(block * 64, is_write, priv, i)
    st_ = cache.stats
    st_.check_invariants()
    assert st_.accesses == len(accs)
    assert st_.fills == st_.misses  # no retention: every miss fills
    live = sum(len(t) for t in cache._tagmaps)
    assert st_.fills - st_.evictions == live  # block conservation


@given(traffic)
@settings(max_examples=80, deadline=None)
def test_partitioned_equals_independent_caches(accs):
    """The static design's user/kernel segments == two standalone caches."""
    platform = DEFAULT_PLATFORM.with_l2(GEOMETRY)
    seg_geom = GEOMETRY.with_ways(2)
    solo = {p: SetAssociativeCache(seg_geom, "lru") for p in (0, 1)}
    for i, (block, is_write, priv) in enumerate(accs):
        solo[priv].access(block * 64, is_write, priv, i)
    n = len(accs)
    stream = L2Stream(
        name="prop",
        ticks=np.arange(n, dtype=np.int64),
        addrs=np.array([a[0] * 64 for a in accs], dtype=np.uint64),
        privs=np.array([a[2] for a in accs], dtype=np.uint8),
        writes=np.array([a[1] for a in accs], dtype=bool),
        demand=np.ones(n, dtype=bool),
        instructions=n, trace_accesses=n, duration_ticks=n,
        l1i_stats=CacheStats(), l1d_stats=CacheStats(),
    )
    result = StaticPartitionDesign(user_ways=2, kernel_ways=2).run(
        stream, platform, engine="reference")
    for name, priv in (("user", Privilege.USER), ("kernel", Privilege.KERNEL)):
        got, want = result.segment(name).stats, solo[priv].stats
        assert (got.hits, got.misses, got.evictions) == (want.hits, want.misses, want.evictions)
        assert got.cross_privilege_evictions == 0


@given(traffic)
@settings(max_examples=80, deadline=None)
def test_retention_never_adds_hits(accs):
    """A finite-retention cache hits at most as often as an infinite one."""
    inf = SetAssociativeCache(GEOMETRY, "lru")
    fin = SetAssociativeCache(GEOMETRY, "lru", retention_ticks=20, refresh_mode="invalidate")
    inf_hits = fin_hits = 0
    for i, (block, is_write, priv) in enumerate(accs):
        tick = i * 7
        inf_hits += inf.access(block * 64, is_write, priv, tick).hit
        fin_hits += fin.access(block * 64, is_write, priv, tick).hit
    assert fin_hits <= inf_hits


@given(traffic)
@settings(max_examples=60, deadline=None)
def test_gating_and_ungating_never_corrupts(accs):
    """Alternating power gating keeps every invariant intact."""
    cache = SetAssociativeCache(GEOMETRY, "lru")
    for i, (block, is_write, priv) in enumerate(accs):
        if i % 17 == 5:
            cache.set_powered_ways(1 + (i % GEOMETRY.associativity), i)
        cache.access(block * 64, is_write, priv, i)
    cache.stats.check_invariants()
    # tagmap must agree with frames
    for set_i in range(GEOMETRY.num_sets):
        frames = cache._frames[set_i]
        tagmap = cache._tagmaps[set_i]
        assert len(tagmap) == sum(e is not None for e in frames)
        for tag, way in tagmap.items():
            assert frames[way] is not None and frames[way].tag == tag


@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_leakage_monotone_in_size_and_time(size_mb_times_16, seconds):
    tech = sram()
    size = size_mb_times_16 * 64 * 1024
    stats = CacheStats()
    small = segment_energy(stats, tech, size, size * seconds)
    big = segment_energy(stats, tech, size * 2, size * 2 * seconds)
    assert big.leakage_j >= small.leakage_j


@given(st.integers(min_value=100, max_value=3000), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_generator_invariants(length, seed):
    trace = generate_trace(app_profile("game"), length, seed=seed)
    assert len(trace) == length
    assert trace.instructions >= length
    import numpy as np

    assert np.all(np.diff(trace.ticks.astype(np.int64)) >= 0)
    kernel = trace.privilege_mask(Privilege.KERNEL)
    assert np.all(trace.addrs[kernel] >= 0xC000_0000)
    assert np.all(trace.addrs[~kernel] < 0xC000_0000)

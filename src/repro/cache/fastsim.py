"""Vectorized fast-path simulation kernel for set-associative caches.

The reference engine (:class:`repro.cache.set_assoc.SetAssociativeCache`)
pays per-access Python overhead — an ``Entry`` object per block, a
replacement-policy virtual call per access, an ``AccessResult`` per call —
which bounds every experiment at single-digit M-accesses/s.  This module
replays an *entire trace at once* instead:

1. NumPy decomposes all addresses into (set, tag) columns and groups the
   trace by set (one stable argsort); every scalar counter that does not
   depend on hit/miss outcomes (access totals, privilege and write splits)
   is reduced vectorially.
2. Each set is then replayed by a tight loop over packed parallel lists
   (tag / privilege / dirty, plus a move-to-back LRU order) — no
   objects, no dispatch, no per-access allocation.

The kernel is **bit-identical** to the reference engine inside its
supported envelope (checked by :func:`supports_cache` for fixed
designs):

* true-LRU replacement, or FIFO and SRRIP as victim rules of
  :class:`EpochReplaySegment`,
* retention ``none``, or ``invalidate`` with the fixed-window model,
* drowsy awake-time accounting without a retention window (the drowsy
  SRAM design, through :class:`EpochReplaySegment`),
* a bank-level DRAM model behind retention-free LRU fixed segments: the
  model never changes cache state, so :func:`try_run_fixed` feeds it
  the recorded demand misses and write-backs in stream order,
* an L2 prefetcher behind one segment that serves the whole stream:
  the segment trains it at each demand miss and replays its proposals
  right after the miss, in the reference order.

The module has exactly three per-access LRU loops:

* ``_replay_sets`` — fixed LRU geometry without retention or prefetch
  (the L1 filter and the DRAM feed, which alone record per-miss
  events, and every LRU SRAM segment);
* :meth:`EpochReplaySegment.replay_chunk` — everything with a retention
  window, way gating, drowsy accounting, FIFO/SRRIP replacement or a
  prefetcher.  It replays the dynamic
  partition design's **epoch-chunked** stream: the geometry stays fixed
  *within* a chunk (one controller epoch), while powered-way gating and
  wake-on-first-access are applied between chunks — exactly where the
  reference engine applies them — so the epoch controller's decisions,
  timelines and resize counters come out bit-identical too.  A fixed
  ``invalidate`` replay and a drowsy replay are the same segment run as
  one chunk (:func:`replay_one_chunk`), so the retention, drowsy,
  victim and prefetch rules live in one place;
* ``_stack_sets`` — behind :func:`simulate_ways`, the all-associativity
  form of the LRU replay: by stack inclusion, one pass over per-set
  recency stacks gives the stats of every way count at a fixed set
  count (the Figure 3 size sweep and the static-partition search use
  it).

Everything outside the envelope — ``rewrite`` refresh, exponential
retention lifetimes, PLRU and random replacement, one prefetcher behind
two segments (it trains on their misses in cross-segment order), and a
DRAM model behind a retention or FIFO/SRRIP segment or with a
prefetcher — falls back to the reference engine.
``tests/test_fastsim.py`` holds the randomized differential harness
(:mod:`repro.cache.diffsim`) that proves the exact
:class:`~repro.cache.stats.CacheStats` equality this module promises,
for fixed, all-associativity, epoch-chunked, drowsy, DRAM-fed and
policy/prefetch replay alike.

Set ``REPRO_FASTSIM=0`` to disable the fast path globally (every replay
then uses the reference engine, useful when bisecting a discrepancy).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cache.prefetch import Prefetcher
from repro.cache.replacement import FIFOPolicy, LRUPolicy, SRRIPPolicy
from repro.cache.stats import CacheStats
from repro.config import CacheGeometry, PlatformConfig
from repro.types import AccessKind, Privilege

__all__ = [
    "enabled",
    "supports_cache",
    "simulate_trace",
    "simulate_ways",
    "EpochReplaySegment",
    "replay_one_chunk",
    "MissEvents",
    "fast_l1_filter",
    "try_run_fixed",
]

#: Refresh modes the kernel reproduces exactly.
SUPPORTED_REFRESH_MODES = ("none", "invalidate")

#: Replacement policies :class:`EpochReplaySegment` reproduces exactly,
#: by reference policy class.
SEGMENT_POLICIES = {LRUPolicy: "lru", FIFOPolicy: "fifo", SRRIPPolicy: "srrip"}

#: SRRIP's distant re-reference prediction value (``SRRIPPolicy.max_rrpv``).
_RRPV_MAX = SRRIPPolicy.max_rrpv

#: Rows :class:`EpochReplaySegment` converts to Python lists at a time.
_ROW_SLICE = 1 << 15


def enabled() -> bool:
    """True unless the ``REPRO_FASTSIM`` environment variable disables us."""
    return os.environ.get("REPRO_FASTSIM", "1").strip().lower() not in ("0", "false", "off")


def supports_cache(cache) -> bool:
    """True when ``cache`` (a fresh ``SetAssociativeCache``) is inside the
    kernel's exact-equivalence envelope.

    The cache must be untouched (no accesses, no resident blocks): the
    kernel replays from a cold array, so a warm reference cache cannot be
    taken over mid-run.
    """
    return (
        type(cache.policy) in SEGMENT_POLICIES
        and cache.refresh_mode in SUPPORTED_REFRESH_MODES
        and cache.retention_distribution == "fixed"
        and cache.drowsy_window is None
        and cache.powered_ways == cache.ways
        and cache.stats.accesses == 0
        and all(not tagmap for tagmap in cache._tagmaps)
    )


@dataclass
class MissEvents:
    """Per-miss side channel of one :func:`simulate_trace` run.

    ``miss_idx`` lists the caller-supplied index of every missing access
    (in replay order); ``wb_idx``/``wb_addr``/``wb_priv`` describe the
    dirty LRU victim written back by the miss at the same index.  The L1
    filter turns these into the demand/write-back rows of an
    :class:`~repro.cache.hierarchy.L2Stream`.
    """

    miss_idx: list
    wb_idx: list
    wb_addr: np.ndarray
    wb_priv: list


def simulate_trace(
    geometry: CacheGeometry,
    ticks,
    addrs,
    privs,
    writes,
    demand=None,
    *,
    retention_ticks: int | None = None,
    refresh_mode: str = "none",
    finalize_tick: int | None = None,
    record_events: bool = False,
    orig_indices: np.ndarray | None = None,
) -> tuple[CacheStats, MissEvents | None]:
    """Replay one access stream through an array-backed LRU cache.

    Args:
        geometry: Cache geometry (fixed for the whole run).
        ticks, addrs, privs, writes: Parallel access columns (any
            array-likes; addresses may carry sub-block offsets).  Only a
            replay with a retention window reads ``ticks``.
        demand: Optional demand-fetch mask; ``None`` means every access
            is a demand access (the L1 case).
        retention_ticks: Fixed retention window, or ``None``.
        refresh_mode: ``"none"`` or ``"invalidate"`` (the envelope).  An
            ``"invalidate"`` replay runs as one chunk of an
            :class:`EpochReplaySegment`, the kernel that owns the
            retention rules.
        finalize_tick: When given, settle end-of-simulation accounting at
            this tick exactly like ``SetAssociativeCache.finalize`` (the
            expiry write-backs of dirty blocks that decayed unobserved).
        record_events: Collect a :class:`MissEvents` side channel
            (retention-free replays only).
        orig_indices: Caller-space index of each access, recorded in the
            events (defaults to 0..n-1).

    Returns:
        ``(stats, events)`` — ``stats`` is bit-identical to the reference
        engine's counters; ``events`` is ``None`` unless requested.
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    n = len(addrs)
    if refresh_mode != "none":
        if record_events:
            raise ValueError("record_events needs refresh_mode 'none'")
        seg = replay_one_chunk(
            geometry, ticks, addrs, privs, writes, demand,
            retention_ticks=retention_ticks, refresh_mode=refresh_mode,
            finalize_tick=finalize_tick,
        )
        return seg.stats, None

    stats = CacheStats()
    events = MissEvents([], [], np.zeros(0, dtype=np.uint64), []) if record_events else None
    if n == 0:
        return stats, events

    block_bits = geometry.block_size.bit_length() - 1
    num_sets = geometry.num_sets
    set_bits = num_sets.bit_length() - 1
    ways = geometry.associativity

    privs = np.asarray(privs)
    writes = np.asarray(writes)
    if int(privs.max()) > 1:
        # Fail as loudly as the reference engine's accesses_by_priv[priv].
        raise ValueError(
            f"privilege values must be 0 (user) or 1 (kernel), got {int(privs.max())}"
        )
    kernel_accesses = int(np.count_nonzero(privs))
    write_accesses = int(np.count_nonzero(writes))
    demand_accesses = n if demand is None else int(np.count_nonzero(np.asarray(demand)))

    blocks = addrs >> np.uint64(block_bits)
    set_idx = (blocks & np.uint64(num_sets - 1)).astype(np.int64)
    tags = blocks >> np.uint64(set_bits)

    order = np.argsort(set_idx, kind="stable")
    starts = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(set_idx, minlength=num_sets), out=starts[1:])
    active_sets = np.nonzero(starts[1:] > starts[:-1])[0].tolist()
    starts = starts.tolist()

    # Bulk-convert the sorted columns to plain Python values once; the
    # per-set loop below then runs on C-backed lists, not numpy scalars.
    # The demand and event-index columns are converted only when read.
    s_tags = tags[order].tolist()
    s_privs = privs[order].tolist()
    s_writes = writes[order].tolist()
    if demand is None:
        s_demand = None
    else:
        s_demand = np.asarray(demand)[order].tolist()
    if record_events:
        if orig_indices is None:
            s_orig = order.tolist()
        else:
            s_orig = np.asarray(orig_indices)[order].tolist()
    else:
        s_orig = None

    (misses, kernel_misses, demand_misses, evictions, writebacks,
     ec00, ec01, ec10, ec11), wb_set, wb_tag = _replay_sets(
        ways, active_sets, starts, s_tags, s_privs, s_writes, s_demand, s_orig, events,
    )

    if events is not None and wb_tag:
        events.wb_addr = (
            (np.asarray(wb_tag, dtype=np.uint64) << np.uint64(set_bits)
             | np.asarray(wb_set, dtype=np.uint64))
            << np.uint64(block_bits)
        )

    stats.accesses = n
    stats.hits = n - misses
    stats.misses = misses
    stats.fills = misses
    stats.evictions = evictions
    stats.writebacks = writebacks
    stats.demand_accesses = demand_accesses
    stats.demand_misses = misses if demand is None else demand_misses
    stats.write_accesses = write_accesses
    stats.accesses_by_priv = [n - kernel_accesses, kernel_accesses]
    stats.misses_by_priv = [misses - kernel_misses, kernel_misses]
    stats.evictions_cross = [[ec00, ec01], [ec10, ec11]]
    return stats, events


def _replay_sets(ways, active_sets, starts, TG, PV, WR, DM, OR, events):
    """Per-set replay of a fixed, retention-free cache, optionally
    tracking the demand column and recording per-miss events.

    LRU state is a move-to-back way list (front = least recent).  Recency
    sequences are unique and strictly increasing, so the list stays in
    exact ascending-sequence order and popping the front selects the same
    victim as the reference ``LRUPolicy.victim`` first-strict-minimum
    scan; sets fill in way order exactly like the reference free-frame
    scan."""
    misses = kernel_misses = demand_misses = 0
    evictions = writebacks = 0
    ec = [0, 0, 0, 0]
    track_dm = DM is not None
    record = events is not None
    wb_set: list = []
    wb_tag: list = []
    if record:
        miss_idx = events.miss_idx
        wb_idx = events.wb_idx
        wb_priv = events.wb_priv
    for s in active_sets:
        lo, hi = starts[s], starts[s + 1]
        tagmap: dict = {}
        mget = tagmap.get
        tagw: list = []
        privw: list = []
        dirty: list = []
        lru: list = []
        lru_remove = lru.remove
        lru_append = lru.append
        lru_pop = lru.pop
        filled = 0
        for tag, priv, isw, dm, oi in zip(
            TG[lo:hi], PV[lo:hi], WR[lo:hi],
            DM[lo:hi] if track_dm else TG[lo:hi],
            OR[lo:hi] if record else TG[lo:hi],
        ):
            w = mget(tag)
            if w is not None:
                lru_remove(w)
                lru_append(w)
                if isw:
                    dirty[w] = True
                continue
            misses += 1
            if priv:
                kernel_misses += 1
            if track_dm and dm:
                demand_misses += 1
            if record:
                miss_idx.append(oi)
            if filled < ways:
                tagmap[tag] = filled
                tagw.append(tag)
                privw.append(priv)
                dirty.append(isw)
                lru_append(filled)
                filled += 1
            else:
                w = lru_pop(0)
                lru_append(w)
                evictions += 1
                vp = privw[w]
                ec[(vp << 1) | priv] += 1
                if dirty[w]:
                    writebacks += 1
                    if record:
                        wb_idx.append(oi)
                        wb_set.append(s)
                        wb_tag.append(tagw[w])
                        wb_priv.append(vp)
                del tagmap[tagw[w]]
                tagmap[tag] = w
                tagw[w] = tag
                privw[w] = priv
                dirty[w] = isw
    counters = (misses, kernel_misses, demand_misses, evictions, writebacks,
                ec[0], ec[1], ec[2], ec[3])
    return counters, wb_set, wb_tag


# ----------------------------------------------------------------------
# all-associativity replay (one pass, every way count)

#: Widest stack the all-ways kernel tracks: the per-set privilege
#: bitmask of the recency stack must fit one uint64.
MAX_STACK_WAYS = 64


def simulate_ways(
    geometry: CacheGeometry, ways, addrs, privs, writes, demand
) -> dict[int, CacheStats]:
    """Replay one stream once for every way count in ``ways``.

    LRU has the inclusion property (Mattson et al., 1970): with the set
    count fixed, a ``W``-way set holds exactly the ``W`` most recent
    blocks of that set's recency stack.  One pass over a per-set stack
    capped at ``W_max = max(ways)`` therefore yields the outcome of every
    ``W <= W_max`` at once.  The returned ``{W: CacheStats}`` equals
    ``simulate_trace(geometry.with_ways(W), ...)`` field for field.

    The envelope is retention ``none`` (a retention window breaks
    inclusion) and the set count and block size of ``geometry`` (its
    way count is ignored).  The eviction matrix needs a block's
    privilege to be the same in every ``W``; that holds when each block
    is touched at one privilege only.  A stream with a mixed-privilege
    block, or ``W_max > MAX_STACK_WAYS``, is declined (a
    ``fastsim.decline.<reason>`` counter) and replayed once per way
    count through :func:`simulate_trace` instead.

    See the "All-associativity replay" section of ``docs/performance.md``
    for the depth, write-back threshold and residual-crediting rules.
    """
    ways = sorted({int(w) for w in ways})
    if not ways or ways[0] < 1:
        raise ValueError(f"way counts must be positive, got {ways}")
    addrs = np.asarray(addrs, dtype=np.uint64)
    privs = np.asarray(privs)
    writes = np.asarray(writes)
    demand = np.asarray(demand)
    n = len(addrs)
    if n == 0:
        return {w: CacheStats() for w in ways}
    if int(privs.max()) > 1:
        raise ValueError(
            f"privilege values must be 0 (user) or 1 (kernel), got {int(privs.max())}"
        )

    wmax = ways[-1]
    block_bits = geometry.block_size.bit_length() - 1
    num_sets = geometry.num_sets
    blocks = addrs >> np.uint64(block_bits)
    kernel_rows = privs.astype(bool)
    kernel_accesses = int(np.count_nonzero(kernel_rows))
    both_privs = 0 < kernel_accesses < n
    reason = None
    if wmax > MAX_STACK_WAYS:
        reason = "ways"
    elif both_privs:
        # Sorted (block, privilege) keys: a block seen at both privileges
        # leaves two distinct keys that share a block.
        keys = np.sort((blocks << np.uint64(1)) | kernel_rows.astype(np.uint64))
        if np.any((keys[1:] != keys[:-1])
                  & ((keys[1:] >> np.uint64(1)) == (keys[:-1] >> np.uint64(1)))):
            reason = "mixed-privilege"
    if reason is not None:
        obs.inc(f"fastsim.decline.{reason}")
        # Retention-free replay never reads the tick column.
        return {
            w: simulate_trace(geometry.with_ways(w), None, addrs, privs, writes, demand)[0]
            for w in ways
        }

    set_idx = (blocks & np.uint64(num_sets - 1)).astype(np.int64)
    tags = blocks >> np.uint64(num_sets.bit_length() - 1)
    # A stable sort of 16-bit keys is a radix sort: several times faster.
    order = np.argsort(
        set_idx.astype(np.uint16) if num_sets <= 1 << 16 else set_idx, kind="stable"
    )
    starts = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(set_idx, minlength=num_sets), out=starts[1:])
    active_sets = np.nonzero(starts[1:] > starts[:-1])[0].tolist()
    s_privs = privs[order]
    codes, masks, wb_diff = _stack_sets(
        wmax, active_sets, starts.tolist(), tags[order].tolist(), s_privs.tolist(),
        writes[order].tolist(), both_privs,
    )

    # A hit at depth p misses in every W <= p; a stack miss (code >
    # wmax) misses everywhere.  Either evicts in every W <= its
    # eviction depth: p, or the pre-access stack length for a miss.
    codes = np.asarray(codes, dtype=np.int64)
    cold = codes > wmax
    miss_depth = np.where(cold, wmax, codes)
    evict_depth = np.where(cold, codes - (wmax + 1), codes)
    s_kernel = kernel_rows[order]

    def at_least(depths) -> np.ndarray:
        """``out[W]`` = how many ``depths`` are ``>= W``."""
        hist = np.bincount(depths, minlength=wmax + 1)
        return np.cumsum(hist[::-1])[::-1]

    misses = at_least(miss_depth)
    kernel_misses = at_least(miss_depth[s_kernel])
    demand_misses = at_least(miss_depth[demand[order].astype(bool)])
    evictions = at_least(evict_depth)
    kernel_evictions = at_least(evict_depth[s_kernel])
    writebacks = np.cumsum(wb_diff)
    if both_privs:
        victim_masks = np.asarray(masks, dtype=np.uint64)
        user_masks, kernel_masks = victim_masks[~s_kernel], victim_masks[s_kernel]

    write_accesses = int(np.count_nonzero(writes))
    demand_accesses = int(np.count_nonzero(demand))
    out = {}
    for w in ways:
        ev, kev = int(evictions[w]), int(kernel_evictions[w])
        if both_privs:
            # Bit W-1 of a recorded mask is the privilege of the block
            # the access evicted from the W-way set.
            bit = np.uint64(1 << (w - 1))
            kernel_by_user = int(np.count_nonzero(user_masks & bit))
            kernel_by_kernel = int(np.count_nonzero(kernel_masks & bit))
            cross = [[ev - kev - kernel_by_user, kev - kernel_by_kernel],
                     [kernel_by_user, kernel_by_kernel]]
        elif kernel_accesses:
            cross = [[0, 0], [0, ev]]
        else:
            cross = [[ev, 0], [0, 0]]
        mw, kmw = int(misses[w]), int(kernel_misses[w])
        out[w] = CacheStats(
            accesses=n, hits=n - mw, misses=mw, fills=mw, evictions=ev,
            writebacks=int(writebacks[w]), demand_accesses=demand_accesses,
            demand_misses=int(demand_misses[w]), write_accesses=write_accesses,
            accesses_by_priv=[n - kernel_accesses, kernel_accesses],
            misses_by_priv=[mw - kmw, kmw], evictions_cross=cross,
        )
    return out


def _stack_sets(wmax, active_sets, starts, TG, PV, WR, track_privs):
    """Per-set recency-stack replay behind :func:`simulate_ways`.

    Each set keeps its blocks most-recent first (``tags``), at most
    ``wmax`` of them, with a dirty threshold per entry (``dirty``): the
    block is dirty in the W-way cache iff ``W > threshold``.  Returns,
    in set-sorted order, one code per access (the hit depth, or
    ``wmax + 1 + stack length`` on a stack miss), the privilege
    bitmask of the evicted-from positions per access when
    ``track_privs`` is set, and the write-back difference array.

    An entry pushed from depth W-1 to W has just been evicted from the
    W-way cache; it is credited a write-back for every W in
    ``(threshold, depth]`` lazily — when it is re-referenced, falls off
    the stack, or is still resident when its set ends.
    """
    codes: list = []
    masks: list = []
    code = codes.append
    record = masks.append
    wb_diff = [0] * (wmax + 2)
    low = [(1 << k) - 1 for k in range(wmax + 1)]
    full = low[wmax]
    cold_base = wmax + 1
    for s in active_sets:
        lo, hi = starts[s], starts[s + 1]
        tags: list = []
        index = tags.index
        dirty: list = []
        priv_mask = 0
        for tag, priv, isw in zip(TG[lo:hi], PV[lo:hi], WR[lo:hi]):
            try:
                p = index(tag)
            except ValueError:
                depth = len(tags)
                if depth == wmax:
                    tags.pop()
                    t = dirty.pop()
                    if wmax > t:
                        wb_diff[t + 1] += 1
                        wb_diff[wmax + 1] -= 1
                tags.insert(0, tag)
                dirty.insert(0, 0 if isw else wmax)
                code(cold_base + depth)
                if track_privs:
                    record(priv_mask & low[depth])
                    priv_mask = ((priv_mask << 1) | priv) & full
                continue
            t = dirty[p]
            if p > t:
                wb_diff[t + 1] += 1
                wb_diff[p + 1] -= 1
                t = p
            if isw:
                t = 0
            code(p)
            if p:
                del tags[p]
                del dirty[p]
                tags.insert(0, tag)
                dirty.insert(0, t)
                if track_privs:
                    above = priv_mask & low[p]
                    record(above)
                    priv_mask = (above << 1) | (priv_mask >> (p + 1) << (p + 1)) | priv
            else:
                dirty[0] = t
                if track_privs:
                    record(0)
        for k, t in enumerate(dirty):
            if k > t:
                wb_diff[t + 1] += 1
                wb_diff[k + 1] -= 1
    return codes, masks, wb_diff


# ----------------------------------------------------------------------
# epoch-chunked replay (the dynamic partition design)


class EpochReplaySegment:
    """Array-backed cache replayed one controller epoch at a time.

    Duck-types the slice of :class:`~repro.cache.set_assoc.
    SetAssociativeCache` the dynamic partition design drives —
    ``powered_ways``/``powered_bytes``, ``set_powered_ways``,
    ``begin_epoch``, the epoch counters and ``stats`` — while replaying
    accesses in stream order over flat frame-state arrays.  The
    caller (``DynamicPartitionDesign``) splits the stream into *chunks*
    (maximal runs between controller-epoch boundaries), loads a
    segment's rows once with :meth:`load`, and then alternates
    ``replay_chunk`` with its controller steps.  Because the controller
    only reconfigures the segment at epoch boundaries — and the one
    mid-chunk reconfiguration, wake-on-first-access, is a free power-up
    the caller applies via ``set_powered_ways`` before the chunk replays
    — the geometry is constant inside every chunk and the replay is
    bit-identical to the reference engine's per-access loop.

    The envelope matches :func:`supports_cache` plus gating and drowsy
    accounting: ``policy`` ``"lru"``, ``"fifo"`` or ``"srrip"``
    (``SetAssociativeCache``'s victim rules; only LRU tracks hit
    ranks, so a FIFO/SRRIP segment whose rows could reach
    ``min_rank_accesses`` raises ``ValueError``), retention ``none`` or
    fixed-window ``invalidate``, power-gated ways with either gating
    semantics (``retains_when_gated`` True keeps contents through a
    gate like non-volatile STT-RAM; False invalidates like SRAM),
    ``drowsy_window`` — ``SetAssociativeCache``'s per-line awake-time
    accounting, exposed as the same ``awake_block_ticks`` and
    ``drowsy_wakeups`` counters (retention-free segments only) — and a
    ``prefetcher`` trained on this segment's demand misses, with
    ``ReplaySession.replay_fixed``'s pending-prefetch bookkeeping
    (``prefetch_issued``/``prefetch_useful``).
    :func:`replay_one_chunk` runs a whole stream as a single chunk of one
    of these segments, with ``min_rank_accesses`` above the row count so
    ranks are never tracked.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        *,
        retention_ticks: int | None = None,
        refresh_mode: str = "none",
        retains_when_gated: bool = True,
        drowsy_window: int | None = None,
        min_rank_accesses: int = 0,
        policy: str = "lru",
        prefetcher: Prefetcher | None = None,
        name: str = "fastseg",
    ) -> None:
        if policy not in SEGMENT_POLICIES.values():
            raise ValueError(
                f"fastsim supports policies {tuple(SEGMENT_POLICIES.values())}, got {policy!r}"
            )
        if refresh_mode not in SUPPORTED_REFRESH_MODES:
            raise ValueError(
                f"fastsim supports refresh modes {SUPPORTED_REFRESH_MODES}, got {refresh_mode!r}"
            )
        if refresh_mode == "invalidate" and retention_ticks is None:
            raise ValueError("refresh_mode 'invalidate' needs a finite retention_ticks")
        if drowsy_window is not None:
            if drowsy_window <= 0:
                raise ValueError(f"drowsy_window must be positive, got {drowsy_window}")
            if refresh_mode != "none":
                # The reference engine skips awake accounting when a
                # block expires; no design combines the two.
                raise ValueError("drowsy_window needs refresh_mode 'none'")
        geometry.validate()
        self.geometry = geometry
        self.name = name
        self.ways = geometry.associativity
        self.powered_ways = self.ways
        self.retention_ticks = retention_ticks
        self.refresh_mode = refresh_mode
        self.retains_when_gated = retains_when_gated
        # Rank-utility hits are only read by controller decisions, which
        # require at least ``decision_accesses`` samples; chunks below
        # ``min_rank_accesses`` rows skip the O(ways)-per-hit tracking.
        self.min_rank_accesses = min_rank_accesses
        self._window = retention_ticks if refresh_mode == "invalidate" else None
        self.drowsy_window = drowsy_window
        self.awake_block_ticks = 0
        self.drowsy_wakeups = 0
        self.policy = policy
        self.prefetcher = prefetcher
        self.prefetch_issued = 0
        self.prefetch_useful = 0
        # Blocks filled by a prefetch and not yet demand-hit, evicted or
        # re-missed (``ReplaySession.replay_fixed``'s bookkeeping).
        self._pending: set[int] = set()
        self.stats = CacheStats()
        self.gated_misses = 0
        self.epoch_accesses = 0
        self.epoch_misses = 0
        self.epoch_rank_hits: list[int] = [0] * self.ways
        # Flat frame state indexed by ``set * ways + way``.  L2 chunks
        # rarely revisit a set (L1s absorb the locality), so per-set
        # state objects would be re-fetched on almost every access;
        # flat arrays plus one block-keyed tag dict keep the per-access
        # work to a few C-level index operations.  An invalid frame is
        # always clean (``dirty`` implies ``valid``): the gating and
        # finalize scans rely on it.
        n_frames = geometry.num_sets * self.ways
        self._n_frames = n_frames
        self._valid = bytearray(n_frames)
        self._dirty = bytearray(n_frames)
        self._privw = bytearray(n_frames)
        self._lastref = [0] * n_frames
        # LRU: last-touch sequence; FIFO: fill sequence; SRRIP keeps a
        # re-reference prediction value per frame instead.
        self._seqs = [0] * n_frames
        self._rrpv = [_RRPV_MAX] * n_frames if policy == "srrip" else None
        self._blockw = [0] * n_frames
        # Last-touch tick per frame, read only by drowsy accounting.
        self._touch = [0] * n_frames if drowsy_window is not None else None
        self._tagmap: dict[int, int] = {}
        # Exclusive per-set high-water bounds (indexed by the set's frame
        # base): no dirty/valid frame sits at or above them, so the
        # gating scan skips clean sets in O(1).  ``_max_dirty_hi`` /
        # ``_max_valid_hi`` bound every per-set value, letting a resize
        # skip the whole scan when nothing dirty/valid can sit above it.
        self._dirty_hi = [0] * n_frames
        self._valid_hi = [0] * n_frames
        self._max_dirty_hi = 0
        self._max_valid_hi = 0
        self._seqc = 0
        self._n_chunks = 0
        self._chunk_starts: list[int] = [0]

    # -- geometry ------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.geometry.num_sets * self.ways * self.geometry.block_size

    @property
    def powered_bytes(self) -> int:
        return self.geometry.num_sets * self.powered_ways * self.geometry.block_size

    # -- the SetAssociativeCache maintenance protocol ------------------

    def set_powered_ways(self, new_powered: int, tick: int) -> int:
        """Gate or re-enable ways; mirrors the reference semantics.

        Dirty live blocks in newly gated ways are flushed (write-back +
        gate flush); dirty decayed blocks are drained as expiry
        write-backs; with ``retains_when_gated=False`` every gated block
        is additionally invalidated.  Re-enabling is free.
        """
        if not 1 <= new_powered <= self.ways:
            raise ValueError(f"new_powered must be in [1, {self.ways}], got {new_powered}")
        st = self.stats
        window = self._window
        flushes = 0
        if new_powered < self.powered_ways:
            lo, hi = new_powered, self.powered_ways
            ways = self.ways
            if self._max_dirty_hi > lo:
                dirty = self._dirty
                lastref = self._lastref
                dirty_hi = self._dirty_hi
                for base in range(0, self._n_frames, ways):
                    dhi = dirty_hi[base]
                    if dhi > lo:
                        for f in range(base + lo, base + min(hi, dhi)):
                            if dirty[f]:
                                if window is not None and tick - lastref[f] > window:
                                    st.expiry_writebacks += 1
                                else:
                                    st.writebacks += 1
                                    st.gate_flushes += 1
                                    flushes += 1
                                dirty[f] = 0
                        dirty_hi[base] = lo
                self._max_dirty_hi = lo
            if not self.retains_when_gated and self._max_valid_hi > lo:
                tagmap = self._tagmap
                valid = self._valid
                blockw = self._blockw
                valid_hi = self._valid_hi
                for base in range(0, self._n_frames, ways):
                    vhi = valid_hi[base]
                    if vhi > lo:
                        for f in range(base + lo, base + min(hi, vhi)):
                            if valid[f]:
                                del tagmap[blockw[f]]
                                valid[f] = 0
                        valid_hi[base] = lo
                self._max_valid_hi = lo
        self.powered_ways = new_powered
        return flushes

    def begin_epoch(self) -> None:
        self.epoch_accesses = 0
        self.epoch_misses = 0
        self.epoch_rank_hits = [0] * self.ways

    def finalize(self, tick: int) -> None:
        """Settle every valid frame's drowsy awake time, and drain dirty
        blocks that decayed unobserved (all ways, gated included — gated
        blocks are always clean, so only live-frame decay can charge
        here)."""
        drowsy = self.drowsy_window
        if drowsy is not None:
            valid = self._valid
            touch = self._touch
            f = valid.find(1)
            while f >= 0:
                elapsed = tick - touch[f]
                self.awake_block_ticks += elapsed if elapsed < drowsy else drowsy
                if elapsed > drowsy:
                    self.drowsy_wakeups += 1
                touch[f] = tick
                f = valid.find(1, f + 1)
        window = self._window
        if window is None:
            return
        dirty = self._dirty
        lastref = self._lastref
        f = dirty.find(1)
        while f >= 0:
            # dirty implies valid (class invariant), no valid check needed
            if tick - lastref[f] > window:
                self.stats.expiry_writebacks += 1
                dirty[f] = 0
            f = dirty.find(1, f + 1)

    # -- chunked replay ------------------------------------------------

    def load(self, ticks, addrs, privs, writes, demand, chunk_ids, n_chunks: int) -> None:
        """Decompose and index this segment's rows for chunked replay.

        ``chunk_ids`` must be this segment's (non-decreasing) chunk
        index per row — ``cummax(global ticks) // epoch_ticks`` masked
        to the segment — so chunk boundaries agree across segments.
        Outcome-independent stats (access totals, privilege and write
        splits) are credited here; hit/miss counters accrue per chunk.
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        privs = np.asarray(privs)
        n = len(addrs)
        self._n_chunks = n_chunks
        if self.policy != "lru" and n >= self.min_rank_accesses:
            # Only true LRU has recency ranks (``ReplacementPolicy.hit_rank``).
            raise ValueError(f"a {self.policy!r} segment cannot track hit ranks")
        if n and int(privs.max()) > 1:
            raise ValueError(
                f"privilege values must be 0 (user) or 1 (kernel), got {int(privs.max())}"
            )
        st = self.stats
        st.accesses += n
        kernel_accesses = int(np.count_nonzero(privs))
        st.accesses_by_priv[0] += n - kernel_accesses
        st.accesses_by_priv[1] += kernel_accesses
        st.write_accesses += int(np.count_nonzero(np.asarray(writes)))
        st.demand_accesses += int(np.count_nonzero(np.asarray(demand)))
        if n == 0:
            self._chunk_starts = [0] * (n_chunks + 1)
            return

        geometry = self.geometry
        block_bits = geometry.block_size.bit_length() - 1
        num_sets = geometry.num_sets
        blocks = addrs >> np.uint64(block_bits)
        set_idx = (blocks & np.uint64(num_sets - 1)).astype(np.int64)

        # Rows stay in stream order (exactly the reference loop's order);
        # ``chunk_ids`` is non-decreasing, so each chunk is a contiguous
        # slice found by searchsorted.  The frame base (set * ways) is
        # precomputed so the replay loop never touches the set index.
        # The columns stay NumPy arrays: ``replay_chunk`` converts them
        # to Python lists ``_ROW_SLICE`` rows at a time, so a long
        # stream never holds whole-stream lists.
        self._ticks = np.asarray(ticks)
        self._blocks = blocks
        self._bases = set_idx * self.ways
        self._privs = privs
        self._writes = np.asarray(writes)
        self._demand = np.asarray(demand)
        # The prefetcher trains on raw addresses, sub-block offset included.
        self._addrs = addrs if self.prefetcher is not None else None
        chunk_ids = np.asarray(chunk_ids, dtype=np.int64)
        self._chunk_starts = np.searchsorted(chunk_ids, np.arange(n_chunks + 1)).tolist()

    def chunk_first_tick(self, chunk: int) -> int | None:
        """Stream-order tick of this segment's first access in ``chunk``
        (None when the chunk has no accesses for this segment)."""
        lo = self._chunk_starts[chunk]
        if lo == self._chunk_starts[chunk + 1]:
            return None
        return int(self._ticks[lo])

    def _rows(self, lo: int, hi: int):
        """Rows ``lo:hi`` as Python tuples, converted one bounded slice
        at a time."""
        cols = (self._ticks, self._blocks, self._bases, self._privs, self._writes,
                self._demand)
        return itertools.chain.from_iterable(
            zip(*[col[a:min(a + _ROW_SLICE, hi)].tolist() for col in cols])
            for a in range(lo, hi, _ROW_SLICE)
        )

    def _prefetch_rows(self, lo: int, hi: int, queue: list, cur: list):
        """Rows ``lo:hi`` in stream order, each followed by the prefetch
        rows its demand miss queued — the order in which
        ``ReplaySession.replay_fixed`` issues them.  ``cur[0]`` holds
        the raw address of the stream row being replayed."""
        addrs = itertools.chain.from_iterable(
            self._addrs[a:min(a + _ROW_SLICE, hi)].tolist() for a in range(lo, hi, _ROW_SLICE)
        )
        for row, addr in zip(self._rows(lo, hi), addrs):
            cur[0] = addr
            yield row
            if queue:
                # Prefetch rows never queue more: only demand misses train.
                yield from queue
                queue.clear()

    def replay_chunk(self, chunk: int) -> None:
        """Replay one chunk's accesses under the current powered ways.

        With a prefetcher, every demand miss trains it on the raw
        address and its proposals replay right after the miss as
        non-demand reads at the same tick and privilege (``dm`` is None
        on those rows).  They count as accesses, hits, misses and
        evictions, never as demand traffic.
        """
        lo = self._chunk_starts[chunk]
        hi = self._chunk_starts[chunk + 1]
        self.epoch_accesses += hi - lo
        if lo == hi:
            return
        prefetcher = self.prefetcher
        if prefetcher is None:
            rows = self._rows(lo, hi)
        else:
            on_miss = prefetcher.on_miss
            queue: list = []
            cur = [0]
            rows = self._prefetch_rows(lo, hi, queue, cur)
            geometry = self.geometry
            block_bits = geometry.block_size.bit_length() - 1
            set_mask = geometry.num_sets - 1
            n_ways = self.ways
        pending = self._pending
        issued = useful = 0
        pf_by_priv = [0, 0]
        lru = self.policy == "lru"
        rrpv = self._rrpv
        st = self.stats
        window = self._window
        drowsy = self.drowsy_window
        touch = self._touch
        awake = wakeups = 0
        powered = self.powered_ways
        track_ranks = (hi - lo) >= self.min_rank_accesses
        rank_hits = self.epoch_rank_hits
        seqc = self._seqc
        tagmap = self._tagmap
        mget = tagmap.get
        valid = self._valid
        dirty = self._dirty
        privw = self._privw
        lastref = self._lastref
        seqs = self._seqs
        blockw = self._blockw
        dirty_hi = self._dirty_hi
        valid_hi = self._valid_hi
        max_dh = self._max_dirty_hi
        max_vh = self._max_valid_hi
        misses = kernel_misses = demand_misses = hits = 0
        evictions = writebacks = exp_inv = exp_wb = 0
        ec = [0, 0, 0, 0]
        for tick, block, base, priv, isw, dm in rows:
            seqc += 1
            f = mget(block)
            if f is not None:
                if f - base >= powered:
                    # The block sits in a power-gated way: unreachable,
                    # so this access misses and the stale mapping dies.
                    # (Invalid frames stay clean — the gating and
                    # finalize scans rely on it.)
                    self.gated_misses += 1
                    valid[f] = 0
                    dirty[f] = 0
                    del tagmap[block]
                elif window is not None and tick - lastref[f] > window:
                    # Resident but decayed: a retention-caused miss.
                    exp_inv += 1
                    if dirty[f]:
                        exp_wb += 1
                        dirty[f] = 0
                    valid[f] = 0
                    del tagmap[block]
                else:
                    hits += 1
                    if drowsy is not None:
                        elapsed = tick - touch[f]
                        awake += elapsed if elapsed < drowsy else drowsy
                        if elapsed > drowsy:
                            wakeups += 1
                        touch[f] = tick
                    if track_ranks:
                        mine = seqs[f]
                        rank = 0
                        for x in seqs[base:base + powered]:
                            if x > mine:
                                rank += 1
                        rank_hits[rank] += 1
                    if lru:
                        seqs[f] = seqc
                    elif rrpv is not None:
                        rrpv[f] = 0
                    if isw:
                        dirty[f] = 1
                        lastref[f] = tick  # a store rewrites the cells
                        w1 = f - base + 1
                        if w1 > dirty_hi[base]:
                            dirty_hi[base] = w1
                            if w1 > max_dh:
                                max_dh = w1
                    if pending and dm and block in pending:
                        useful += 1
                        pending.remove(block)
                    continue
            misses += 1
            if priv:
                kernel_misses += 1
            if dm:
                demand_misses += 1
            end = base + powered
            target = valid.find(0, base, end)
            if target < 0:
                expired = -1
                if window is not None:
                    for i in range(base, end):
                        if tick - lastref[i] > window:
                            expired = i
                            break
                if expired >= 0:
                    # Reclaim a decayed frame: not an interference
                    # eviction (data already gone).
                    target = expired
                    if dirty[target]:
                        exp_wb += 1
                    del tagmap[blockw[target]]
                else:
                    if rrpv is None:
                        sub = seqs[base:end]
                        target = base + sub.index(min(sub))
                    else:
                        # SRRIPPolicy.victim's scan: the first frame at
                        # the largest RRPV, after every frame has aged
                        # until that value reaches the maximum.
                        sub = rrpv[base:end]
                        m = max(sub)
                        target = base + sub.index(m)
                        if m < _RRPV_MAX:
                            age = _RRPV_MAX - m
                            rrpv[base:end] = [x + age for x in sub]
                    evictions += 1
                    ec[(privw[target] << 1) | priv] += 1
                    if dirty[target]:
                        writebacks += 1
                    if drowsy is not None:
                        elapsed = tick - touch[target]
                        awake += elapsed if elapsed < drowsy else drowsy
                        if elapsed > drowsy:
                            wakeups += 1
                    if pending:
                        pending.discard(blockw[target])
                    del tagmap[blockw[target]]
            if drowsy is not None:
                touch[target] = tick
            valid[target] = 1
            blockw[target] = block
            privw[target] = priv
            dirty[target] = 1 if isw else 0
            lastref[target] = tick
            if rrpv is None:
                seqs[target] = seqc
            else:
                rrpv[target] = _RRPV_MAX - 1
            tagmap[block] = target
            w1 = target - base + 1
            if w1 > valid_hi[base]:
                valid_hi[base] = w1
                if w1 > max_vh:
                    max_vh = w1
            if isw and w1 > dirty_hi[base]:
                dirty_hi[base] = w1
                if w1 > max_dh:
                    max_dh = w1
            if prefetcher is not None:
                if dm is None:
                    pending.add(block)
                    continue
                pending.discard(block)
                if dm:
                    targets = on_miss(cur[0])
                    if targets:
                        issued += len(targets)
                        pf_by_priv[priv] += len(targets)
                        for addr in targets:
                            b = addr >> block_bits
                            queue.append((tick, b, (b & set_mask) * n_ways, priv, 0, None))
        self._seqc = seqc
        if issued:
            self.prefetch_issued += issued
            self.epoch_accesses += issued
            st.accesses += issued
            st.accesses_by_priv[0] += pf_by_priv[0]
            st.accesses_by_priv[1] += pf_by_priv[1]
        self.prefetch_useful += useful
        self.awake_block_ticks += awake
        self.drowsy_wakeups += wakeups
        self._max_dirty_hi = max_dh
        self._max_valid_hi = max_vh
        self.epoch_misses += misses
        st.hits += hits
        st.misses += misses
        st.fills += misses
        st.demand_misses += demand_misses
        st.misses_by_priv[0] += misses - kernel_misses
        st.misses_by_priv[1] += kernel_misses
        st.evictions += evictions
        st.writebacks += writebacks
        st.expiry_invalidations += exp_inv
        st.expiry_writebacks += exp_wb
        cross = st.evictions_cross
        cross[0][0] += ec[0]
        cross[0][1] += ec[1]
        cross[1][0] += ec[2]
        cross[1][1] += ec[3]


def replay_one_chunk(
    geometry: CacheGeometry,
    ticks,
    addrs,
    privs,
    writes,
    demand=None,
    *,
    retention_ticks: int | None = None,
    refresh_mode: str = "none",
    drowsy_window: int | None = None,
    finalize_tick: int | None = None,
    policy: str = "lru",
    prefetcher: Prefetcher | None = None,
) -> EpochReplaySegment:
    """Replay a whole stream as chunk 0 of a fresh :class:`EpochReplaySegment`.

    The fixed-geometry use of the segment kernel: a fixed ``invalidate``
    replay (through :func:`simulate_trace`), a drowsy replay, a FIFO or
    SRRIP replay and a replay behind a prefetcher.  Ranks are never
    tracked; ``demand=None`` marks every row a demand access.  When
    ``finalize_tick`` is given the segment is finalized there like
    ``SetAssociativeCache.finalize``.  Returns the segment, whose
    ``stats``, ``awake_block_ticks``, ``drowsy_wakeups`` and
    ``prefetch_issued``/``prefetch_useful`` hold the outcome.
    """
    n = len(addrs)
    seg = EpochReplaySegment(
        geometry, retention_ticks=retention_ticks, refresh_mode=refresh_mode,
        drowsy_window=drowsy_window, min_rank_accesses=n + 1, policy=policy,
        prefetcher=prefetcher,
    )
    seg.load(ticks, addrs, privs, writes,
             np.ones(n, dtype=bool) if demand is None else demand,
             np.zeros(n, dtype=np.int64), 1)
    seg.replay_chunk(0)
    if finalize_tick is not None:
        seg.finalize(finalize_tick)
    return seg


# ----------------------------------------------------------------------
# front ends


def _stream_order(miss_idx, wb_idx):
    """Merge miss rows and write-back rows into stream order.

    Returns ``(merge, row_idx, is_wb)``: ``merge`` permutes any column
    laid out as ``[miss rows..., write-back rows...]`` into stream order,
    and ``row_idx``/``is_wb`` are the merged rows' stream index and
    write-back flag.  Within one access the miss comes first and its
    victim's write-back right after it — the reference loops' order.
    """
    row_idx = np.concatenate([miss_idx, wb_idx])
    is_wb = np.concatenate([
        np.zeros(len(miss_idx), dtype=bool), np.ones(len(wb_idx), dtype=bool),
    ])
    merge = np.lexsort((is_wb, row_idx))
    return merge, row_idx[merge], is_wb[merge]


def fast_l1_filter(trace, platform: PlatformConfig):
    """Array-backed equivalent of :func:`repro.cache.hierarchy.l1_filter`.

    Splits the trace into the L1I and L1D streams, replays each through
    the kernel with event recording, and merges the miss/write-back
    events back into program order — producing an ``L2Stream`` whose
    columns and L1 stats are bit-identical to the reference filter
    (LRU L1s only; enforced by the dispatch in ``l1_filter``).
    """
    from repro.cache.hierarchy import L2Stream

    kinds = trace.kinds
    ifetch_mask = kinds == np.uint8(AccessKind.IFETCH)
    data_mask = ~ifetch_mask
    all_idx = np.arange(len(trace), dtype=np.int64)

    i_idx = all_idx[ifetch_mask]
    i_stats, i_ev = simulate_trace(
        platform.l1i,
        trace.ticks[ifetch_mask],
        trace.addrs[ifetch_mask],
        trace.privs[ifetch_mask],
        np.zeros(len(i_idx), dtype=bool),
        record_events=True,
        orig_indices=i_idx,
    )
    d_idx = all_idx[data_mask]
    d_stats, d_ev = simulate_trace(
        platform.l1d,
        trace.ticks[data_mask],
        trace.addrs[data_mask],
        trace.privs[data_mask],
        kinds[data_mask] == np.uint8(AccessKind.STORE),
        record_events=True,
        orig_indices=d_idx,
    )

    miss_idx = np.asarray(i_ev.miss_idx + d_ev.miss_idx, dtype=np.int64)
    wb_idx = np.asarray(i_ev.wb_idx + d_ev.wb_idx, dtype=np.int64)
    wb_addr = np.concatenate([i_ev.wb_addr, d_ev.wb_addr])
    wb_priv = np.asarray(i_ev.wb_priv + d_ev.wb_priv, dtype=np.uint8)

    # Demand rows and write-back rows back in program order, exactly like
    # the reference filter's append order.
    merge, row_idx, writes_col = _stream_order(miss_idx, wb_idx)
    addr_col = np.concatenate([trace.addrs[miss_idx], wb_addr])[merge]
    priv_col = np.concatenate([trace.privs[miss_idx], wb_priv])[merge]

    return L2Stream(
        name=trace.name,
        ticks=trace.ticks[row_idx].astype(np.int64),
        addrs=addr_col.astype(np.uint64),
        privs=priv_col.astype(np.uint8),
        writes=writes_col,
        demand=~writes_col,
        instructions=trace.instructions,
        trace_accesses=len(trace),
        duration_ticks=trace.duration_ticks,
        l1i_stats=i_stats,
        l1d_stats=d_stats,
    )


def try_run_fixed(
    stream, segments, router, dram_model=None, prefetcher: Prefetcher | None = None
) -> tuple[int, int, int] | None:
    """Replay ``stream`` through fixed segments with the fast kernel.

    Returns None (leaving every cache, ``dram_model`` and ``prefetcher``
    untouched) unless all segment caches are inside the envelope, the
    router is a pure privilege→segment mapping, a DRAM model comes with
    retention-free LRU segments and no prefetcher, and a prefetcher
    serves a stream that one segment replays alone.  Each decline books
    a ``fastsim.decline.<reason>`` counter.  On success the per-segment
    ``stats`` (including finalize accounting) are installed on each
    cache, the caller must skip its own replay loop and ``finalize``
    pass, and the return value is ``(dram_read_stall, prefetch_issued,
    prefetch_useful)`` — like ``ReplaySession.replay_fixed``'s.

    Retention-free LRU segments without a prefetcher replay through
    :func:`simulate_trace`; FIFO and SRRIP segments, retention segments
    and the prefetching segment replay as one chunk of an
    :class:`EpochReplaySegment`.  On one segment, stream order is the
    reference order, so the prefetcher sees the same demand misses.

    The DRAM model never changes cache state, so it is fed after the
    replay: each segment records its miss events, and the demand misses
    and write-backs of all segments are merged into stream order and
    sent to ``dram_model.access`` exactly as ``ReplaySession.replay_fixed``
    interleaves them.  The read stall is the summed latency of the reads.
    """
    caches = [seg.cache for seg in segments]
    if not caches or not all(supports_cache(c) for c in caches):
        obs.inc("fastsim.decline.unsupported-cache")
        return None
    user_cache = router(int(Privilege.USER))
    kernel_cache = router(int(Privilege.KERNEL))
    if not any(user_cache is c for c in caches):
        obs.inc("fastsim.decline.router")
        return None
    if not any(kernel_cache is c for c in caches):
        obs.inc("fastsim.decline.router")
        return None
    record = dram_model is not None
    reason = None
    if record and prefetcher is not None:
        # Prefetch fills go to DRAM too; the segment records no events.
        reason = "prefetch-dram"
    elif record and any(c.refresh_mode != "none" for c in caches):
        # The retention kernel records no miss events.
        reason = "dram-retention"
    elif record and any(type(c.policy) is not LRUPolicy for c in caches):
        reason = "dram-policy"
    elif prefetcher is not None and user_cache is not kernel_cache:
        # One prefetcher trained by two segments' misses needs their
        # cross-segment interleaving.
        reason = "prefetch-segments"
    if reason is not None:
        obs.inc(f"fastsim.decline.{reason}")
        return None

    final_tick = stream.duration_ticks
    if user_cache is kernel_cache:
        jobs = [(user_cache, slice(None))]
    else:
        kernel_rows = stream.privs == np.uint8(Privilege.KERNEL)
        jobs = [(user_cache, ~kernel_rows), (kernel_cache, kernel_rows)]
    events = []
    issued = useful = 0
    for cache, rows in jobs:
        policy = SEGMENT_POLICIES[type(cache.policy)]
        cols = (stream.ticks[rows], stream.addrs[rows], stream.privs[rows],
                stream.writes[rows], stream.demand[rows])
        if policy == "lru" and prefetcher is None:
            stats, ev = simulate_trace(
                cache.geometry, *cols,
                retention_ticks=cache.retention_ticks,
                refresh_mode=cache.refresh_mode,
                finalize_tick=final_tick,
                record_events=record,
                orig_indices=np.arange(len(stream))[rows] if record else None,
            )
            events.append(ev)
        else:
            seg = replay_one_chunk(
                cache.geometry, *cols,
                retention_ticks=cache.retention_ticks,
                refresh_mode=cache.refresh_mode,
                finalize_tick=final_tick,
                policy=policy,
                prefetcher=prefetcher,
            )
            stats = seg.stats
            issued += seg.prefetch_issued
            useful += seg.prefetch_useful
        cache.stats = stats
    if not record:
        return 0, issued, useful

    miss_idx = np.concatenate([np.asarray(ev.miss_idx, dtype=np.int64) for ev in events])
    miss_idx = miss_idx[stream.demand[miss_idx]]
    wb_idx = np.concatenate([np.asarray(ev.wb_idx, dtype=np.int64) for ev in events])
    merge, row_idx, is_wb = _stream_order(miss_idx, wb_idx)
    addrs = np.concatenate([stream.addrs[miss_idx]] + [ev.wb_addr for ev in events])[merge]
    access = dram_model.access
    read_stall = 0
    for addr, tick, is_write in zip(
        addrs.tolist(), stream.ticks[row_idx].tolist(), is_wb.tolist()
    ):
        latency = access(addr, tick, is_write)
        if not is_write:
            read_stall += latency
    return read_stall, 0, 0

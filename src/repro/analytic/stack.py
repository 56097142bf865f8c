"""Stack-distance analysis: predict miss rate vs capacity analytically.

A classic result (Mattson et al., 1970): for a fully associative LRU
cache, a reference hits iff its *stack distance* — the number of
distinct blocks touched since the previous reference to the same block —
is smaller than the capacity in blocks.  One pass over a trace therefore
yields the whole miss-rate-vs-size curve, which is how an architect
sketches Figure 3 before running any simulation.

The profiler here is the O(n log n) Fenwick-tree formulation, so it
handles experiment-scale streams directly.  Set-associative caches track
the fully associative curve closely at 8+ ways; the validation bench
(``benchmarks/bench_analytic_validation.py``) quantifies the gap against
the simulator.

The same inclusion property, applied per set, gives the simulator its
exact counterpart: :func:`repro.cache.fastsim.simulate_ways` replays a
stream once and returns the full ``CacheStats`` of every way count at
a fixed set count (see "All-associativity replay" in
``docs/performance.md``).  Figure 3 and the static-partition search use
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StackProfile", "stack_distances", "profile_blocks"]


class _Fenwick:
    """Prefix-sum tree over time slots (1-based)."""

    def __init__(self, n: int) -> None:
        self._tree = np.zeros(n + 1, dtype=np.int64)
        self._n = n

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self._n:
            self._tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of slots [0, i)."""
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return int(total)


def stack_distances(blocks: np.ndarray) -> np.ndarray:
    """Stack distance per reference (−1 for first touches).

    Args:
        blocks: Block identifiers per reference, in program order.

    Returns:
        An int64 array the same length; entry *i* is the number of
        distinct other blocks referenced between reference *i* and the
        previous reference to the same block, or −1 on first touch.
    """
    n = len(blocks)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    tree = _Fenwick(n)
    last_pos: dict[int, int] = {}
    for i, b in enumerate(blocks.tolist()):
        prev = last_pos.get(b)
        if prev is not None:
            # distinct blocks since prev = marked slots in (prev, i)
            out[i] = tree.prefix(i) - tree.prefix(prev + 1)
            tree.add(prev, -1)
        tree.add(i, +1)
        last_pos[b] = i
    return out


@dataclass(frozen=True)
class StackProfile:
    """Reuse profile of one reference stream.

    ``histogram[d]`` counts references at stack distance *d* (clipped at
    ``len(histogram) - 1``); ``cold`` counts first touches; ``total`` is
    all references.
    """

    histogram: np.ndarray
    cold: int
    total: int

    def miss_rate(self, capacity_blocks: int) -> float:
        """Predicted fully associative LRU miss rate at a capacity."""
        if capacity_blocks <= 0:
            raise ValueError(f"capacity_blocks must be positive, got {capacity_blocks}")
        if self.total == 0:
            return 0.0
        hits = int(self.histogram[: min(capacity_blocks, len(self.histogram))].sum())
        return 1.0 - hits / self.total

    def curve(self, capacities_blocks: list[int]) -> list[tuple[int, float]]:
        """(capacity, predicted miss rate) points."""
        return [(c, self.miss_rate(c)) for c in capacities_blocks]

    @property
    def cold_share(self) -> float:
        """Fraction of references that are first touches."""
        return self.cold / self.total if self.total else 0.0


def profile_blocks(blocks: np.ndarray, max_distance: int = 1 << 16) -> StackProfile:
    """Build a :class:`StackProfile` from a block reference stream."""
    distances = stack_distances(np.asarray(blocks))
    cold = int(np.count_nonzero(distances < 0))
    reuse = distances[distances >= 0]
    clipped = np.minimum(reuse, max_distance - 1)
    histogram = np.bincount(clipped, minlength=max_distance).astype(np.int64)
    return StackProfile(histogram=histogram, cold=cold, total=len(distances))

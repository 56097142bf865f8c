"""Design-space search for the static partition sizes.

The paper picks the static (user, kernel) segment sizes by sweeping the
partition space and choosing the smallest total size whose miss rate
stays close to the full-size shared baseline.  This module implements
that sweep over pre-filtered L2 streams (cheap: the L1 work is already
done) and is also what Figure 4's bench calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.hierarchy import L2Stream
from repro.cache.stats import CacheStats
from repro.config import PlatformConfig
from repro.core.baseline import BaselineDesign
from repro.core.pipeline import replay_ways
from repro.types import Privilege

__all__ = ["PartitionPoint", "sweep_partitions", "choose_partition", "find_static_partition"]


@dataclass(frozen=True)
class PartitionPoint:
    """One evaluated static partition configuration."""

    user_ways: int
    kernel_ways: int
    total_bytes: int
    demand_miss_rate: float
    user_miss_rate: float
    kernel_miss_rate: float

    @property
    def total_ways(self) -> int:
        """Combined way count of both segments."""
        return self.user_ways + self.kernel_ways


def _baseline_miss_rate(streams: list[L2Stream], platform: PlatformConfig) -> float:
    """Full-size shared baseline's demand miss rate, averaged over ``streams``."""
    return float(np.mean(
        [BaselineDesign().run(stream, platform).l2_stats.demand_miss_rate for stream in streams]
    ))


def _segment_rates(
    streams: list[L2Stream],
    platform: PlatformConfig,
    user_way_options: tuple[int, ...],
    kernel_way_options: tuple[int, ...],
) -> dict[tuple[int, int], tuple[float, float, float]]:
    """(user, kernel) ways -> mean (overall, user, kernel) demand miss rates.

    A static partition's segments never interact, so each stream takes
    two all-associativity passes (:func:`~repro.core.pipeline.replay_ways`):
    its user rows up to the largest user option, its kernel rows up to
    the largest kernel option.  The per-segment stats merge exactly as
    ``DesignResult.l2_stats`` merges them.
    """
    rates: dict[tuple[int, int], tuple[list, list, list]] = {
        (uw, kw): ([], [], []) for uw in user_way_options for kw in kernel_way_options
    }
    for stream in streams:
        kernel_rows = stream.privs == np.uint8(Privilege.KERNEL)
        user = replay_ways("static", stream, platform.l2, user_way_options, ~kernel_rows)
        kernel = replay_ways("static", stream, platform.l2, kernel_way_options, kernel_rows)
        for (uw, kw), (overall, user_mr, kernel_mr) in rates.items():
            user_stats, kernel_stats = user[uw], kernel[kw]
            overall.append(CacheStats().merge(user_stats).merge(kernel_stats).demand_miss_rate)
            user_mr.append(user_stats.demand_miss_rate)
            kernel_mr.append(kernel_stats.demand_miss_rate)
    return {
        point: tuple(float(np.mean(column)) for column in columns)
        for point, columns in rates.items()
    }


def sweep_partitions(
    streams: list[L2Stream],
    platform: PlatformConfig,
    user_way_options: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    kernel_way_options: tuple[int, ...] = (1, 2, 3, 4, 6),
) -> list[PartitionPoint]:
    """Evaluate every (user, kernel) way combination on ``streams``.

    Each point is what ``StaticPartitionDesign(user_ways, kernel_ways)``
    (SRAM segments, LRU) reports, averaged over the streams.
    """
    if not streams:
        raise ValueError("need at least one stream to sweep")
    rates = _segment_rates(streams, platform, user_way_options, kernel_way_options)
    bytes_per_way = platform.l2.num_sets * platform.l2.block_size
    return [
        PartitionPoint(uw, kw, (uw + kw) * bytes_per_way, *rates[uw, kw])
        for uw in user_way_options
        for kw in kernel_way_options
    ]


def choose_partition(
    points: list[PartitionPoint], baseline_miss_rate: float, tolerance: float = 0.10
) -> PartitionPoint:
    """Smallest swept point whose miss rate stays within ``tolerance``.

    The budget is ``baseline_miss_rate * (1 + tolerance)``, where the
    baseline is the full-size shared cache's mean demand miss rate over
    the swept streams.  Among admissible points the smallest total size
    wins; miss rate breaks ties.  If no point is admissible, the
    lowest-miss-rate point is returned (the caller can inspect it).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    budget = baseline_miss_rate * (1.0 + tolerance)
    admissible = [p for p in points if p.demand_miss_rate <= budget]
    if admissible:
        return min(admissible, key=lambda p: (p.total_bytes, p.demand_miss_rate))
    return min(points, key=lambda p: p.demand_miss_rate)


def find_static_partition(
    streams: list[L2Stream],
    platform: PlatformConfig,
    tolerance: float = 0.10,
    user_way_options: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    kernel_way_options: tuple[int, ...] = (1, 2, 3, 4, 6),
) -> PartitionPoint:
    """Sweep ``streams`` and pick a point with :func:`choose_partition`.

    The reference is the full-size shared baseline's mean demand miss
    rate over the same streams.
    """
    points = sweep_partitions(streams, platform, user_way_options, kernel_way_options)
    return choose_partition(points, _baseline_miss_rate(streams, platform), tolerance)

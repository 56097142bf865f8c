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
from repro.config import PlatformConfig
from repro.core.baseline import BaselineDesign
from repro.core.static_partition import StaticPartitionDesign

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


def _mean_miss_rate(design, streams: list[L2Stream], platform: PlatformConfig) -> tuple[float, float, float]:
    """(overall, user-segment, kernel-segment) demand miss rates, averaged."""
    overall, user, kernel = [], [], []
    for stream in streams:
        result = design.run(stream, platform)
        overall.append(result.l2_stats.demand_miss_rate)
        try:
            user.append(result.segment("user").stats.demand_miss_rate)
            kernel.append(result.segment("kernel").stats.demand_miss_rate)
        except KeyError:
            user.append(result.l2_stats.demand_miss_rate)
            kernel.append(result.l2_stats.demand_miss_rate)
    return float(np.mean(overall)), float(np.mean(user)), float(np.mean(kernel))


def sweep_partitions(
    streams: list[L2Stream],
    platform: PlatformConfig,
    user_way_options: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    kernel_way_options: tuple[int, ...] = (1, 2, 3, 4, 6),
) -> list[PartitionPoint]:
    """Evaluate every (user, kernel) way combination on ``streams``."""
    if not streams:
        raise ValueError("need at least one stream to sweep")
    points = []
    bytes_per_way = platform.l2.num_sets * platform.l2.block_size
    for uw in user_way_options:
        for kw in kernel_way_options:
            design = StaticPartitionDesign(user_ways=uw, kernel_ways=kw)
            overall, user_mr, kernel_mr = _mean_miss_rate(design, streams, platform)
            points.append(
                PartitionPoint(
                    user_ways=uw,
                    kernel_ways=kw,
                    total_bytes=(uw + kw) * bytes_per_way,
                    demand_miss_rate=overall,
                    user_miss_rate=user_mr,
                    kernel_miss_rate=kernel_mr,
                )
            )
    return points


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
    baseline_mr, _, _ = _mean_miss_rate(BaselineDesign(), streams, platform)
    points = sweep_partitions(streams, platform, user_way_options, kernel_way_options)
    return choose_partition(points, baseline_mr, tolerance)

"""Unit tests for the static-partition design-space search."""

import numpy as np
import pytest

from repro.cache.hierarchy import l1_filter
from repro.config import DEFAULT_PLATFORM
from repro.core.baseline import BaselineDesign
from repro.core.search import (
    PartitionPoint,
    choose_partition,
    find_static_partition,
    sweep_partitions,
)
from repro.core.static_partition import StaticPartitionDesign
from repro.trace.generator import generate_trace
from repro.trace.workloads import app_profile


@pytest.fixture(scope="module")
def small_streams():
    traces = [generate_trace(app_profile(a), 25_000, seed=1) for a in ("game", "email")]
    return [l1_filter(t, DEFAULT_PLATFORM) for t in traces]


def _points_from_design_runs(streams, user_way_options, kernel_way_options):
    """The sweep recomputed one ``StaticPartitionDesign.run`` per point."""
    bytes_per_way = DEFAULT_PLATFORM.l2.num_sets * DEFAULT_PLATFORM.l2.block_size
    points = []
    for uw in user_way_options:
        for kw in kernel_way_options:
            results = [StaticPartitionDesign(user_ways=uw, kernel_ways=kw)
                       .run(s, DEFAULT_PLATFORM) for s in streams]
            points.append(PartitionPoint(
                uw, kw, (uw + kw) * bytes_per_way,
                float(np.mean([r.l2_stats.demand_miss_rate for r in results])),
                float(np.mean([r.segment("user").stats.demand_miss_rate for r in results])),
                float(np.mean([r.segment("kernel").stats.demand_miss_rate for r in results])),
            ))
    return points


class TestPartitionPoint:
    def test_total_ways(self):
        p = PartitionPoint(4, 2, 384 * 1024, 0.2, 0.2, 0.2)
        assert p.total_ways == 6


class TestSweep:
    def test_grid_size(self, small_streams):
        points = sweep_partitions(small_streams, DEFAULT_PLATFORM, (2, 4), (1, 2))
        assert len(points) == 4

    def test_bytes_computed_from_ways(self, small_streams):
        points = sweep_partitions(small_streams, DEFAULT_PLATFORM, (2,), (1,))
        assert points[0].total_bytes == 3 * 64 * 1024

    def test_bigger_partitions_do_not_miss_more(self, small_streams):
        points = {(p.user_ways, p.kernel_ways): p
                  for p in sweep_partitions(small_streams, DEFAULT_PLATFORM, (2, 8), (2, 8))}
        assert points[(8, 8)].demand_miss_rate <= points[(2, 2)].demand_miss_rate + 1e-9

    def test_equals_per_design_runs(self, small_streams):
        points = sweep_partitions(small_streams, DEFAULT_PLATFORM, (1, 3, 8), (2, 5))
        assert points == _points_from_design_runs(small_streams, (1, 3, 8), (2, 5))

    def test_rejects_empty_streams(self):
        with pytest.raises(ValueError, match="at least one stream"):
            sweep_partitions([], DEFAULT_PLATFORM)


class TestFind:
    def test_picks_admissible_minimum(self, small_streams):
        chosen = find_static_partition(
            small_streams, DEFAULT_PLATFORM, tolerance=0.5,
            user_way_options=(2, 8), kernel_way_options=(2, 8))
        # with a generous tolerance the smallest config should win
        assert chosen.total_ways == 4

    def test_tight_tolerance_prefers_larger(self, small_streams):
        loose = find_static_partition(
            small_streams, DEFAULT_PLATFORM, tolerance=1.0,
            user_way_options=(2, 10), kernel_way_options=(2, 6))
        tight = find_static_partition(
            small_streams, DEFAULT_PLATFORM, tolerance=0.005,
            user_way_options=(2, 10), kernel_way_options=(2, 6))
        assert tight.total_bytes >= loose.total_bytes

    def test_equals_choice_over_design_runs(self, small_streams):
        baseline = float(np.mean([
            BaselineDesign().run(s, DEFAULT_PLATFORM).l2_stats.demand_miss_rate
            for s in small_streams
        ]))
        expected = choose_partition(
            _points_from_design_runs(small_streams, (2, 4, 10), (1, 6)), baseline, 0.1)
        assert find_static_partition(
            small_streams, DEFAULT_PLATFORM, tolerance=0.1,
            user_way_options=(2, 4, 10), kernel_way_options=(1, 6)) == expected

    def test_rejects_negative_tolerance(self, small_streams):
        with pytest.raises(ValueError, match="tolerance"):
            find_static_partition(small_streams, DEFAULT_PLATFORM, tolerance=-0.1)

    def test_falls_back_to_best_point(self, small_streams):
        # impossible budget: nothing admissible, must return lowest-mr point
        chosen = find_static_partition(
            small_streams, DEFAULT_PLATFORM, tolerance=0.0,
            user_way_options=(1,), kernel_way_options=(1,))
        assert chosen.user_ways == 1 and chosen.kernel_ways == 1

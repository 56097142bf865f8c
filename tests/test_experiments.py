"""Tests for the experiment harness (report, runner, figures, tables).

Figure/table functions run on shortened traces and app subsets here; the
full-length versions are exercised by the benchmarks.
"""

import numpy as np
import pytest

from repro import obs
from repro.config import CacheGeometry
from repro.core.baseline import BaselineDesign
from repro.engine import ResultStore
from repro.experiments import (
    canonical_result,
    experiment_stream,
    fig1_kernel_share,
    fig2_interference,
    fig3_size_sweep,
    fig4_static_space,
    fig5_intervals,
    fig6_energy_breakdown,
    fig7_dynamic_timeline,
    fig8_energy_summary,
    format_percent,
    format_series,
    format_table,
    run_design_on,
    suite_results,
    table1_configuration,
    table2_technology,
    table3_workloads,
    table4_performance,
)
from repro.obs.summary import load_run

SHORT = 40_000
APPS = ("game", "email")


@pytest.fixture
def private_store(tmp_path, monkeypatch):
    """An empty result store at the default location."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


class TestReport:
    def test_format_percent(self):
        assert format_percent(0.4213) == "42.1%"
        assert format_percent(0.5, digits=0) == "50%"

    def test_format_table_alignment(self):
        out = format_table("T", ["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a " in out and " 1" in out

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table("T", ["a", "b"], [["only-one"]])

    def test_format_series(self):
        out = format_series("S", "x", "y", [(1, 2), (3, 4)])
        assert "x" in out and "y" in out


class TestRunner:
    def test_stream_cached(self):
        a = experiment_stream("game", SHORT)
        b = experiment_stream("game", SHORT)
        assert a is b

    def test_canonical_result_cached(self, private_store):
        a = canonical_result("baseline", "game", SHORT)
        b = canonical_result("baseline", "game", SHORT)
        assert a == b  # the second read is served from the store

    def test_second_canonical_read_is_a_store_hit(self, private_store, tmp_path):
        canonical_result("static-stt", "game", SHORT)
        hits = obs.REGISTRY.counters.get("store.hit", 0)
        log = tmp_path / "second.jsonl"
        obs.configure(log)
        try:
            canonical_result("static-stt", "game", SHORT)
        finally:
            obs.configure(None)
        assert obs.REGISTRY.counters.get("store.hit", 0) == hits + 1
        spans = [e["name"] for e in load_run(log).events if e["type"] == "span"]
        assert "batch" in spans and "replay" not in spans

    def test_store_counters_persist_after_canonical_reads(self, private_store):
        canonical_result("baseline", "email", SHORT)
        canonical_result("baseline", "email", SHORT)
        persisted = ResultStore(private_store).counters()
        assert (persisted["misses"], persisted["writes"], persisted["hits"]) == (1, 1, 1)

    def test_canonical_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            canonical_result("foo", "game", SHORT)

    def test_suite_results_keys(self):
        res = suite_results("baseline", SHORT, apps=APPS)
        assert tuple(res) == APPS


class TestFigures:
    def test_fig1(self):
        r = fig1_kernel_share(SHORT, APPS)
        assert set(r.shares) == set(APPS)
        assert 0 < r.mean < 1
        assert "Figure 1" in r.render()

    def test_fig2(self):
        r = fig2_interference(SHORT, ("game",))
        row = r.rows[0]
        assert row.app == "game"
        assert row.cross_evictions_per_kilo_access >= 0
        assert "Figure 2" in r.render()

    def test_fig3_monotone_in_size(self):
        r = fig3_size_sweep(SHORT, ("game",), sizes_kb=(128, 1024))
        sizes = [s for s, _ in r.points]
        rates = [mr for _, mr in r.points]
        assert sizes == sorted(sizes)
        assert rates[0] >= rates[-1]
        assert "Figure 3" in r.render()

    def test_fig3_equals_per_design_runs(self):
        sizes_kb = (128, 512, 2048)
        r = fig3_size_sweep(SHORT, APPS, sizes_kb=sizes_kb)
        expected = [
            (kb * 1024, float(np.mean([
                run_design_on(BaselineDesign(geometry=CacheGeometry(kb * 1024, kb // 64)),
                              app, length=SHORT).l2_stats.demand_miss_rate
                for app in APPS
            ])))
            for kb in sizes_kb
        ]
        assert list(r.points) == expected

    def test_fig3_fig4_identical_under_kill_switch(self, monkeypatch):
        fig3 = fig3_size_sweep(SHORT, APPS, sizes_kb=(256, 1024))
        fig4 = fig4_static_space(SHORT, APPS, user_way_options=(4, 8), kernel_way_options=(2, 4))
        monkeypatch.setenv("REPRO_FASTSIM", "0")
        assert fig3_size_sweep(SHORT, APPS, sizes_kb=(256, 1024)) == fig3
        assert fig4_static_space(
            SHORT, APPS, user_way_options=(4, 8), kernel_way_options=(2, 4)) == fig4

    def test_fig5(self):
        r = fig5_intervals(SHORT, ("game",))
        assert {row.privilege for row in r.rows} == {"user", "kernel"}
        for row in r.rows:
            assert row.p50_ms <= row.p90_ms <= row.p99_ms
        assert "retention windows" in r.render()

    def test_fig6(self):
        r = fig6_energy_breakdown(SHORT, APPS)
        designs = [row.design for row in r.rows]
        assert designs == list(("baseline", "static-sram", "static-stt", "dynamic-stt"))
        base = r.rows[0]
        assert base.normalized_total == pytest.approx(1.0)
        assert "Figure 6" in r.render()

    def test_fig7(self):
        r = fig7_dynamic_timeline("game", SHORT)
        assert len(r.ticks) == len(r.user_ways)
        assert r.mean_user_ways > 0
        assert "Figure 7" in r.render()

    def test_fig8(self):
        r = fig8_energy_summary(SHORT, APPS)
        assert r.mean("baseline") == pytest.approx(1.0)
        assert r.saving("static-stt") > 0
        assert "Figure 8" in r.render()


class TestTables:
    def test_table1(self):
        out = table1_configuration().render()
        assert "L2 cache" in out and "1024 KB" in out

    def test_table2(self):
        t = table2_technology()
        assert any("sram" in row[0] for row in t.rows)
        assert any("stt-short" in row[0] for row in t.rows)
        assert "Table 2" in t.render()

    def test_table3_lists_all_apps(self):
        t = table3_workloads()
        assert len(t.rows) == 8

    def test_table4(self):
        t = table4_performance(SHORT, APPS)
        assert set(t.loss) == set(APPS)
        for app in APPS:
            assert "baseline" not in t.loss[app]
        assert "Table 4" in t.render()
        assert t.mean("static-sram") is not None

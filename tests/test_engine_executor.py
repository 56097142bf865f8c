"""Tests for the parallel executor and the grid sweep layer."""

import multiprocessing
import os
import signal

import pytest

import repro.engine.executor as executor_mod
from repro.engine.executor import run_jobs
from repro.engine.spec import JobSpec
from repro.engine.store import ResultStore
from repro.engine.sweep import run_sweep

LENGTH = 8_000

#: The pool entry point ``_kill_first_call`` stands in for, and the
#: marker file whose creation elects the one call that dies.
_KILL = {"entry": None, "marker": None}


def _kill_first_call(*args):
    """Pool entry point: the first call SIGKILLs its worker."""
    try:
        os.close(os.open(_KILL["marker"], os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _KILL["entry"](*args)
    os.kill(os.getpid(), signal.SIGKILL)


def _grid(designs=("baseline", "static-stt"), apps=("browser", "game")):
    return [JobSpec(d, a, length=LENGTH) for d in designs for a in apps]


class TestRunJobs:
    def test_outcomes_in_input_order(self):
        specs = _grid()
        outcomes = run_jobs(specs, jobs=1)
        assert [o.spec for o in outcomes] == specs
        assert all(not o.cached for o in outcomes)

    def test_parallel_matches_serial(self):
        specs = _grid()
        serial = run_jobs(specs, jobs=1)
        parallel = run_jobs(specs, jobs=2)
        for s, p in zip(serial, parallel):
            assert s.result == p.result

    def test_duplicate_specs_share_one_simulation(self):
        spec = JobSpec("baseline", "browser", length=LENGTH)
        calls = []
        original = executor_mod._timed_execute

        def counting(s):
            calls.append(s)
            return original(s)

        executor_mod._timed_execute = counting
        try:
            outcomes = run_jobs([spec, spec, spec], jobs=1)
        finally:
            executor_mod._timed_execute = original
        assert len(calls) == 1
        assert len(outcomes) == 3
        assert outcomes[0].result == outcomes[2].result

    def test_store_round_trip_between_batches(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _grid()
        cold = run_jobs(specs, jobs=1, store=store)
        warm = run_jobs(specs, jobs=1, store=store)
        assert all(not o.cached for o in cold)
        assert all(o.cached for o in warm)
        for c, w in zip(cold, warm):
            assert c.result == w.result

    def test_progress_callback_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _grid()
        run_jobs(specs[:1], jobs=1, store=store)  # pre-warm one entry
        events = []
        run_jobs(specs, jobs=1, store=store, progress=events.append)
        assert len(events) == len(specs)
        assert events[0].cached == 1
        final = events[-1]
        assert final.completed == final.total == len(specs)
        assert final.running == 0
        assert "cached" in final.render()

    def test_retry_once_then_succeed(self):
        spec = JobSpec("baseline", "browser", length=LENGTH)
        original = executor_mod._timed_execute
        failures = iter([RuntimeError("injected")])

        def flaky(s):
            for exc in failures:
                raise exc
            return original(s)

        executor_mod._timed_execute = flaky
        try:
            outcomes = run_jobs([spec], jobs=1)
        finally:
            executor_mod._timed_execute = original
        assert outcomes[0].attempts == 2

    def test_persistent_failure_propagates(self):
        spec = JobSpec("baseline", "browser", length=LENGTH,
                       design_kwargs={"policy": "bogus"})
        with pytest.raises(ValueError):
            run_jobs([spec], jobs=1)

    def test_persistent_failure_propagates_from_pool(self):
        specs = [
            JobSpec("baseline", "browser", length=LENGTH),
            JobSpec("baseline", "game", length=LENGTH,
                    design_kwargs={"policy": "bogus"}),
        ]
        with pytest.raises(ValueError):
            run_jobs(specs, jobs=2)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the patched entry point")
    @pytest.mark.parametrize("entry", ["_timed_execute", "_prebuild_stream"])
    def test_killed_worker_costs_a_retry_not_the_batch(self, entry, tmp_path, monkeypatch):
        from repro import obs

        specs = _grid()
        serial = run_jobs(specs, jobs=1)
        # an empty stream cache, so the batch opens with a prebuild wave
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setitem(_KILL, "entry", getattr(executor_mod, entry))
        monkeypatch.setitem(_KILL, "marker", str(tmp_path / "killed"))
        monkeypatch.setattr(executor_mod, entry, _kill_first_call)
        respawns = obs.REGISTRY.counters.get("engine.pool.respawn", 0)
        pooled = run_jobs(specs, jobs=2)
        assert (tmp_path / "killed").exists()
        assert obs.REGISTRY.counters["engine.pool.respawn"] == respawns + 1
        assert [o.result for o in pooled] == [o.result for o in serial]
        if entry == "_timed_execute":
            assert any(o.attempts == 2 for o in pooled)

    def test_bad_jobs_count_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_jobs([], jobs=0)


class TestRunSweep:
    def test_sweep_grid_and_summary(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = run_sweep(("baseline",), ("browser", "game"), seeds=(0, 1),
                          length=LENGTH, store=store)
        assert len(sweep.outcomes) == 4
        assert sweep.simulated == 4
        assert sweep.hit_rate() == 0.0
        assert ("baseline", "game", 1) in sweep.results()
        rendered = sweep.render()
        assert "0/4 jobs served from cache" in rendered

    def test_second_sweep_is_fully_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        args = dict(designs=("baseline",), apps=("browser",), length=LENGTH, store=store)
        run_sweep(**args)
        warm = run_sweep(**args)
        assert warm.cached == 1
        assert warm.hit_rate() == 1.0
        assert "100.0%" in warm.render()

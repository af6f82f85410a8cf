"""Chaos parity: faulted grids heal and still produce exact results.

The acceptance bar for the self-healing runner: a grid executed under a
:class:`~repro.robust.faults.FaultPlan` returns results byte-identical
to a clean serial run, and the run report records every pool rebuild
and serial fallback taken along the way.
"""

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import (
    ExecutionPlan,
    ResultCache,
    SERIAL_PLAN,
    SimJob,
    execution,
    run_jobs,
)
from repro.parallel import runner
from repro.parallel.runner import MAX_POOL_REBUILDS
from repro.robust import FaultPlan
from tests.parallel import _grid_jobs


def _squares(n=8):
    return [SimJob.make(_grid_jobs.square, key=("sq", x), x=x)
            for x in range(n)]


def _as_json(results):
    return json.dumps(results, sort_keys=True, default=str)


class TestKillChaosParity:
    def test_killed_workers_heal_to_identical_results(self):
        clean = run_jobs(_squares(), plan=SERIAL_PLAN)
        chaos = ExecutionPlan(
            workers=2,
            fault_plan=FaultPlan(seed=3, kill_fraction=1.0,
                                 kill_attempts=1))
        with execution(chaos) as report:
            faulted = run_jobs(_squares())
        assert _as_json(faulted) == _as_json(clean)
        # The healing ledger records what the chaos cost.
        assert report.pool_rebuilds >= 1
        assert not report.degraded
        healing = report.healing_summary()
        assert healing["degraded"] is False
        assert healing["pool_rebuilds"] == report.pool_rebuilds
        assert healing["failures"] == []
        # Healed jobs record the extra attempt.
        assert any(r.attempts > 1 for r in report.records)

    def test_target_kinds_shield_other_job_kinds(self):
        # Kills confined to a kind not present in the grid: the pool
        # must never die.
        plan = ExecutionPlan(
            workers=2,
            fault_plan=FaultPlan(seed=3, kill_fraction=1.0,
                                 target_kinds=("test-seeded",)))
        with execution(plan) as report:
            results = run_jobs(_squares())
        assert results == [x * x for x in range(8)]
        assert report.pool_rebuilds == 0

    def test_repeated_pool_deaths_fall_back_to_serial(self):
        # Kills fire on every attempt: the pool can never make
        # progress, so after the rebuild budget the runner must finish
        # the grid serially (where chaos kills never fire).
        plan = ExecutionPlan(
            workers=2,
            fault_plan=FaultPlan(seed=3, kill_fraction=1.0,
                                 kill_attempts=99))
        with execution(plan) as report:
            results = run_jobs(_squares(4))
        assert results == [x * x for x in range(4)]
        assert report.serial_fallbacks == 1
        assert report.pool_rebuilds == MAX_POOL_REBUILDS
        assert not report.degraded


class _BreakingExecutor:
    """An in-process pool whose ``submit`` raises ``BrokenProcessPool``
    on the listed call numbers, counted across every pool the runner
    builds — a pool that dies while jobs are still being handed to it.
    Other submits run the job at once and return a finished future."""

    def __init__(self, calls, break_on) -> None:
        self.calls, self.break_on = calls, break_on

    def submit(self, fn, payload):
        self.calls.append(payload)
        if len(self.calls) in self.break_on:
            raise BrokenProcessPool("pool died during submit")
        future = Future()
        future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenSubmitHeals:
    """A pool break raised by ``submit`` — on the first hand-out or on
    the resubmission after a rebuild — takes the same harvest, rebuild
    and serial-fallback path as a break seen while waiting."""

    def _run(self, monkeypatch, break_on):
        calls = []
        monkeypatch.setattr(
            runner, "_make_executor",
            lambda n_workers, plan: _BreakingExecutor(calls, break_on))
        with execution(ExecutionPlan(workers=2)) as report:
            results = run_jobs(_squares())
        assert _as_json(results) == _as_json(
            run_jobs(_squares(), plan=SERIAL_PLAN))
        return report

    @pytest.mark.parametrize("break_on, rebuilds", [
        ({3}, 1),        # during the first hand-out
        ({3, 8}, 2),     # again while resubmitting after the rebuild
    ])
    def test_broken_submit_rebuilds_to_identical_results(
            self, monkeypatch, break_on, rebuilds):
        report = self._run(monkeypatch, break_on)
        assert report.pool_rebuilds == rebuilds
        assert report.serial_fallbacks == 0
        assert not report.degraded

    def test_broken_submits_past_the_budget_fall_back_to_serial(
            self, monkeypatch):
        report = self._run(monkeypatch, set(range(1, 100)))
        assert report.pool_rebuilds == MAX_POOL_REBUILDS
        assert report.serial_fallbacks == 1
        assert not report.degraded
        # Attempts count hand-outs that reached a pool, then the
        # serial run: a refused submit is no attempt.
        assert {r.attempts for r in report.records} == {1}


class TestCacheCorruptionChaos:
    def test_corrupted_entries_recompute_to_identical_results(
            self, tmp_path):
        from repro.robust import corrupt_cache

        plan = ExecutionPlan(workers=0, cache_dir=str(tmp_path))
        with execution(plan):
            cold = run_jobs(_squares())
        corrupted = corrupt_cache(str(tmp_path), fraction=1.0)
        assert corrupted
        with execution(plan) as warm_report, \
                pytest.warns(RuntimeWarning, match="corrupted"):
            warm = run_jobs(_squares())
        assert _as_json(warm) == _as_json(cold)
        assert warm_report.n_cache_hits == 0  # all degraded to misses
        # The rewritten entries are healthy again.
        with execution(plan) as healed_report:
            run_jobs(_squares())
        assert healed_report.n_cache_hits == len(_squares())

    def test_mid_write_kill_never_leaves_half_entries(self, tmp_path):
        # Chaos-kill a worker exactly between the temp-file write and
        # the atomic rename (the only window a naive implementation
        # gets wrong) — see tests/parallel/test_cache.py for the
        # subprocess version that really dies there.
        cache = ResultCache(str(tmp_path))

        class Die(Exception):
            pass

        def kill_here(point, path):
            raise Die(point)

        cache.fault_hook = kill_here
        with pytest.raises(Die):
            cache.store("ab" + "0" * 62, "material", {"v": 1})
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []  # no .pkl and no .tmp dropping

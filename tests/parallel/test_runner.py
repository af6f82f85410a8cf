"""Tests for job execution: ordering, failure surfacing, reporting."""

import multiprocessing

import pytest

from repro.parallel import (
    ExecutionPlan,
    JobFailure,
    SERIAL_PLAN,
    SimJob,
    active_plan,
    derive_seed,
    execution,
    run_jobs,
)
from tests.parallel import _grid_jobs


def _squares(xs, delays=None):
    delays = delays or [0.0] * len(xs)
    return [SimJob.make(_grid_jobs.square, key=("sq", x), x=x, delay=d)
            for x, d in zip(xs, delays)]


class TestSimJob:
    def test_make_requires_registration(self):
        with pytest.raises(ValueError, match="not a registered sim_job"):
            SimJob.make(lambda: None, key=("x",))

    def test_params_sorted_for_stable_identity(self):
        a = SimJob.make(_grid_jobs.square, key=("k",), x=1, delay=0.0)
        b = SimJob.make(_grid_jobs.square, key=("k",), delay=0.0, x=1)
        assert a == b

    def test_derived_seed_injected_when_declared(self):
        job = SimJob.make(_grid_jobs.seeded, key=("s", "a"), label="a")
        assert job.run() == job.derived_seed

    def test_derived_seed_stable_and_distinct(self):
        a = SimJob.make(_grid_jobs.seeded, key=("s", "a"), label="a")
        b = SimJob.make(_grid_jobs.seeded, key=("s", "b"), label="b")
        assert a.derived_seed == a.derived_seed
        assert a.derived_seed != b.derived_seed
        assert 0 <= a.derived_seed < 2 ** 63

    def test_derive_seed_is_cross_process_stable(self):
        # A hard-coded expectation: hash() salting must not sneak in.
        assert derive_seed("x", 1) == derive_seed("x", 1)
        assert derive_seed("x", 1) != derive_seed("x", 2)


class TestSerialExecution:
    def test_results_in_submission_order(self):
        results = run_jobs(_squares([3, 1, 2]))
        assert results == [9, 1, 4]

    def test_empty_grid(self):
        assert run_jobs([]) == []

    def test_failure_carries_job_key_and_traceback(self):
        jobs = _squares([1]) + [SimJob.make(_grid_jobs.fail,
                                            key=("fail", 7), x=7)]
        with pytest.raises(JobFailure) as excinfo:
            run_jobs(jobs)
        message = str(excinfo.value)
        assert "('fail', 7)" in message          # the job key
        assert "ValueError: boom on 7" in message  # original traceback
        assert "test-fail" in message
        assert excinfo.value.job.key == ("fail", 7)


class TestPooledExecution:
    def test_results_in_submission_order_despite_completion_order(self):
        # The first job sleeps longest: completion order is the reverse
        # of submission order, results must not be.
        jobs = _squares([4, 3, 2, 1],
                        delays=[0.3, 0.2, 0.1, 0.0])
        results = run_jobs(jobs, plan=ExecutionPlan(workers=4))
        assert results == [16, 9, 4, 1]

    def test_pooled_matches_serial(self):
        jobs = _squares(list(range(6)))
        serial = run_jobs(jobs, plan=SERIAL_PLAN)
        pooled = run_jobs(jobs, plan=ExecutionPlan(workers=2))
        assert pooled == serial

    def test_failure_surfaces_worker_traceback(self):
        jobs = [SimJob.make(_grid_jobs.fail, key=("fail", 42), x=42)] \
            + _squares([1, 2])
        with pytest.raises(JobFailure) as excinfo:
            run_jobs(jobs, plan=ExecutionPlan(workers=2))
        message = str(excinfo.value)
        assert "('fail', 42)" in message
        assert "ValueError: boom on 42" in message
        assert "Traceback" in message  # the *worker's* traceback text

    def test_single_job_grid_runs_serially(self):
        # No pool spin-up cost for a one-job grid.
        assert run_jobs(_squares([5]),
                        plan=ExecutionPlan(workers=8)) == [25]


class TestExecutionContext:
    def test_default_plan_is_serial(self):
        assert active_plan() == SERIAL_PLAN

    def test_context_installs_and_restores(self):
        plan = ExecutionPlan(workers=3, cache_dir="/tmp/nowhere")
        with execution(plan):
            assert active_plan() is plan
            inner = ExecutionPlan(workers=0)
            with execution(inner):
                assert active_plan() is inner
            assert active_plan() is plan
        assert active_plan() == SERIAL_PLAN

    def test_report_collects_job_records(self):
        with execution(ExecutionPlan()) as report:
            run_jobs(_squares([1, 2, 3]))
        assert report.n_jobs == 3
        assert report.n_cache_hits == 0
        assert all(r.worker == "serial" for r in report.records)
        assert [r.key for r in report.records] \
            == [("sq", 1), ("sq", 2), ("sq", 3)]

    def test_report_tagging_and_breakdown(self):
        with execution(ExecutionPlan()) as report:
            run_jobs(_squares([1]))
            report.tag("figA")
            run_jobs(_squares([2]))
            report.tag("figB")
        assert [r.figure for r in report.records] == ["figA", "figB"]
        breakdown = report.worker_breakdown()
        assert breakdown["serial"]["jobs"] == 2
        as_dict = report.as_dict()
        assert as_dict["n_jobs"] == 2
        assert len(as_dict["jobs"]) == 2

    def test_no_cache_plan_disables_cache_dir(self):
        plan = ExecutionPlan(workers=0, cache_dir="/tmp/x",
                             use_cache=False)
        assert plan.effective_cache_dir is None

    def test_cache_hits_recorded(self, tmp_path):
        plan = ExecutionPlan(workers=0, cache_dir=str(tmp_path))
        with execution(plan) as cold:
            run_jobs(_squares([1, 2]))
        assert cold.n_cache_hits == 0
        with execution(plan) as warm:
            run_jobs(_squares([1, 2]))
        assert warm.n_cache_hits == 2
        assert warm.cache_hit_rate == 1.0


def _flaky_job(tmp_path, fail_times, tag="a"):
    return SimJob.make(_grid_jobs.flaky, key=("flaky", tag),
                       counter_file=str(tmp_path / f"count-{tag}"),
                       fail_times=fail_times)


class TestRetries:
    def test_default_plan_does_not_retry(self, tmp_path):
        # Jobs are pure, so a job that raises would raise again: the
        # first failure aborts the grid and the job ran exactly once.
        job = _flaky_job(tmp_path, fail_times=1)
        with pytest.raises(JobFailure) as excinfo:
            run_jobs([job])
        assert excinfo.value.attempts == 1
        assert (tmp_path / "count-a").read_text() == "1"


class TestCancellation:
    def test_keyboard_interrupt_leaves_no_orphan_workers(self):
        # Ctrl-C lands in a worker mid-grid while other jobs are still
        # running; the runner must re-raise it *and* tear the whole
        # pool down (no orphaned worker processes keep burning CPU).
        import time as _time

        jobs = [SimJob.make(_grid_jobs.interrupt, key=("int",),
                            after=0.1)] \
            + _squares([1, 2, 3], delays=[30.0, 30.0, 30.0])
        start = _time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_jobs(jobs, plan=ExecutionPlan(workers=4))
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert not [c for c in multiprocessing.active_children()
                    if c.is_alive()]
        # Teardown must have *killed* the 30s sleepers, not waited
        # them out.
        assert _time.monotonic() - start < 15.0

    def test_keyboard_interrupt_serial_propagates(self):
        with pytest.raises(KeyboardInterrupt):
            run_jobs([SimJob.make(_grid_jobs.interrupt, key=("int",))])

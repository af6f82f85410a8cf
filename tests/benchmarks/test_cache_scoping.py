"""Regression tests for the benchmark suite's cache scoping.

:class:`~repro.parallel.cache.ResultCache` keys embed the package
version, which ordinary code edits never change, so a persistent cache
directory reused across benchmark runs serves results computed by *old*
code.  ``benchmarks/conftest.py`` therefore scopes every benchmark's
cache to a per-test pytest tmp path.  These tests pin both the hazard
(first class) and the fix (second class).
"""

import pathlib
import sys

from repro.parallel import SERIAL_PLAN, SimJob, active_plan, run_jobs

from tests.parallel import _grid_jobs

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:  # `benchmarks` lives at the repo root
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import bench_cache, scoped_cache  # noqa: E402


def _job(value_file):
    return SimJob.make(_grid_jobs.from_file, key=("from-file",),
                       value_file=str(value_file))


class TestStaleCacheHazard:
    def test_reused_persistent_dir_serves_stale_results(self, tmp_path):
        """The failure mode the fixture exists to prevent: after a
        "code edit" (same cache key, different answer), a reused
        directory still returns the pre-edit result."""
        value = tmp_path / "value.txt"
        value.write_text("1")
        with scoped_cache(tmp_path / "persistent"):
            assert run_jobs([_job(value)]) == [1]
        value.write_text("2")  # the code edit
        with scoped_cache(tmp_path / "persistent"):
            assert run_jobs([_job(value)]) == [1]  # stale, not 2

    def test_fresh_dir_recomputes_after_code_edit(self, tmp_path):
        value = tmp_path / "value.txt"
        value.write_text("1")
        with scoped_cache(tmp_path / "run-a"):
            assert run_jobs([_job(value)]) == [1]
        value.write_text("2")
        with scoped_cache(tmp_path / "run-b"):
            assert run_jobs([_job(value)]) == [2]


class TestConftestFixture:
    def test_fixture_is_autouse_and_per_test(self):
        """Every benchmark test must get its own fresh cache without
        opting in; a session-scoped or opt-in fixture would reopen the
        stale-reuse window."""
        marker = getattr(bench_cache, "_fixture_function_marker", None) \
            or bench_cache._pytestfixturefunction  # pytest < 8.4
        assert marker.autouse
        assert marker.scope == "function"

    def test_scoped_cache_installs_and_removes_the_plan(self, tmp_path):
        outer = active_plan()
        with scoped_cache(tmp_path / "cache") as cache_dir:
            plan = active_plan()
            assert plan.effective_cache_dir == cache_dir
            assert pathlib.Path(cache_dir).parent == tmp_path
            # Timing semantics unchanged: serial, no chaos.
            assert plan.workers == SERIAL_PLAN.workers
            assert plan.fault_plan == SERIAL_PLAN.fault_plan
        assert active_plan() is outer

    def test_jobs_inside_the_context_use_the_tmp_cache(self, tmp_path):
        value = tmp_path / "value.txt"
        value.write_text("7")
        with scoped_cache(tmp_path / "cache") as cache_dir:
            assert run_jobs([_job(value)]) == [7]
        entries = list(pathlib.Path(cache_dir).rglob("*.pkl"))
        assert entries, "job result was not stored in the scoped cache"

"""Tests for the sinks, the run manifest and ``observed_run``."""

import json
import shutil
import subprocess

import pytest

from repro.engine.machine import Machine
from repro.engine.ordering import make_scheme
from repro.obs import (
    ChromeTraceSink,
    EventBus,
    EventKind,
    JsonlSink,
    PhaseProfiler,
    RunManifest,
    events_to_chrome_trace,
    git_revision,
    instrument,
    observed_run,
    read_jsonl,
)
from repro.trace.builder import build_trace
from repro.trace.workloads import profile_for, trace_seed


def gcc_trace(n_uops=3000):
    return build_trace(profile_for("gcc"), n_uops=n_uops,
                       seed=trace_seed("gcc"), name="gcc")


def observed(tmp_path, scheme="inclusive", n_uops=3000):
    machine = Machine(scheme=make_scheme(scheme))
    return observed_run(machine, gcc_trace(n_uops), str(tmp_path / "run"))


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus()
        bus.attach(JsonlSink(path))
        bus.emit(EventKind.SQUASH, 4, 2, 0x10, cause="collision")
        bus.emit(EventKind.MISS, 7, level="l2", latency=12)
        bus.close()
        records = read_jsonl(path)
        assert records == [
            {"kind": "squash", "cycle": 4, "seq": 2, "pc": 16,
             "cause": "collision"},
            {"kind": "miss", "cycle": 7, "level": "l2", "latency": 12},
        ]

    def test_log_counts_match_result_counters(self, tmp_path):
        """Acceptance: JSONL event counts == the SimResult counters."""
        path = str(tmp_path / "events.jsonl")
        machine = Machine(scheme=make_scheme("inclusive"))
        bus = instrument(machine)
        bus.attach(JsonlSink(path))
        result = machine.run(gcc_trace())
        bus.close()
        kinds = {}
        for record in read_jsonl(path):
            kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        assert kinds.get(EventKind.COLLISION, 0) == result.collision_penalties
        assert kinds.get(EventKind.SQUASH, 0) == result.squashed_issues
        assert kinds[EventKind.RETIRE] == result.retired_uops
        assert kinds.get(EventKind.FORWARD, 0) == result.forwarded_loads


class TestChromeTrace:
    def test_document_structure(self, tmp_path):
        machine = Machine(scheme=make_scheme("traditional"))
        sink = ChromeTraceSink(n_lanes=8)
        instrument(machine).attach(sink)
        result = machine.run(gcc_trace(2000))
        doc = sink.document()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == result.retired_uops
        for entry in slices[:50]:
            assert entry["dur"] >= 1
            assert entry["ts"] >= 0
            assert 0 <= entry["tid"] < 8
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)

    def test_instants_for_speculation_events(self):
        sink = ChromeTraceSink()
        bus = EventBus()
        bus.attach(sink)
        bus.emit(EventKind.COLLISION, 10, 3, 0x40, visible=True)
        bus.emit(EventKind.RENAME, 11, 4)  # implicit; not rendered
        doc = sink.document()
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == EventKind.COLLISION

    def test_export_from_jsonl_records(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus()
        bus.attach(JsonlSink(path))
        bus.emit(EventKind.RETIRE, 9, 1, 0x8, uclass="LOAD",
                 rename_cycle=4, issue_cycle=5, complete_cycle=8,
                 squashes=0, collided=False)
        bus.close()
        doc = events_to_chrome_trace(read_jsonl(path), n_lanes=4)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["ts"] == 4 and slices[0]["dur"] == 5
        assert slices[0]["name"] == "LOAD"


class TestRunManifest:
    def test_write_load_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = RunManifest(name="demo", config={"width": 8},
                               seed=1234, n_uops=1000, cycles=400,
                               wall_seconds=0.5,
                               phases={"simulate": 0.5},
                               metrics={"run.cycles": 400},
                               event_counts={"retire": 1000})
        manifest.write(path)
        loaded = RunManifest.load(path)
        assert loaded.name == "demo"
        assert loaded.seed == 1234
        assert loaded.uops_per_sec == manifest.uops_per_sec == 2000.0
        assert loaded.metrics == {"run.cycles": 400}
        assert loaded.event_counts == {"retire": 1000}
        assert loaded.schema == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestGitRevision:
    """Provenance names the code that ran: a tree with uncommitted
    changes is marked, not stamped with its parent's hash."""

    @staticmethod
    def _git(repo, *args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
            text=True).stdout.strip()

    def _repo(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git(repo, "init", "-q")
        (repo / "a.txt").write_text("one\n")
        self._git(repo, "add", "a.txt")
        self._git(repo, "commit", "-q", "-m", "one")
        return repo

    def test_clean_tree_is_the_commit_hash(self, tmp_path):
        repo = self._repo(tmp_path)
        assert git_revision(str(repo)) == self._git(repo, "rev-parse",
                                                    "HEAD")

    def test_modified_tree_is_marked_dirty(self, tmp_path):
        repo = self._repo(tmp_path)
        sha = self._git(repo, "rev-parse", "HEAD")
        (repo / "a.txt").write_text("two\n")
        assert git_revision(str(repo)) == f"{sha}-dirty"

    def test_untracked_file_is_marked_dirty(self, tmp_path):
        repo = self._repo(tmp_path)
        (repo / "b.txt").write_text("new\n")
        assert git_revision(str(repo)).endswith("-dirty")

    def test_outside_a_checkout_is_none(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        # A checkout above tmp_path must not leak in.
        toplevel = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], cwd=plain,
            capture_output=True, text=True)
        if toplevel.returncode == 0:
            pytest.skip("tmp_path lies inside a git checkout")
        assert git_revision(str(plain)) is None


class TestPhaseProfiler:
    def test_phases_accumulate(self):
        prof = PhaseProfiler()
        with prof.phase("a"):
            pass
        with prof.phase("a"):
            pass
        with prof.phase("b"):
            pass
        assert set(prof.timings) == {"a", "b"}
        assert prof.accounted >= 0.0
        assert prof.as_dict()["a"] >= 0.0


class TestObservedRun:
    def test_writes_all_artifacts(self, tmp_path):
        result, manifest = observed(tmp_path)
        out = tmp_path / "run"
        for name in ("events.jsonl", "trace.json", "metrics.json",
                     "manifest.json"):
            assert (out / name).exists(), name
        assert manifest.cycles == result.cycles
        assert manifest.n_uops == result.retired_uops
        assert manifest.metrics["run.cycles"] == result.cycles
        assert "simulate" in manifest.phases and "export" in manifest.phases
        assert manifest.config["window_size"] > 0

    def test_event_counts_cross_check(self, tmp_path):
        result, manifest = observed(tmp_path)
        log = read_jsonl(str(tmp_path / "run" / "events.jsonl"))
        by_kind = {}
        for record in log:
            by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
        assert by_kind == manifest.event_counts
        assert by_kind.get(EventKind.COLLISION, 0) == \
            result.collision_penalties

    def test_trace_json_is_valid(self, tmp_path):
        observed(tmp_path, n_uops=1500)
        with open(tmp_path / "run" / "trace.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["traceEvents"], "empty chrome trace"
        assert all("ph" in e and "pid" in e for e in doc["traceEvents"])

"""Perf regression gate: extraction, history, comparison, CLI exits."""

import copy
import json
import os

import pytest

from repro.obs.__main__ import main
from repro.obs.gate import (
    Violation,
    _row_key,
    append_history,
    compare,
    extract_metrics,
    history_row,
    make_baseline,
    metric_higher_is_better,
    read_history,
)

SERVE_REPORT = {
    "bench": "repro.serve",
    "schema": 2,
    "provenance": {"git_rev": "abc1234", "hostname": "bench-host",
                   "python": "3.11.0", "numpy": "1.26.0",
                   "cpu_count": 8, "platform": "Linux", "machine": "x86_64"},
    "sides": {
        "scalar": {"throughput_rps": 30000.0,
                   "service_us": {"stage": "predict", "p50": 25.0}},
        "vectorized": {"throughput_rps": 110000.0,
                       "service_us": {"stage": "kernel", "p50": 1000.0}},
    },
}

THROUGHPUT_REPORT = {
    "benchmark": "throughput",
    "schemes": {"traditional": {"uops_per_sec": 50000.0},
                "perfect": {"uops_per_sec": 60000.0}},
    "fastpath": {"hmp_hybrid": {"reference_uops_per_sec": 1e6,
                                "vectorized_uops_per_sec": 9e6,
                                "speedup": 9.0}},
}


class TestDirection:
    def test_throughput_metrics_are_higher_better(self):
        assert metric_higher_is_better("serve.scalar.throughput_rps")
        assert metric_higher_is_better("schemes.perfect.uops_per_sec")

    def test_latency_metrics_are_lower_better(self):
        assert not metric_higher_is_better("serve.scalar.service_us.p50")
        assert not metric_higher_is_better("trace.total_us")


class TestExtraction:
    def test_serve_report(self):
        metrics = extract_metrics(SERVE_REPORT)
        assert metrics["serve.vectorized.throughput_rps"] == 110000.0
        assert metrics["serve.scalar.service_us.p50"] == 25.0

    def test_throughput_report(self):
        metrics = extract_metrics(THROUGHPUT_REPORT)
        assert metrics["schemes.traditional.uops_per_sec"] == 50000.0
        assert metrics["fastpath.hmp_hybrid.vectorized_uops_per_sec"] \
            == 9e6

    def test_observed_kernel_throughput(self):
        report = dict(THROUGHPUT_REPORT, observability={
            "observed_uops_per_sec": 70000.0,
            "observed_overhead_frac": 0.12})
        metrics = extract_metrics(report)
        assert metrics["observability.observed_uops_per_sec"] == 70000.0
        assert not any(k.endswith("overhead_frac") for k in metrics)

    def test_fleet_snapshot_layers_gate_lower_is_better(self):
        report = dict(THROUGHPUT_REPORT, fleet_snapshot={
            "sessions": 128, "frame_bytes": 250000, "encode_us": 12000.0,
            "persist_us": 500.0, "truncate_us": 250.0})
        metrics = extract_metrics(report)
        assert {k: v for k, v in metrics.items()
                if k.startswith("fleet_snapshot.")} == {
            "fleet_snapshot.encode_us": 12000.0,
            "fleet_snapshot.persist_us": 500.0,
            "fleet_snapshot.truncate_us": 250.0}
        assert not metric_higher_is_better("fleet_snapshot.persist_us")

    def test_unknown_report_raises(self):
        with pytest.raises(ValueError):
            extract_metrics({"something": "else"})


class TestHistory:
    def test_rows_carry_full_provenance(self, tmp_path):
        path = str(tmp_path / "BENCH_history.jsonl")
        append_history(path, history_row(SERVE_REPORT, source="a.json"))
        append_history(path, history_row(THROUGHPUT_REPORT,
                                         source="b.json"))
        rows = read_history(path)
        assert len(rows) == 2
        # The serve report embeds provenance: the row must describe the
        # *bench* machine, not whoever ran the gate.
        assert rows[0]["provenance"]["hostname"] == "bench-host"
        assert rows[0]["provenance"]["git_rev"] == "abc1234"
        assert rows[0]["kind"] == "serve" and rows[0]["source"] == "a.json"
        # The throughput report has none: collected at gate time.
        for key in ("git_rev", "hostname", "python", "numpy",
                    "cpu_count"):
            assert key in rows[1]["provenance"]

    def test_read_missing_history_is_empty(self, tmp_path):
        assert read_history(str(tmp_path / "nope.jsonl")) == []


class TestCompare:
    def test_identical_rerun_passes(self):
        baseline = make_baseline(SERVE_REPORT)
        assert compare(extract_metrics(SERVE_REPORT), baseline) == []

    def test_2x_throughput_regression_fails(self):
        baseline = make_baseline(SERVE_REPORT, tolerance=0.4)
        slow = copy.deepcopy(SERVE_REPORT)
        slow["sides"]["vectorized"]["throughput_rps"] /= 2.0
        violations = compare(extract_metrics(slow), baseline)
        assert [v.metric for v in violations] == \
            ["serve.vectorized.throughput_rps"]
        assert "-50.0%" in str(violations[0])

    def test_2x_latency_regression_fails(self):
        baseline = make_baseline(SERVE_REPORT, tolerance=0.4)
        slow = copy.deepcopy(SERVE_REPORT)
        slow["sides"]["scalar"]["service_us"]["p50"] *= 2.0
        violations = compare(extract_metrics(slow), baseline)
        assert [v.metric for v in violations] == \
            ["serve.scalar.service_us.p50"]

    def test_within_tolerance_passes(self):
        baseline = make_baseline(SERVE_REPORT, tolerance=0.5)
        slightly = copy.deepcopy(SERVE_REPORT)
        slightly["sides"]["vectorized"]["throughput_rps"] *= 0.7
        assert compare(extract_metrics(slightly), baseline) == []

    def test_per_metric_override_wins(self):
        baseline = make_baseline(SERVE_REPORT, tolerance=0.5)
        baseline["per_metric"] = {
            "serve.vectorized.throughput_rps": 0.1}
        slightly = copy.deepcopy(SERVE_REPORT)
        slightly["sides"]["vectorized"]["throughput_rps"] *= 0.7
        violations = compare(extract_metrics(slightly), baseline)
        assert [v.metric for v in violations] == \
            ["serve.vectorized.throughput_rps"]

    def test_new_metric_without_baseline_is_ignored(self):
        baseline = make_baseline(SERVE_REPORT)
        metrics = extract_metrics(SERVE_REPORT)
        metrics["serve.new_side.throughput_rps"] = 1.0
        assert compare(metrics, baseline) == []

    def test_violation_str_is_informative(self):
        v = Violation("m.p50_us", baseline=100.0, measured=260.0,
                      tolerance=0.5, higher_is_better=False)
        text = str(v)
        assert "m.p50_us" in text and "+160.0%" in text and "up" in text


class TestGateCli:
    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_first_run_creates_baseline_then_identical_passes(
            self, tmp_path, capsys):
        report = self._write(tmp_path, "r.json", SERVE_REPORT)
        history = str(tmp_path / "hist.jsonl")
        baseline = str(tmp_path / "base.json")
        assert main(["gate", report, "--history", history,
                     "--baseline", baseline]) == 0
        assert "baseline" in capsys.readouterr().out
        # Identical re-run against the new baseline: exit 0, and the
        # identical row is not recorded twice.
        assert main(["gate", report, "--history", history,
                     "--baseline", baseline]) == 0
        assert len(read_history(history)) == 1

    def test_synthetic_2x_regression_exits_nonzero(self, tmp_path,
                                                   capsys):
        report = self._write(tmp_path, "good.json", SERVE_REPORT)
        slow_report = copy.deepcopy(SERVE_REPORT)
        for side in slow_report["sides"].values():
            side["throughput_rps"] /= 2.0
        slow = self._write(tmp_path, "slow.json", slow_report)
        history = str(tmp_path / "hist.jsonl")
        baseline = str(tmp_path / "base.json")
        assert main(["gate", report, "--history", history,
                     "--baseline", baseline, "--tolerance", "0.3"]) == 0
        assert main(["gate", slow, "--history", history,
                     "--baseline", baseline, "--tolerance", "0.3"]) == 1
        out = capsys.readouterr().out
        assert "throughput_rps" in out
        rows = read_history(history)
        assert len(rows) == 2  # failures still append to the trajectory

    def test_history_only_mode_without_baseline(self, tmp_path, capsys):
        report = self._write(tmp_path, "r.json", THROUGHPUT_REPORT)
        history = str(tmp_path / "hist.jsonl")
        assert main(["gate", report, "--history", history]) == 0
        assert "history-only" in capsys.readouterr().out
        assert len(read_history(history)) == 1

    def test_no_append_leaves_history_untouched(self, tmp_path):
        report = self._write(tmp_path, "r.json", SERVE_REPORT)
        history = str(tmp_path / "hist.jsonl")
        baseline = str(tmp_path / "base.json")
        assert main(["gate", report, "--history", history,
                     "--baseline", baseline, "--no-append"]) == 0
        assert read_history(history) == []

    def test_duplicate_row_is_not_appended(self, tmp_path, capsys):
        report = self._write(tmp_path, "r.json", THROUGHPUT_REPORT)
        history = str(tmp_path / "hist.jsonl")
        for _ in range(3):
            assert main(["gate", report, "--history", history]) == 0
        assert "not appended" in capsys.readouterr().out
        rows = read_history(history)
        assert len(rows) == 1 and rows[0]["source"] == "r.json"
        # A different metric value is a new row.
        changed = copy.deepcopy(THROUGHPUT_REPORT)
        changed["schemes"]["perfect"]["uops_per_sec"] = 61000.0
        self._write(tmp_path, "r.json", changed)
        assert main(["gate", report, "--history", history]) == 0
        assert len(read_history(history)) == 2

    def test_report_outside_the_repository_is_refused(self, tmp_path,
                                                      capsys):
        repo = tmp_path / "repo"
        repo.mkdir()
        outside = self._write(tmp_path, "ht_only.json", SERVE_REPORT)
        history = str(repo / "hist.jsonl")
        assert main(["gate", outside, "--history", history]) == 2
        assert "outside" in capsys.readouterr().err
        assert read_history(history) == []
        # Gating without recording stays possible.
        assert main(["gate", outside, "--history", history,
                     "--no-append"]) == 0

    def test_unrecognised_report_exits_2(self, tmp_path):
        report = self._write(tmp_path, "junk.json", {"not": "a bench"})
        assert main(["gate", report,
                     "--history", str(tmp_path / "h.jsonl")]) == 2


def test_committed_history_has_unique_in_repo_rows():
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCH_history.jsonl")
    rows = read_history(path)
    assert rows
    keys = [_row_key(row) for row in rows]
    assert len(set(keys)) == len(keys), "duplicate history rows"
    for row in rows:
        assert not os.path.isabs(row["source"]), row["source"]

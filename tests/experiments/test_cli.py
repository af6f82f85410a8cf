"""Smoke tests for the two command-line entry points."""

import json

import pytest

import repro.experiments.__main__ as exp_cli
from repro.experiments.__main__ import EXIT_DEGRADED
from repro.experiments.__main__ import main as experiments_main
from repro.trace.__main__ import main as trace_main


class TestExperimentsCli:
    def test_single_figure(self, capsys):
        rc = experiments_main(["fig12", "--uops", "3000",
                               "--traces-per-group", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "done in" in out

    def test_extension_experiment(self, capsys):
        rc = experiments_main(["ext-smt", "--uops", "3000",
                               "--traces-per-group", "1"])
        assert rc == 0
        assert "multithreading" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["fig99"])

    def test_bad_uops_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["fig12", "--uops", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--chaos", "worker-kil"],
        # faults the runner does not inject
        ["--chaos", "flip-hmp"],
        ["--chaos", "flip-cht=0.1"],
        ["--chaos", "flip-bank"],
        ["--chaos", "latency=40"],
        ["--chaos", "worker-stall"],
        ["--chaos", "stall-seconds=1"],
        # healing knobs that do not exist
        ["--retries", "2"],
        ["--timeout", "5"],
    ], ids=lambda flags: " ".join(flags))
    def test_bad_chaos_spec_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["fig12", "--uops", "2000",
                              "--traces-per-group", "1"] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert ("choose from" in err if flags[0] == "--chaos"
                else "unrecognized arguments" in err)


class TestExitCodeContract:
    """0 = complete, 2 = usage, 3 = degraded (partial data written)."""

    def test_failed_figure_degrades_and_writes_partial_json(
            self, tmp_path, capsys, monkeypatch):
        def explode(settings):
            from repro.parallel import SimJob, run_jobs
            from tests.parallel import _grid_jobs
            return run_jobs([SimJob.make(_grid_jobs.fail,
                                         key=("fail", 1), x=1)])

        monkeypatch.setitem(exp_cli.EXPERIMENTS, "fig12", explode)
        json_path = tmp_path / "out.json"
        rc = experiments_main(["classification", "--uops", "3000",
                               "--traces-per-group", "1",
                               "--json", str(json_path)])
        # fig12 was not requested: the healthy figures complete fine.
        assert rc == 0

        rc = experiments_main(["fig12", "--uops", "3000",
                               "--traces-per-group", "1",
                               "--json", str(json_path)])
        assert rc == EXIT_DEGRADED
        err = capsys.readouterr().err
        assert "failed after 1 attempt(s)" in err
        assert "degraded" in err
        # The partial JSON is still written, with the error recorded.
        payload = json.loads(json_path.read_text())
        assert "error" in payload["fig12"]

    def test_degraded_run_keeps_later_figures(self, tmp_path,
                                              monkeypatch, capsys):
        def explode(settings):
            from repro.parallel import SimJob, run_jobs
            from tests.parallel import _grid_jobs
            return run_jobs([SimJob.make(_grid_jobs.fail,
                                         key=("fail", 2), x=2)])

        monkeypatch.setitem(exp_cli.EXPERIMENTS, "fig5", explode)
        json_path = tmp_path / "out.json"
        rc = experiments_main(["classification", "--uops", "3000",
                               "--traces-per-group", "1",
                               "--json", str(json_path),
                               "--obs-dir", str(tmp_path / "obs")])
        assert rc == EXIT_DEGRADED
        payload = json.loads(json_path.read_text())
        assert "error" in payload["fig5"]
        assert "error" not in payload["fig6"]  # fig6 survived
        assert payload["fig6"]["sweep"]
        manifest = json.loads(
            (tmp_path / "obs" / "manifest.json").read_text())
        healing = manifest["extra"]["healing"]
        assert healing["degraded"] is True
        assert healing["failures"][0]["figure"] == "fig5"

    def test_fail_fast_skips_remaining_figures(self, tmp_path,
                                               monkeypatch, capsys):
        def explode(settings):
            from repro.parallel import SimJob, run_jobs
            from tests.parallel import _grid_jobs
            return run_jobs([SimJob.make(_grid_jobs.fail,
                                         key=("fail", 3), x=3)])

        monkeypatch.setitem(exp_cli.EXPERIMENTS, "fig5", explode)
        json_path = tmp_path / "out.json"
        rc = experiments_main(["classification", "--uops", "3000",
                               "--traces-per-group", "1",
                               "--fail-fast",
                               "--json", str(json_path)])
        assert rc == EXIT_DEGRADED
        payload = json.loads(json_path.read_text())
        assert "fig6" not in payload  # never attempted
        assert "--fail-fast" in capsys.readouterr().err


@pytest.mark.slow
class TestChaosSmoke:
    def test_chaos_run_heals_to_clean_results(self, tmp_path, capsys):
        """The CI chaos smoke in miniature: a kill-chaos grid completes
        with byte-identical data and the manifest records the
        healing."""
        clean_json = tmp_path / "clean.json"
        rc = experiments_main(["fig7", "--uops", "3000",
                               "--traces-per-group", "2",
                               "--json", str(clean_json)])
        assert rc == 0
        chaos_json = tmp_path / "chaos.json"
        rc = experiments_main(["fig7", "--uops", "3000",
                               "--traces-per-group", "2",
                               "--workers", "2",
                               "--chaos", "worker-kill=1.0",
                               "--json", str(chaos_json),
                               "--obs-dir", str(tmp_path / "obs")])
        assert rc == 0
        assert clean_json.read_bytes() == chaos_json.read_bytes()
        manifest = json.loads(
            (tmp_path / "obs" / "manifest.json").read_text())
        healing = manifest["extra"]["healing"]
        assert healing["degraded"] is False
        assert healing["pool_rebuilds"] >= 1


class TestTraceCli:
    def test_list(self, capsys):
        assert trace_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "SysmarkNT" in out and "cd" in out

    def test_build(self, capsys):
        assert trace_main(["build", "cd", "--uops", "2000"]) == 0
        assert "uops" in capsys.readouterr().out

    def test_dump_and_show(self, tmp_path, capsys):
        path = str(tmp_path / "t.trace")
        assert trace_main(["dump", "gcc", path, "--uops", "1500"]) == 0
        capsys.readouterr()
        assert trace_main(["show", path, "--head", "2"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "SpecInt95" in out

    def test_unknown_trace_suggests_and_exits_2(self, capsys):
        assert trace_main(["build", "gccc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Did you mean" in err
        assert "gcc" in err

    def test_bad_uops_exits_2(self, capsys):
        assert trace_main(["build", "gcc", "--uops", "0"]) == 2
        assert "--uops" in capsys.readouterr().err

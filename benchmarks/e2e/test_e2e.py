"""Self-test of the end-to-end benchmark at smoke scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs at ``--scale 0.05 --seconds 1``, untraced and
traced; each declared metric must come out with its declared unit.  The
negative tests feed a corrupted expected hash and a lying shadow
predictor and must see failures counted and a non-zero exit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import END_TO_END, PER_LAYER, WORKLOADS
from benchmarks.e2e.__main__ import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SMOKE = ("--seed", "1", "--seconds", "1", "--scale", "0.05")


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run(tmp_path, workload: str, trace: int, *extra: str):
    out = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", str(trace), "--out", str(out), *SMOKE, *extra],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result, out


def test_declarations_match_the_code():
    bench = _declared()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(PER_LAYER)
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        n["bound"] for n in bench["end_to_end"])
        for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(tmp_path, workload, trace):
    code, result, out = _run(tmp_path, workload, trace)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        spans = Path(str(out) + ".spans.jsonl").read_text().splitlines()
        assert spans and {"id", "name", "start_ns", "end_ns", "parent",
                          "run"} <= set(json.loads(spans[0]))


def test_corrupted_expected_hash_fails_the_run(tmp_path):
    expected = tmp_path / "expected.json"
    subprocess.run([sys.executable, "-m", "benchmarks.e2e",
                    "record-expected", "--scale", "0.05",
                    "--out", str(expected)],
                   cwd=str(ROOT), check=True, timeout=300,
                   stdout=subprocess.DEVNULL)
    payload = json.loads(expected.read_text())
    hashes = payload["fig7_engine"]["hashes"]
    first = sorted(hashes)[0]
    hashes[first] = "0" * 64
    expected.write_text(json.dumps(payload))
    code, result, _ = _run(tmp_path, "fig7_engine", 0, "--seed", "0",
                           "--expected", str(expected))
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_lying_shadow_predictor_fails_the_run(tmp_path, monkeypatch,
                                              capsys):
    from benchmarks.e2e import run, serve
    from repro.api import build_predictor, spec_for

    monkeypatch.setattr(serve, "shadow_predictor", lambda spec:
                        build_predictor(spec_for("hmp.always-miss")))
    # run.main scrubs REPRO_* variables and extends sys.path; undo both
    # when the test ends so later tests keep their environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = run.main(["--workload", "serve_phased", *SMOKE])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_checkout_without_sources_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fig7_engine", "--trace", "0", *SMOKE],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_pairing_rule():
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [90.0 + i % 3 for i in range(10)]
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "better"
    assert verdict(parent, parent, "lower", 0.1)["verdict"] == "same"
    slower = [120.0 + i % 3 for i in range(10)]
    assert verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    noisy = [50.0, 150.0] * 5
    assert verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"

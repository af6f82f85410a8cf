"""End-to-end equivalence: figure harnesses and machine runs must emit
byte-identical JSON whichever backend ``REPRO_BACKEND`` selects."""

import json

import pytest

from repro.common.config import BASELINE_MACHINE
from repro.engine.machine import Machine
from repro.engine.ordering import make_scheme
from repro.experiments.bank_metric import run_fig12
from repro.experiments.cht_accuracy import run_fig9
from repro.experiments.harness import ExperimentSettings, get_trace
from repro.experiments.hitmiss_stats import run_fig10

SMALL = ExperimentSettings(n_uops=2000, traces_per_group=1)

FIGURES = {
    "fig9": lambda: run_fig9(SMALL),
    "fig10": lambda: run_fig10(SMALL),
    "fig12": lambda: run_fig12(SMALL),
}


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("label", sorted(FIGURES))
def test_figure_json_identical_across_backends(label, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    reference = _dumps(FIGURES[label]())
    monkeypatch.setenv("REPRO_BACKEND", "vectorized")
    vectorized = _dumps(FIGURES[label]())
    assert vectorized == reference


@pytest.mark.parametrize("scheme", ("traditional", "exclusive"))
def test_machine_simresult_identical_across_backends(scheme, monkeypatch):
    # The backend switch must be invisible to cycle-level results.
    trace = get_trace("cd", 2000)
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    reference = Machine(config=BASELINE_MACHINE,
                        scheme=make_scheme(scheme)).run(trace)
    monkeypatch.setenv("REPRO_BACKEND", "vectorized")
    vectorized = Machine(config=BASELINE_MACHINE,
                         scheme=make_scheme(scheme)).run(trace)
    assert _dumps(vectorized.as_dict()) == _dumps(reference.as_dict())

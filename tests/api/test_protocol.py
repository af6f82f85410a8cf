"""LoadPredictor protocol conformance."""

from repro.api import build_predictor, spec_for
from repro.common.types import LoadPredictor
from repro.predictors.base import AlwaysPredictor


def test_binary_predictors_conform_verbatim():
    for kind in ("binary.always", "binary.bimodal", "binary.local",
                 "binary.gshare", "binary.gskew"):
        predictor = build_predictor(spec_for(kind))
        assert isinstance(predictor, LoadPredictor)


def test_protocol_is_runtime_checkable_structurally():
    class Duck:
        def predict(self, pc):
            return AlwaysPredictor(outcome=True).predict(pc)

        def update(self, pc, outcome):
            pass

    assert isinstance(Duck(), LoadPredictor)
    assert not isinstance(object(), LoadPredictor)

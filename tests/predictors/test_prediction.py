"""Semantics of the Prediction record every binary predictor returns."""

import pickle

from repro.predictors.base import NO_PREDICTION, Prediction


def test_truth_value_is_the_outcome():
    # A tuple is truthy whenever it is non-empty; Prediction is not.
    assert bool(Prediction(outcome=False)) is False
    assert bool(Prediction(outcome=True)) is True
    assert bool(Prediction(False, 1.0, True)) is False
    assert not NO_PREDICTION


def test_defaults_and_fields():
    p = Prediction(outcome=True)
    assert (p.outcome, p.confidence, p.valid) == (True, 1.0, True)
    assert Prediction._fields == ("outcome", "confidence", "valid")


def test_no_prediction_fields():
    assert NO_PREDICTION.outcome is False
    assert NO_PREDICTION.confidence == 0.0
    assert NO_PREDICTION.valid is False


def test_equality_and_hashing_follow_the_fields():
    a = Prediction(outcome=True, confidence=0.5)
    b = Prediction(True, 0.5, True)
    assert a == b and hash(a) == hash(b)
    assert a != Prediction(outcome=True, confidence=0.25)
    assert a != Prediction(outcome=True, confidence=0.5, valid=False)
    assert len({a, b, NO_PREDICTION}) == 2


def test_immutable_and_picklable():
    p = Prediction(outcome=True, confidence=0.5)
    try:
        p.outcome = False
    except AttributeError:
        pass
    else:  # pragma: no cover - would be a regression
        raise AssertionError("Prediction fields must be read-only")
    assert pickle.loads(pickle.dumps(p)) == p
    assert p._replace(valid=False) == Prediction(True, 0.5, False)

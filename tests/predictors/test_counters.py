"""Tests for saturating counters and sticky bits."""

import pickle

import pytest

from repro.api import build_predictor, spec_for
from repro.predictors.counters import SaturatingCounter, StickyBit


class TestSaturatingCounter:
    def test_initial_prediction_false(self):
        assert not SaturatingCounter(2).prediction

    def test_threshold_crossing(self):
        c = SaturatingCounter(2)  # threshold 2
        c.train(True)
        assert not c.prediction
        c.train(True)
        assert c.prediction

    def test_saturation_high(self):
        c = SaturatingCounter(2)
        for _ in range(10):
            c.train(True)
        assert c.value == 3
        assert c.is_saturated

    def test_saturation_low(self):
        c = SaturatingCounter(2, initial=3)
        for _ in range(10):
            c.train(False)
        assert c.value == 0
        assert c.is_saturated

    def test_hysteresis(self):
        """A saturated counter survives one contrary outcome."""
        c = SaturatingCounter(2, initial=3)
        c.train(False)
        assert c.prediction  # still predicts True at value 2

    def test_one_bit_counter(self):
        c = SaturatingCounter(1)
        c.train(True)
        assert c.prediction
        c.train(False)
        assert not c.prediction

    def test_custom_threshold(self):
        c = SaturatingCounter(2, threshold=3)
        c.train(True)
        c.train(True)
        assert not c.prediction  # value 2 < threshold 3
        c.train(True)
        assert c.prediction

    def test_confidence_bounds(self):
        c = SaturatingCounter(3)
        for _ in range(8):
            assert 0.0 <= c.confidence <= 1.0
            c.train(True)
        assert c.confidence == 1.0  # saturated

    def test_validation(self):
        with pytest.raises(ValueError):
            SaturatingCounter(0)
        with pytest.raises(ValueError):
            SaturatingCounter(2, initial=4)
        with pytest.raises(ValueError):
            SaturatingCounter(2, threshold=0)

    def test_reset(self):
        c = SaturatingCounter(2, initial=3)
        c.reset()
        assert c.value == 0
        with pytest.raises(ValueError):
            c.reset(9)


class TestStickyBit:
    def test_starts_clear(self):
        assert not StickyBit().prediction

    def test_sets_on_true(self):
        s = StickyBit()
        s.train(True)
        assert s.prediction

    def test_never_unlearns(self):
        """The defining property: once set, contrary outcomes are ignored."""
        s = StickyBit()
        s.train(True)
        for _ in range(100):
            s.train(False)
        assert s.prediction

    def test_reset_clears(self):
        s = StickyBit(True)
        s.reset()
        assert not s.prediction

    def test_confidence(self):
        s = StickyBit()
        assert s.confidence == 0.0
        s.train(True)
        assert s.confidence == 1.0


class TestCompactPickle:
    """Counters pickle as their constructor arguments (snapshot size)."""

    @pytest.mark.parametrize("bits,initial,threshold", [
        (1, 1, None), (2, 0, None), (3, 5, 2), (4, 9, 15), (3, 0, 7)])
    def test_counter_round_trip_keeps_behaviour(self, bits, initial,
                                                threshold):
        original = SaturatingCounter(bits, initial=initial,
                                     threshold=threshold)
        copy = pickle.loads(pickle.dumps(original))
        assert (copy.bits, copy.value) == (bits, initial)
        for outcome in (True, True, False, True, False, False, False,
                        True, True, True, True, True):
            assert copy.prediction == original.prediction
            assert copy.confidence == original.confidence
            assert copy.is_saturated == original.is_saturated
            original.train(outcome)
            copy.train(outcome)
            assert copy.value == original.value

    @pytest.mark.parametrize("value", [False, True])
    def test_sticky_bit_round_trip_keeps_behaviour(self, value):
        original = StickyBit(value)
        copy = pickle.loads(pickle.dumps(original))
        assert copy.value == value
        assert copy.confidence == original.confidence
        copy.train(True)
        assert copy.prediction

    def test_fresh_gshare_hmp_pickles_small(self):
        # 128 two-bit cells; the slotted default pickled to 4,117 bytes.
        predictor = build_predictor(spec_for("hmp.gshare", history=7))
        assert len(pickle.dumps(predictor,
                                protocol=pickle.HIGHEST_PROTOCOL)) <= 2200

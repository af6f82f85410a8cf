"""Tests for counter tables, saturating counters and sticky bits."""

import pickle

import pytest

from repro.api import build_predictor, spec_for
from repro.predictors.counters import (
    CounterTable,
    SaturatingCounter,
    StickyBit,
)


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
        # 128 two-bit cells: one byte each in a flat table.  A table of
        # slotted cell objects pickled to 4,117 bytes, 1,919 compacted.
        predictor = build_predictor(spec_for("hmp.gshare", history=7))
        assert len(pickle.dumps(predictor,
                                protocol=pickle.HIGHEST_PROTOCOL)) <= 512

    @pytest.mark.parametrize("kind,limit", [
        ("hmp.hybrid", 8 * 1024),    # 42,111 bytes as cell objects
        ("cht.tagless", 12 * 1024),  # 53,582 bytes as cell objects
    ])
    def test_fresh_default_predictors_pickle_small(self, kind, limit):
        predictor = build_predictor(spec_for(kind))
        assert len(pickle.dumps(predictor,
                                protocol=pickle.HIGHEST_PROTOCOL)) <= limit


def _trained_pair(bits, initial, threshold, n_cells=4):
    """A counter table and one lone reference counter per cell."""
    table = CounterTable(n_cells, bits, initial=initial, threshold=threshold)
    cells = [SaturatingCounter(bits, initial=initial, threshold=threshold)
             for _ in range(n_cells)]
    return table, cells


#: Outcome stream that drives every cell through saturation both ways.
_STREAM = (True, True, False, True, False, False, False, True, True,
           True, True, True, True, True, True, True, False)


class TestCounterTable:
    """Cell ``i`` of a table is exactly a lone ``SaturatingCounter``."""

    @pytest.mark.parametrize("bits,initial,threshold", [
        (1, 0, None), (1, 1, None), (2, 0, None), (2, 3, None),
        (2, 1, 3), (3, 0, None), (3, 5, 2), (3, 0, 7)])
    def test_cells_match_lone_counters(self, bits, initial, threshold):
        table, cells = _trained_pair(bits, initial, threshold)
        for step, outcome in enumerate(_STREAM):
            i = step % len(cells)
            for j, cell in enumerate(cells):
                assert table.prediction(j) == cell.prediction
                assert table.confidence(j) == cell.confidence
            table.train(i, outcome)
            cells[i].train(outcome)
            assert list(table.cells) == [c.value for c in cells]

    def test_geometry(self):
        table = CounterTable(16, 3, threshold=6)
        assert (len(table), table.bits, table.max, table.threshold) == \
            (16, 3, 7, 6)
        assert CounterTable(8).threshold == 2
        assert CounterTable(8, 1).threshold == 1

    def test_saturates_both_ways(self):
        table = CounterTable(2, 2)
        for _ in range(10):
            table.train(1, True)
        assert list(table.cells) == [0, 3]
        for _ in range(10):
            table.train(1, False)
        assert list(table.cells) == [0, 0]

    def test_reset_zeroes_every_cell(self):
        table = CounterTable(4, 2, initial=3)
        table.train(0, False)
        table.reset()
        assert list(table.cells) == [0, 0, 0, 0]
        assert len(table) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            CounterTable(4, 0)
        with pytest.raises(ValueError):
            CounterTable(4, 9)  # a cell is one byte
        with pytest.raises(ValueError):
            CounterTable(4, 2, initial=4)
        with pytest.raises(ValueError):
            CounterTable(4, 2, threshold=0)
        with pytest.raises(ValueError):
            CounterTable(4, 2, threshold=4)

    @pytest.mark.parametrize("bits,initial,threshold", [
        (1, 1, None), (2, 0, None), (3, 5, 2), (8, 200, 255)])
    def test_pickle_round_trip_keeps_behaviour(self, bits, initial,
                                               threshold):
        original = CounterTable(64, bits, initial=initial,
                                threshold=threshold)
        original.train(3, True)
        original.train(5, False)
        copy = pickle.loads(pickle.dumps(original,
                                         protocol=pickle.HIGHEST_PROTOCOL))
        assert type(copy.cells) is bytearray
        assert copy.cells == original.cells
        assert (copy.bits, copy.max, copy.threshold) == \
            (original.bits, original.max, original.threshold)
        for i, outcome in zip(range(64), _STREAM * 4):
            assert copy.prediction(i) == original.prediction(i)
            assert copy.confidence(i) == original.confidence(i)
            copy.train(i, outcome)
            original.train(i, outcome)
        assert copy.cells == original.cells

    def test_pickle_is_the_raw_bytes(self):
        table = CounterTable(1024, 2)
        assert len(pickle.dumps(table,
                                protocol=pickle.HIGHEST_PROTOCOL)) < 1024 + 128

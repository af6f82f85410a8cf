"""Tests for the table-based binary predictors (bimodal/local/gshare/gskew).

All four share the BinaryPredictor protocol, so a common battery runs
against each, plus per-predictor tests for their distinguishing
behaviours (history capture, aliasing, skewing).
"""

import pickle

import pytest

from repro.common import bits
from repro.predictors.base import AlwaysPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor

ALL_PREDICTORS = [
    lambda: BimodalPredictor(n_entries=256),
    lambda: LocalPredictor(n_entries=256, history_bits=6),
    lambda: GSharePredictor(history_bits=8),
    lambda: GSkewPredictor(history_bits=8, bank_entries=256),
]

IDS = ["bimodal", "local", "gshare", "gskew"]


@pytest.mark.parametrize("factory", ALL_PREDICTORS, ids=IDS)
class TestCommonProtocol:
    def test_learns_constant_behaviour(self, factory):
        p = factory()
        pc = 0x40100
        for _ in range(16):
            p.update(pc, True)
        assert p.predict(pc).outcome

    def test_learns_constant_false(self, factory):
        p = factory()
        pc = 0x40100
        for _ in range(16):
            p.update(pc, False)
        assert not p.predict(pc).outcome

    def test_reset_restores_cold_state(self, factory):
        p = factory()
        pc = 0x40100
        for _ in range(16):
            p.update(pc, True)
        p.reset()
        cold = factory()
        assert p.predict(pc).outcome == cold.predict(pc).outcome

    def test_storage_bits_positive(self, factory):
        assert factory().storage_bits > 0

    def test_confidence_in_unit_interval(self, factory):
        p = factory()
        for i in range(32):
            pred = p.predict(0x400 + 4 * i)
            assert 0.0 <= pred.confidence <= 1.0
            p.update(0x400 + 4 * i, i % 2 == 0)


    def test_predict_outcome_is_the_prediction_outcome(self, factory):
        p = factory()
        for i in range(400):
            pc = 0x40100 + 4 * (i % 23)
            assert p.predict_outcome(pc) == p.predict(pc).outcome
            p.update(pc, (i * 7) % 5 < 2)

    def test_pickle_holds_no_derived_width(self, factory):
        p = factory()
        for i in range(50):
            p.update(0x40100 + 4 * (i % 7), i % 3 == 0)
        blob = pickle.dumps(p)
        assert b"_index_bits" not in blob
        copy = pickle.loads(blob)
        assert copy._index_bits == p._index_bits
        for i in range(50):
            pc = 0x40100 + 4 * (i % 7)
            assert copy.predict(pc) == p.predict(pc)
            copy.update(pc, i % 2 == 0)
            p.update(pc, i % 2 == 0)
        assert pickle.dumps(copy) == pickle.dumps(p)


class TestBimodal:
    def test_entries_independent(self):
        p = BimodalPredictor(n_entries=1024)
        # Train two (non-aliasing) PCs to opposite outcomes.
        pc_a, pc_b = 0x1000, 0x2004
        for _ in range(4):
            p.update(pc_a, True)
            p.update(pc_b, False)
        assert p.predict(pc_a).outcome
        assert not p.predict(pc_b).outcome

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(n_entries=1000)


class TestLocal:
    def test_learns_alternating_pattern(self):
        """The signature local-predictor skill: periodic per-PC patterns."""
        p = LocalPredictor(n_entries=256, history_bits=8)
        pc = 0x5000
        pattern = [True, False] * 40
        # Warm up.
        for outcome in pattern:
            p.update(pc, outcome)
        # Now it should track the alternation.
        correct = 0
        expected = True
        for _ in range(20):
            if p.predict(pc).outcome == expected:
                correct += 1
            p.update(pc, expected)
            expected = not expected
        assert correct >= 18

    def test_learns_period_four(self):
        p = LocalPredictor(n_entries=256, history_bits=8)
        pc = 0x5000
        pattern = [True, False, False, False]
        for _ in range(40):
            for outcome in pattern:
                p.update(pc, outcome)
        correct = 0
        for _ in range(5):
            for outcome in pattern:
                if p.predict(pc).outcome == outcome:
                    correct += 1
                p.update(pc, outcome)
        assert correct >= 18

    def test_pattern_index_folds_only_a_wider_history(self):
        narrow = LocalPredictor(n_entries=16, history_bits=8,
                                pattern_entries=16)
        wide = LocalPredictor(n_entries=16, history_bits=8,
                              pattern_entries=1024)
        for history in range(256):
            assert narrow._pattern_index(history) == bits.fold(history, 4)
            assert wide._pattern_index(history) == history

    def test_storage_accounts_history_and_pattern(self):
        p = LocalPredictor(n_entries=128, history_bits=8, counter_bits=2)
        assert p.storage_bits == 128 * 8 + 256 * 2


class TestGShare:
    def test_global_history_disambiguates(self):
        """One PC, two outcomes selected by the preceding outcome stream."""
        p = GSharePredictor(history_bits=4)
        pc = 0x6000
        # Outcome of `pc` equals the outcome observed two events earlier.
        stream = [True, False] * 100
        prev = [True, True]
        for outcome in stream:
            p.update(pc, outcome)
        # After warmup, accuracy on the alternating stream should be high.
        correct = 0
        expected = True
        for _ in range(20):
            if p.predict(pc).outcome == expected:
                correct += 1
            p.update(pc, expected)
            expected = not expected
        assert correct >= 18


class TestGSkew:
    def test_three_banks(self):
        assert GSkewPredictor().N_BANKS == 3

    def test_majority_confidence_levels(self):
        p = GSkewPredictor(history_bits=6, bank_entries=64)
        pred = p.predict(0x7000)
        assert pred.confidence in (0.5, 1.0)

    def test_partial_update_preserves_dissent(self):
        """On a correct prediction the dissenting bank is not trained."""
        p = GSkewPredictor(history_bits=4, bank_entries=64)
        pc = 0x7000
        for _ in range(12):
            p.update(pc, True)
        # All banks for this (pc, history) should now agree on True;
        # prediction is confident.
        assert p.predict(pc).outcome


class TestAlwaysPredictor:
    def test_constant(self):
        t = AlwaysPredictor(True)
        f = AlwaysPredictor(False)
        assert t.predict(0x1).outcome and not f.predict(0x1).outcome

    def test_update_noop(self):
        p = AlwaysPredictor(True)
        p.update(0x1, False)
        assert p.predict(0x1).outcome

    def test_zero_storage(self):
        assert AlwaysPredictor(True).storage_bits == 0

"""Resetting-counter confidence estimation (Jacobsen/Rotenberg/Smith).

Section 2.3 leans on confidence repeatedly — low-confidence bank
predictions are duplicated to all pipes, weighted choosers scale votes
by confidence — but the counter-distance confidence built into the
table predictors is coarse (a 2-bit counter is "fully confident" the
moment it saturates).  The classic JRS estimator measures confidence
*empirically*: a PC-indexed table of resetting counters that increment
on a correct prediction and clear on a wrong one, so confidence means
"this predictor has been right N times in a row here".

:class:`ConfidenceEstimator` is predictor-agnostic;
:class:`ConfidentPredictor` bundles it with any
:class:`~repro.predictors.base.BinaryPredictor`, replacing the
predictor's structural confidence with the measured one.
"""

from __future__ import annotations

from typing import List

from repro.common import bits
from repro.predictors.base import BinaryPredictor, Prediction


class ConfidenceEstimator(bits.FixedWidths):
    """PC-indexed resetting counters over prediction correctness."""

    _WIDTHS = {"_index_bits": "n_entries"}

    def __init__(self, n_entries: int = 1024, counter_bits: int = 4,
                 threshold: int = 8) -> None:
        if counter_bits < 1:
            raise ValueError("counter_bits must be positive")
        self.n_entries = n_entries
        self._derive()
        self.counter_bits = counter_bits
        self._max = (1 << counter_bits) - 1
        if not 0 < threshold <= self._max:
            raise ValueError("threshold must be in (0, counter max]")
        self.threshold = threshold
        self._table: List[int] = [0] * n_entries

    def _index(self, pc: int) -> int:
        return bits.pc_index(pc, self._index_bits)

    def confidence(self, pc: int) -> float:
        """Measured confidence in [0, 1]: streak / counter maximum."""
        return self._table[self._index(pc)] / self._max

    def is_confident(self, pc: int) -> bool:
        """Has the streak reached the high-confidence threshold?"""
        return self._table[self._index(pc)] >= self.threshold

    def record(self, pc: int, correct: bool) -> None:
        """Saturating increment on correct, reset to zero on wrong."""
        index = self._index(pc)
        if correct:
            if self._table[index] < self._max:
                self._table[index] += 1
        else:
            self._table[index] = 0

    def reset(self) -> None:
        self._table = [0] * self.n_entries

    @property
    def storage_bits(self) -> int:
        return self.n_entries * self.counter_bits


class ConfidentPredictor(BinaryPredictor):
    """Any binary predictor with JRS-measured confidence attached.

    ``predict`` returns the inner outcome with the *measured*
    confidence; ``update`` scores the inner prediction before training
    it, so the estimator tracks the predictor's actual streaks.
    """

    def __init__(self, inner: BinaryPredictor,
                 estimator: ConfidenceEstimator | None = None) -> None:
        self.inner = inner
        self.estimator = (estimator if estimator is not None
                          else ConfidenceEstimator())

    def predict(self, pc: int) -> Prediction:
        p = self.inner.predict(pc)
        return Prediction(outcome=p.outcome,
                          confidence=self.estimator.confidence(pc),
                          valid=p.valid)

    def predict_outcome(self, pc: int) -> bool:
        return self.inner.predict_outcome(pc)

    def update(self, pc: int, outcome: bool) -> None:
        predicted = self.inner.predict_outcome(pc)
        self.estimator.record(pc, bool(predicted) == outcome)
        self.inner.update(pc, outcome)

    def reset(self) -> None:
        self.inner.reset()
        self.estimator.reset()

    @property
    def storage_bits(self) -> int:
        return self.inner.storage_bits + self.estimator.storage_bits

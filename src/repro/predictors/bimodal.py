"""Bimodal predictor: a PC-indexed table of saturating counters."""

from __future__ import annotations

from repro.common import bits
from repro.predictors.base import BinaryPredictor, Prediction
from repro.predictors.counters import CounterTable


class BimodalPredictor(BinaryPredictor, bits.FixedWidths):
    """The classic tagless, direct-mapped counter table.

    Used standalone (predictor component "bimodal" of section 2.3's
    predictor B) and as the second level of the two-level predictors.
    """

    _WIDTHS = {"_index_bits": "n_entries"}

    def __init__(self, n_entries: int = 2048, counter_bits: int = 2) -> None:
        self.n_entries = n_entries
        self.counter_bits = counter_bits
        self._derive()
        self._table = CounterTable(n_entries, counter_bits)

    def predict(self, pc: int) -> Prediction:
        table, i = self._table, bits.pc_index(pc, self._index_bits)
        return Prediction(table.prediction(i), table.confidence(i))

    def predict_outcome(self, pc: int) -> bool:
        return self._table.prediction(bits.pc_index(pc, self._index_bits))

    def update(self, pc: int, outcome: bool) -> None:
        self._table.train(bits.pc_index(pc, self._index_bits), outcome)

    def reset(self) -> None:
        self._table.reset()

    @property
    def storage_bits(self) -> int:
        return self.n_entries * self.counter_bits

    def __repr__(self) -> str:
        return f"BimodalPredictor(entries={self.n_entries}, bits={self.counter_bits})"

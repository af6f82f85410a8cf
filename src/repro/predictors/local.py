"""Two-level local predictor (Yeh & Patt style).

The paper's baseline hit-miss predictor is "an adaptation of the
well-known local predictor": a tagless table of per-PC history registers
recording the hit/miss history of each load, indexing a second-level
pattern table of saturating counters (section 2.2, 2048 entries, 8-bit
history, ~2 KB).
"""

from __future__ import annotations

from typing import List

from repro.common import bits
from repro.predictors.base import BinaryPredictor, Prediction
from repro.predictors.counters import CounterTable


class LocalPredictor(BinaryPredictor, bits.FixedWidths):
    """Per-PC history registers feeding a shared pattern table.

    A history register narrower than the pattern index is its own
    pattern index; a wider one (``pattern_entries`` below
    ``2 ** history_bits``) is XOR-folded onto it.
    """

    _WIDTHS = {"_index_bits": "n_entries", "_pattern_fold": "pattern_entries"}

    def __init__(self, n_entries: int = 2048, history_bits: int = 8,
                 counter_bits: int = 2,
                 pattern_entries: int | None = None) -> None:
        self.n_entries = n_entries
        self.history_bits = history_bits
        self.counter_bits = counter_bits
        self.pattern_entries = (pattern_entries if pattern_entries is not None
                                else 1 << history_bits)
        self._derive()
        self._histories: List[int] = [0] * n_entries
        self._pattern = CounterTable(self.pattern_entries, counter_bits)

    def _derive(self) -> None:
        super()._derive()
        if self._pattern_fold >= self.history_bits:
            self._pattern_fold = 0  # the history is its own pattern index

    def _pattern_index(self, history: int) -> int:
        if self._pattern_fold:
            return bits.fold(history, self._pattern_fold)
        return history

    def predict(self, pc: int) -> Prediction:
        history = self._histories[bits.pc_index(pc, self._index_bits)]
        table, i = self._pattern, self._pattern_index(history)
        return Prediction(table.prediction(i), table.confidence(i))

    def predict_outcome(self, pc: int) -> bool:
        history = self._histories[bits.pc_index(pc, self._index_bits)]
        return self._pattern.prediction(self._pattern_index(history))

    def update(self, pc: int, outcome: bool) -> None:
        idx = bits.pc_index(pc, self._index_bits)
        history = self._histories[idx]
        self._pattern.train(self._pattern_index(history), outcome)
        self._histories[idx] = bits.shift_history(history, outcome,
                                                  self.history_bits)

    def reset(self) -> None:
        self._histories = [0] * self.n_entries
        self._pattern.reset()

    @property
    def storage_bits(self) -> int:
        return (self.n_entries * self.history_bits
                + self.pattern_entries * self.counter_bits)

    def __repr__(self) -> str:
        return (f"LocalPredictor(entries={self.n_entries}, "
                f"history={self.history_bits})")

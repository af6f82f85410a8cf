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


class LocalPredictor(BinaryPredictor):
    """Per-PC history registers feeding a shared pattern table."""

    def __init__(self, n_entries: int = 2048, history_bits: int = 8,
                 counter_bits: int = 2,
                 pattern_entries: int | None = None) -> None:
        bits.ilog2(n_entries)
        self.n_entries = n_entries
        self.history_bits = history_bits
        self.counter_bits = counter_bits
        self.pattern_entries = (pattern_entries if pattern_entries is not None
                                else 1 << history_bits)
        bits.ilog2(self.pattern_entries)
        self._histories: List[int] = [0] * n_entries
        self._pattern = CounterTable(self.pattern_entries, counter_bits)

    def _hist_index(self, pc: int) -> int:
        return bits.pc_index(pc, self.n_entries)

    def _pattern_index(self, history: int) -> int:
        return bits.fold(history, bits.ilog2(self.pattern_entries))

    def predict(self, pc: int) -> Prediction:
        history = self._histories[self._hist_index(pc)]
        table, i = self._pattern, self._pattern_index(history)
        return Prediction(outcome=table.prediction(i),
                          confidence=table.confidence(i))

    def update(self, pc: int, outcome: bool) -> None:
        idx = self._hist_index(pc)
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

"""Gshare predictor (McFarling).

Used as a component of the hybrid hit-miss predictor (history length 11,
section 2.2) and of bank predictors A, B and C (section 4.3).  The global
history records the stream of outcomes of *all* predicted loads, which is
what the paper means by "history length of 11 loads".
"""

from __future__ import annotations

from repro.common import bits
from repro.predictors.base import BinaryPredictor, Prediction
from repro.predictors.counters import CounterTable


class GSharePredictor(BinaryPredictor, bits.FixedWidths):
    """PC xor global-history indexed counter table."""

    _WIDTHS = {"_index_bits": "n_entries"}

    def __init__(self, history_bits: int = 11, n_entries: int | None = None,
                 counter_bits: int = 2) -> None:
        self.history_bits = history_bits
        self.n_entries = (1 << history_bits) if n_entries is None else n_entries
        self._derive()
        self.counter_bits = counter_bits
        self._history = 0
        self._table = CounterTable(self.n_entries, counter_bits)

    def _index(self, pc: int) -> int:
        return bits.gshare_index(pc, self._history, self._index_bits)

    def predict(self, pc: int) -> Prediction:
        table, i = self._table, self._index(pc)
        return Prediction(table.prediction(i), table.confidence(i))

    def predict_outcome(self, pc: int) -> bool:
        return self._table.prediction(self._index(pc))

    def update(self, pc: int, outcome: bool) -> None:
        self._table.train(self._index(pc), outcome)
        self._history = bits.shift_history(self._history, outcome,
                                           self.history_bits)

    def reset(self) -> None:
        self._history = 0
        self._table.reset()

    @property
    def storage_bits(self) -> int:
        return self.n_entries * self.counter_bits + self.history_bits

    def __repr__(self) -> str:
        return (f"GSharePredictor(history={self.history_bits}, "
                f"entries={self.n_entries})")

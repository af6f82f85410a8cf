"""Enhanced gskew predictor (Michaud, Seznec & Uhlig).

Three counter banks indexed by three different skewing functions of the
(pc, global history) pair; the prediction is the majority of the banks.
The skewing property ensures two addresses that alias in one bank rarely
alias in the others, trading conflict aliasing for capacity.

The paper's hybrid hit-miss predictor uses a gskew whose "hash functions
operate on a history of 20 loads" with three 1K-entry tables; bank
predictors A and C use a 17-bit-history gskew with 1K-entry tables.
"""

from __future__ import annotations

from typing import List

from repro.common import bits
from repro.predictors.base import BinaryPredictor, Prediction
from repro.predictors.counters import CounterTable


class GSkewPredictor(BinaryPredictor, bits.FixedWidths):
    """Three skewed counter banks with majority vote and partial update."""

    N_BANKS = 3
    _WIDTHS = {"_index_bits": "bank_entries"}

    def __init__(self, history_bits: int = 20, bank_entries: int = 1024,
                 counter_bits: int = 2) -> None:
        self.history_bits = history_bits
        self.bank_entries = bank_entries
        self._derive()
        self.counter_bits = counter_bits
        self._history = 0
        self._banks: List[CounterTable] = [
            CounterTable(bank_entries, counter_bits)
            for _ in range(self.N_BANKS)
        ]

    def _ayes(self, pc: int) -> int:
        """How many banks vote true for ``pc``."""
        return sum(map(CounterTable.prediction, self._banks,
                       bits.skew_indices(pc, self._history,
                                         self._index_bits)))

    def predict(self, pc: int) -> Prediction:
        ayes = self._ayes(pc)
        # Confidence rises with agreement: unanimous = 1.0, 2-1 split = 0.5.
        return Prediction(ayes >= 2, 1.0 if ayes in (0, self.N_BANKS)
                          else 0.5)

    def predict_outcome(self, pc: int) -> bool:
        return self._ayes(pc) >= 2

    def update(self, pc: int, outcome: bool) -> None:
        # Partial update (the e-gskew policy): on a correct prediction only
        # the agreeing banks are reinforced; on a misprediction all banks
        # are retrained toward the actual outcome.
        indices = bits.skew_indices(pc, self._history, self._index_bits)
        votes = list(map(CounterTable.prediction, self._banks, indices))
        predicted = sum(votes) >= 2
        for bank, i, vote in zip(self._banks, indices, votes):
            if predicted == outcome and vote != outcome:
                continue  # leave the dissenting bank alone
            bank.train(i, outcome)
        self._history = bits.shift_history(self._history, outcome,
                                           self.history_bits)

    def reset(self) -> None:
        self._history = 0
        for bank in self._banks:
            bank.reset()

    @property
    def storage_bits(self) -> int:
        return (self.N_BANKS * self.bank_entries * self.counter_bits
                + self.history_bits)

    def __repr__(self) -> str:
        return (f"GSkewPredictor(history={self.history_bits}, "
                f"bank_entries={self.bank_entries})")

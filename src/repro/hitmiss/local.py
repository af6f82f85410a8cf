"""Local hit-miss predictor.

Section 2.2: "Instead of recording the taken/not-taken history of each
branch, we record the hit/miss history of each load ... a tagless table
of 2048 entries and a history length of 8 (~2KBytes in size)."
"""

from __future__ import annotations

from typing import Optional

from repro.hitmiss.base import HitMissPredictor
from repro.predictors.local import LocalPredictor


class LocalHMP(HitMissPredictor):
    """Two-level local predictor over per-load miss histories.

    The underlying binary predictor predicts the *miss* event; it is
    initialised cold, which means an unseen load predicts hit — exactly
    the "assume all loads hit" default of current processors.
    """

    def __init__(self, n_entries: int = 2048, history_bits: int = 8,
                 counter_bits: int = 2) -> None:
        self._miss_predictor = LocalPredictor(
            n_entries=n_entries, history_bits=history_bits,
            counter_bits=counter_bits)

    def predict_hit(self, pc: int, line: Optional[int] = None,
                    now: int = 0) -> bool:
        return not self._miss_predictor.predict_outcome(pc)

    def miss_confidence(self, pc: int) -> float:
        """Confidence of the underlying miss prediction (for choosers)."""
        return self._miss_predictor.predict(pc).confidence

    def update(self, pc: int, hit: bool, line: Optional[int] = None,
               now: int = 0) -> None:
        self._miss_predictor.update(pc, not hit)

    def reset(self) -> None:
        self._miss_predictor.reset()

    @property
    def storage_bits(self) -> int:
        return self._miss_predictor.storage_bits

    def __repr__(self) -> str:
        return f"LocalHMP({self._miss_predictor!r})"

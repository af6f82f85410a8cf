"""Hit-miss adapter over any binary predictor of the *miss* event.

:class:`LocalHMP` hard-wires a two-level local predictor; this adapter
generalises the same inversion trick ("predict the rare event, answer
the common question") to every :class:`~repro.predictors.base.
BinaryPredictor` — which is how the unified construction API exposes
single-component gshare and gskew hit-miss predictors alongside the
paper's local and hybrid organisations.
"""

from __future__ import annotations

from typing import Optional

from repro.hitmiss.base import HitMissPredictor
from repro.predictors.base import BinaryPredictor


class BinaryHMP(HitMissPredictor):
    """``predict_hit`` = NOT ``component.predict`` of the miss event.

    The component is initialised cold, so an unseen load predicts hit —
    the "assume all loads hit" default of current processors.
    """

    def __init__(self, component: BinaryPredictor) -> None:
        self._miss_predictor = component

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
        return f"BinaryHMP({self._miss_predictor!r})"

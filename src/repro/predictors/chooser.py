"""Predictor combination policies of sections 2.2 and 2.3.

The hybrid hit-miss predictor takes a "simple majority vote" between a
local predictor, a gshare and a gskew.  For bank prediction the paper
evaluates four policies: plain majority, weighted sum with a threshold,
high-confidence-only filtering, and confidence-weighted voting.  All
four are implemented here over the common predictor protocol.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.predictors.base import BinaryPredictor, Prediction, NO_PREDICTION


class MajorityChooser(BinaryPredictor):
    """Simple majority vote between an odd number of components.

    The prediction's confidence reflects the vote margin, so downstream
    policies (e.g. duplicate-to-all-banks on low confidence) can react.
    """

    def __init__(self, components: Sequence[BinaryPredictor]) -> None:
        if len(components) % 2 == 0:
            raise ValueError("majority vote needs an odd component count")
        self.components: List[BinaryPredictor] = list(components)

    def _ayes(self, pc: int) -> int:
        return sum([c.predict_outcome(pc) for c in self.components])

    def predict(self, pc: int) -> Prediction:
        ayes = self._ayes(pc)
        n = len(self.components)
        margin = abs(2 * ayes - n) / n  # 1.0 unanimous, ~0 split
        return Prediction(ayes * 2 > n, margin)

    def predict_outcome(self, pc: int) -> bool:
        return self._ayes(pc) * 2 > len(self.components)

    def update(self, pc: int, outcome: bool) -> None:
        for c in self.components:
            c.update(pc, outcome)

    def reset(self) -> None:
        for c in self.components:
            c.reset()

    @property
    def storage_bits(self) -> int:
        return sum(c.storage_bits for c in self.components)


class WeightedChooser(BinaryPredictor):
    """Weighted vote with an abstain threshold.

    Each component casts ``+weight`` for a positive and ``-weight`` for a
    negative prediction (optionally scaled by its own confidence).  A
    prediction is produced only when ``|sum| >= threshold``; otherwise the
    chooser abstains (``valid=False``), which section 2.3 maps onto
    "duplicate the load to all banks".
    """

    def __init__(self, components: Sequence[BinaryPredictor],
                 weights: Sequence[float] | None = None,
                 threshold: float = 0.0,
                 confidence_scaled: bool = False) -> None:
        self.components = list(components)
        if weights is None:
            weights = [1.0] * len(self.components)
        if len(weights) != len(self.components):
            raise ValueError("one weight per component required")
        self.weights = list(weights)
        self.threshold = threshold
        self.confidence_scaled = confidence_scaled

    def predict(self, pc: int) -> Prediction:
        total = 0.0
        scale = 0.0
        for component, weight in zip(self.components, self.weights):
            p = component.predict(pc)
            w = weight * (p.confidence if self.confidence_scaled else 1.0)
            total += w if p.outcome else -w
            scale += abs(weight)
        if abs(total) < self.threshold or scale == 0.0:
            return NO_PREDICTION
        return Prediction(outcome=total > 0, confidence=abs(total) / scale)

    def update(self, pc: int, outcome: bool) -> None:
        for c in self.components:
            c.update(pc, outcome)

    def reset(self) -> None:
        for c in self.components:
            c.reset()

    @property
    def storage_bits(self) -> int:
        return sum(c.storage_bits for c in self.components)


class ConfidenceFilter(BinaryPredictor):
    """Pass through a component's prediction only above a confidence floor.

    Implements the "only those predictions with a high confidence were
    taken into account" policy; low-confidence queries abstain.
    """

    def __init__(self, component: BinaryPredictor,
                 min_confidence: float = 0.5) -> None:
        self.component = component
        self.min_confidence = min_confidence

    def predict(self, pc: int) -> Prediction:
        p = self.component.predict(pc)
        if not p.valid or p.confidence < self.min_confidence:
            return NO_PREDICTION
        return p

    def update(self, pc: int, outcome: bool) -> None:
        self.component.update(pc, outcome)

    def reset(self) -> None:
        self.component.reset()

    @property
    def storage_bits(self) -> int:
        return self.component.storage_bits


def vote_breakdown(components: Sequence[BinaryPredictor],
                   pc: int) -> Tuple[int, int]:
    """(ayes, nays) across components — a debugging/report helper."""
    ayes = nays = 0
    for c in components:
        if c.predict(pc).outcome:
            ayes += 1
        else:
            nays += 1
    return ayes, nays

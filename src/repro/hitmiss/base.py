"""Hit-miss predictor protocol and the AH/AM × PH/PM accounting.

Internally every HMP predicts the *miss* event (the rare, interesting
one); the public API speaks in terms of "predict hit?" to match the
scheduler's question.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.types import HitMissClass


class HitMissPredictor(abc.ABC):
    """Per-load binary L1 hit/miss prediction.

    ``line`` and ``now`` are optional context used by timing-aware
    predictors; table-only predictors ignore them.
    """

    #: Optional :class:`repro.obs.events.EventBus`; when attached,
    #: :meth:`observed_update` reports every training step.
    obs = None

    @abc.abstractmethod
    def predict_hit(self, pc: int, line: Optional[int] = None,
                    now: int = 0) -> bool:
        """True = the load is predicted to hit the L1 data cache."""

    @abc.abstractmethod
    def update(self, pc: int, hit: bool, line: Optional[int] = None,
               now: int = 0) -> None:
        """Train with the resolved outcome."""

    def observed_update(self, pc: int, hit: bool,
                        line: Optional[int] = None, now: int = 0) -> None:
        """:meth:`update`, plus a ``predictor-update`` event when an
        event bus is attached (the engine's hook point)."""
        self.update(pc, hit, line, now)
        if self.obs is not None:
            self.obs.emit("predictor-update", now, pc=pc,
                          family="hitmiss",
                          predictor=type(self).__name__, outcome=hit)

    def reset(self) -> None:
        raise NotImplementedError

    @property
    def storage_bits(self) -> int:
        raise NotImplementedError


@dataclass
class HitMissStats:
    """Counts of the four outcome classes of section 2.2.

    ``record`` classifies one (actual, predicted) pair; the properties
    expose the ratios Figure 10 reports (all as fractions of all loads).
    """

    counts: Dict[HitMissClass, int] = field(
        default_factory=lambda: {c: 0 for c in HitMissClass})

    def record(self, actual_hit: bool, predicted_hit: bool,
               count: int = 1) -> HitMissClass:
        """Count ``count`` loads of the class (actual, predicted) names."""
        cls = HitMissClass.classify(actual_hit, predicted_hit)
        self.counts[cls] += count
        return cls

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, cls: HitMissClass) -> float:
        total = self.total
        return self.counts[cls] / total if total else 0.0

    @property
    def miss_rate(self) -> float:
        """Actual L1 miss rate — the 'MISSES' bar of Figure 10."""
        total = self.total
        if not total:
            return 0.0
        misses = (self.counts[HitMissClass.AM_PM]
                  + self.counts[HitMissClass.AM_PH])
        return misses / total

    @property
    def am_pm_fraction(self) -> float:
        """Misses caught by the predictor (higher is better)."""
        return self.fraction(HitMissClass.AM_PM)

    @property
    def ah_pm_fraction(self) -> float:
        """Hits mispredicted as misses (lower is better)."""
        return self.fraction(HitMissClass.AH_PM)

    @property
    def miss_coverage(self) -> float:
        """Fraction of actual misses that were predicted (AM-PM / AM)."""
        misses = (self.counts[HitMissClass.AM_PM]
                  + self.counts[HitMissClass.AM_PH])
        return self.counts[HitMissClass.AM_PM] / misses if misses else 0.0

    @property
    def catch_to_false_ratio(self) -> float:
        """AM-PM : AH-PM — the paper reports at least 5:1 on all traces."""
        false_misses = self.counts[HitMissClass.AH_PM]
        if not false_misses:
            return float("inf")
        return self.counts[HitMissClass.AM_PM] / false_misses

    @property
    def accuracy(self) -> float:
        total = self.total
        if not total:
            return 0.0
        correct = (self.counts[HitMissClass.AH_PH]
                   + self.counts[HitMissClass.AM_PM])
        return correct / total

    def merge(self, other: "HitMissStats") -> None:
        for cls, count in other.counts.items():
            self.counts[cls] += count

    def as_dict(self) -> Dict[str, float]:
        return {
            "misses": self.miss_rate,
            "am_pm": self.am_pm_fraction,
            "ah_pm": self.ah_pm_fraction,
            "coverage": self.miss_coverage,
            "accuracy": self.accuracy,
        }

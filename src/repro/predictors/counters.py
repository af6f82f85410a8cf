"""Per-entry state machines: saturating counters and sticky bits.

Section 2.1 notes that a 1-bit saturating counter or a sticky bit is
"enough" for collision prediction; larger counters (the classic 2-bit
bimodal cell) add hysteresis.  These small classes are the table cells
of every predictor in the package.
"""

from __future__ import annotations


class SaturatingCounter:
    """An n-bit up/down saturating counter with a configurable threshold.

    The counter predicts *true* when its value is at or above the
    threshold (default: the midpoint, the usual weakly-taken boundary).
    """

    __slots__ = ("bits", "value", "_max", "_threshold")

    def __init__(self, bits: int = 2, initial: int = 0,
                 threshold: int | None = None) -> None:
        if bits < 1:
            raise ValueError("counter needs at least one bit")
        self.bits = bits
        self._max = (1 << bits) - 1
        if not 0 <= initial <= self._max:
            raise ValueError("initial value out of range")
        self.value = initial
        self._threshold = (self._max + 1) // 2 if threshold is None else threshold
        if not 0 < self._threshold <= self._max:
            raise ValueError("threshold out of range")

    @property
    def prediction(self) -> bool:
        return self.value >= self._threshold

    @property
    def confidence(self) -> float:
        """Distance from the decision boundary, normalised to [0, 1]."""
        if self.prediction:
            span = self._max - self._threshold
            return 1.0 if span == 0 else (self.value - self._threshold) / span
        span = self._threshold - 1
        return 1.0 if span == 0 else (self._threshold - 1 - self.value) / span

    @property
    def is_saturated(self) -> bool:
        return self.value in (0, self._max)

    def train(self, outcome: bool) -> None:
        if outcome:
            if self.value < self._max:
                self.value += 1
        elif self.value > 0:
            self.value -= 1

    def reset(self, value: int = 0) -> None:
        if not 0 <= value <= self._max:
            raise ValueError("reset value out of range")
        self.value = value

    def __reduce__(self):
        # Compact pickles: a snapshot holds one of these per table
        # entry, and the default slotted-object state (a dict of all
        # four slots per cell) is larger and slower to encode than the
        # three constructor arguments.
        return (type(self), (self.bits, self.value, self._threshold))

    def __repr__(self) -> str:
        return f"SaturatingCounter(bits={self.bits}, value={self.value})"


class StickyBit:
    """A set-once bit: after its first ``True`` outcome it stays set.

    This is the paper's safest collision predictor — "after its first
    collision, the load is always predicted as colliding".  It can only
    be cleared wholesale (cyclic clearing, section 2.1 / [Chry98]).
    """

    __slots__ = ("value",)

    def __init__(self, value: bool = False) -> None:
        self.value = value

    @property
    def prediction(self) -> bool:
        return self.value

    @property
    def confidence(self) -> float:
        return 1.0 if self.value else 0.0

    def train(self, outcome: bool) -> None:
        if outcome:
            self.value = True

    def reset(self) -> None:
        self.value = False

    def __reduce__(self):
        return (type(self), (self.value,))

    def __repr__(self) -> str:
        return f"StickyBit({self.value})"

"""Counter state: flat counter tables, lone saturating counters, sticky bits.

Section 2.1 notes that a 1-bit saturating counter or a sticky bit is
"enough" for collision prediction; larger counters (the classic 2-bit
bimodal cell) add hysteresis.

Every indexed predictor table in the package — bimodal, gshare, the
local pattern table, the gskew banks, the tagless CHT and the store
barrier cache — is one :class:`CounterTable`: a ``bytearray`` of cell
values plus the geometry every cell shares.  The scalar predictors read
and train cells through its methods; the replay kernels in
:mod:`repro.fastpath` walk its ``cells`` in place.  A table pickles as
its parameters plus the raw bytes, so a snapshot of a 128-cell table
holds about 128 bytes of state.

:class:`SaturatingCounter` remains for a counter that is the single
cell of a keyed entry (the full, tagged and annotated CHT entries, the
address predictor's confidence); :class:`StickyBit` is the paper's
set-once collision bit.
"""

from __future__ import annotations


class CounterTable:
    """A table of n-bit up/down saturating counters in one ``bytearray``.

    Cell ``i`` behaves exactly like a :class:`SaturatingCounter` with
    the table's ``bits`` and ``threshold``: it predicts *true* at or
    above the threshold and trains by one step toward the outcome,
    saturating at 0 and ``max``.
    """

    __slots__ = ("cells", "bits", "max", "threshold")

    def __init__(self, size: int, bits: int = 2, initial: int = 0,
                 threshold: int | None = None) -> None:
        if not 1 <= bits <= 8:
            raise ValueError("a table cell holds 1 to 8 bits")
        self.bits = bits
        self.max = (1 << bits) - 1
        if not 0 <= initial <= self.max:
            raise ValueError("initial value out of range")
        self.threshold = (self.max + 1) // 2 if threshold is None else threshold
        if not 0 < self.threshold <= self.max:
            raise ValueError("threshold out of range")
        self.cells = bytearray([initial]) * size

    def prediction(self, i: int) -> bool:
        return self.cells[i] >= self.threshold

    def confidence(self, i: int) -> float:
        """Cell ``i``'s distance from the decision boundary, in [0, 1]
        (:attr:`SaturatingCounter.confidence`)."""
        value = self.cells[i]
        threshold = self.threshold
        if value >= threshold:
            span = self.max - threshold
            return 1.0 if span == 0 else (value - threshold) / span
        span = threshold - 1
        return 1.0 if span == 0 else (threshold - 1 - value) / span

    def train(self, i: int, outcome: bool) -> None:
        cells = self.cells
        value = cells[i]
        if outcome:
            if value < self.max:
                cells[i] = value + 1
        elif value:
            cells[i] = value - 1

    def reset(self) -> None:
        """Every cell back to 0 (the power-on state)."""
        self.cells[:] = bytes(len(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __reduce__(self):
        return (_restore, (self.bits, self.threshold, bytes(self.cells)))

    def __repr__(self) -> str:
        return f"CounterTable(size={len(self.cells)}, bits={self.bits})"


def _restore(bits: int, threshold: int, cells: bytes) -> CounterTable:
    """Unpickle a :class:`CounterTable` (short name: snapshots hold one
    reference per table)."""
    table = CounterTable(0, bits, threshold=threshold)
    table.cells = bytearray(cells)
    return table


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
        # Compact pickles: a snapshot holds one of these per keyed CHT
        # entry, and the default slotted-object state (a dict of all
        # four slots) is larger and slower to encode than the three
        # constructor arguments.
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

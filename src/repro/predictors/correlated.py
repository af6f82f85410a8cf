"""Correlated load-address predictor (Bekerman et al., ISCA 1999).

The paper's strongest bank predictor is "the address predictor results
as appear in [Beke99]" — a *correlated* predictor: beyond per-load
strides, it keys the next delta on the recent *delta history*, so it
captures alternating and repeating non-constant patterns (A,B,A,B or
A,A,B) that defeat a plain stride table.

Structure here (a faithful simplification of the two-level scheme):

* **L1 (per-load) table** — last address plus a register of the last
  ``history_length`` deltas.
* **L2 (pattern) table** — indexed by a hash of (pc, delta history),
  holds the predicted next delta with a confidence counter.
* A plain stride entry serves as fallback while the pattern table is
  cold, so the predictor strictly dominates :class:`StrideAddressPredictor`
  on stride streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common import bits
from repro.predictors.counters import SaturatingCounter


@dataclass
class _L1Entry:
    tag: int
    last_address: int
    deltas: Tuple[int, ...] = ()
    # Fallback stride state.
    stride: int = 0
    stride_confidence: SaturatingCounter = field(
        default_factory=lambda: SaturatingCounter(2))


@dataclass
class _PatternEntry:
    delta: int
    confidence: SaturatingCounter = field(
        default_factory=lambda: SaturatingCounter(2))


class CorrelatedAddressPredictor(bits.FixedWidths):
    """Two-level delta-correlated address prediction."""

    _WIDTHS = {"_l1_bits": "l1_entries", "_pattern_bits": "pattern_entries"}

    def __init__(self, l1_entries: int = 1024, pattern_entries: int = 4096,
                 history_length: int = 2, predict_threshold: int = 2,
                 tag_bits: int = 16) -> None:
        if history_length < 1:
            raise ValueError("history_length must be positive")
        self.l1_entries = l1_entries
        self.pattern_entries = pattern_entries
        self._derive()
        self.history_length = history_length
        self.predict_threshold = predict_threshold
        self.tag_bits = tag_bits
        self._l1: Dict[int, _L1Entry] = {}
        self._patterns: Dict[int, _PatternEntry] = {}

    # -- indexing ---------------------------------------------------------

    def _l1_slot(self, pc: int) -> Tuple[int, int]:
        return (bits.pc_index(pc, self._l1_bits),
                bits.fold(pc >> 2, self.tag_bits))

    def _pattern_index(self, pc: int, deltas: Tuple[int, ...]) -> int:
        mixed = bits.fold(pc >> 2, 20)
        for d in deltas:
            mixed = (mixed * 31 + (d & 0xFFFFF)) & 0xFFFFFFFF
        return bits.fold(mixed, self._pattern_bits)

    def _entry(self, pc: int) -> Optional[_L1Entry]:
        index, tag = self._l1_slot(pc)
        entry = self._l1.get(index)
        if entry is None or entry.tag != tag:
            return None
        return entry

    # -- prediction ---------------------------------------------------------

    def predict(self, pc: int) -> Optional[int]:
        """Predicted next effective address, or ``None``."""
        entry = self._entry(pc)
        if entry is None:
            return None
        # Pattern path: does the current delta context have a confident
        # next-delta entry?
        if len(entry.deltas) == self.history_length:
            pattern = self._patterns.get(
                self._pattern_index(pc, entry.deltas))
            if (pattern is not None
                    and pattern.confidence.value >= self.predict_threshold):
                return entry.last_address + pattern.delta
        # Stride fallback.
        if entry.stride_confidence.value >= self.predict_threshold:
            return entry.last_address + entry.stride
        return None

    def confidence(self, pc: int) -> float:
        entry = self._entry(pc)
        if entry is None:
            return 0.0
        if len(entry.deltas) == self.history_length:
            pattern = self._patterns.get(
                self._pattern_index(pc, entry.deltas))
            if (pattern is not None
                    and pattern.confidence.value >= self.predict_threshold):
                return pattern.confidence.confidence
        if entry.stride_confidence.value >= self.predict_threshold:
            return entry.stride_confidence.confidence
        return 0.0

    # -- training ---------------------------------------------------------

    def update(self, pc: int, address: int) -> None:
        index, tag = self._l1_slot(pc)
        entry = self._l1.get(index)
        if entry is None or entry.tag != tag:
            self._l1[index] = _L1Entry(tag=tag, last_address=address)
            return
        delta = address - entry.last_address

        # Train the pattern table on the context that preceded this delta.
        if len(entry.deltas) == self.history_length:
            slot = self._pattern_index(pc, entry.deltas)
            pattern = self._patterns.get(slot)
            if pattern is None:
                self._patterns[slot] = _PatternEntry(delta=delta)
            elif pattern.delta == delta:
                pattern.confidence.train(True)
            else:
                pattern.confidence.train(False)
                if pattern.confidence.value == 0:
                    pattern.delta = delta

        # Train the stride fallback.
        if delta == entry.stride:
            entry.stride_confidence.train(True)
        else:
            entry.stride_confidence.train(False)
            if entry.stride_confidence.value == 0:
                entry.stride = delta

        # Advance the context.
        entry.deltas = (entry.deltas + (delta,))[-self.history_length:]
        entry.last_address = address

    def reset(self) -> None:
        self._l1.clear()
        self._patterns.clear()

    @property
    def storage_bits(self) -> int:
        l1_bits = self.l1_entries * (self.tag_bits + 32
                                     + self.history_length * 16 + 16 + 2)
        l2_bits = self.pattern_entries * (16 + 2)
        return l1_bits + l2_bits

    def __repr__(self) -> str:
        return (f"CorrelatedAddressPredictor(l1={self.l1_entries}, "
                f"patterns={self.pattern_entries}, "
                f"history={self.history_length})")

"""Stride/last-address load-address predictor.

Stands in for the correlated load-address predictor of [Beke99] that the
paper uses as its strongest bank predictor ("Addr" in Figure 12) — the
bank is just one bit of the predicted effective address.  The predictor
keeps a per-PC last address, a stride, and a 2-bit stride-stability
counter; it predicts only when the stride has been confirmed, which gives
it the high-accuracy / moderate-rate profile the paper reports (~70 %
prediction rate at ~98 % accuracy on integer codes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common import bits
from repro.predictors.counters import SaturatingCounter


@dataclass
class _AddressEntry:
    tag: int
    last_address: int
    stride: int
    confidence: SaturatingCounter

    def predicted_address(self) -> int:
        return self.last_address + self.stride


class StrideAddressPredictor(bits.FixedWidths):
    """Tagged, direct-mapped stride predictor over load PCs.

    Not a :class:`BinaryPredictor` — it predicts full addresses.  The
    :class:`repro.bank.address_based.AddressBankPredictor` adapter turns
    its output into a bank prediction.
    """

    _WIDTHS = {"_index_bits": "n_entries"}

    def __init__(self, n_entries: int = 1024, confidence_bits: int = 2,
                 predict_threshold: int = 2, tag_bits: int = 16) -> None:
        self.n_entries = n_entries
        self._derive()
        self.predict_threshold = predict_threshold
        self.tag_bits = tag_bits
        self.confidence_bits = confidence_bits
        self._table: Dict[int, _AddressEntry] = {}

    def _index_tag(self, pc: int) -> tuple:
        index = bits.pc_index(pc, self._index_bits)
        tag = bits.fold(pc >> 2, self.tag_bits)
        return index, tag

    def predict(self, pc: int) -> Optional[int]:
        """Predicted effective address, or ``None`` (cold/unstable entry)."""
        index, tag = self._index_tag(pc)
        entry = self._table.get(index)
        if entry is None or entry.tag != tag:
            return None
        if entry.confidence.value < self.predict_threshold:
            return None
        return entry.predicted_address()

    def confidence(self, pc: int) -> float:
        index, tag = self._index_tag(pc)
        entry = self._table.get(index)
        if entry is None or entry.tag != tag:
            return 0.0
        return entry.confidence.confidence

    def update(self, pc: int, address: int) -> None:
        """Train with the load's resolved effective address."""
        index, tag = self._index_tag(pc)
        entry = self._table.get(index)
        if entry is None or entry.tag != tag:
            self._table[index] = _AddressEntry(
                tag=tag, last_address=address, stride=0,
                confidence=SaturatingCounter(self.confidence_bits))
            return
        observed_stride = address - entry.last_address
        if observed_stride == entry.stride:
            entry.confidence.train(True)
        else:
            entry.confidence.train(False)
            # Adopt the new stride once confidence has fully drained so a
            # single irregular access does not destroy a stable stride.
            if entry.confidence.value == 0:
                entry.stride = observed_stride
        entry.last_address = address

    def reset(self) -> None:
        self._table.clear()

    @property
    def storage_bits(self) -> int:
        # tag + last address (32) + stride (16) + confidence per entry
        return self.n_entries * (self.tag_bits + 32 + 16 + self.confidence_bits)

    def __repr__(self) -> str:
        return f"StrideAddressPredictor(entries={self.n_entries})"

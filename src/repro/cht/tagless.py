"""Tagless CHT: direct-mapped 1-bit counters, indexed by PC bits.

"Its small entry size allows for many entries, but it suffers from
interference (aliasing)" — Figure 9 shows its accuracy improving
steadily from 2K to 32K entries as aliasing drops.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common import bits
from repro.cht.base import (
    CollisionPrediction,
    CollisionPredictor,
    NOT_COLLIDING,
)
from repro.predictors.counters import CounterTable


class TaglessCHT(CollisionPredictor, bits.FixedWidths):
    """Direct-mapped counter array with optional distance sidecar."""

    _WIDTHS = {"_index_bits": "n_entries"}

    def __init__(self, n_entries: int = 4096, counter_bits: int = 1,
                 track_distance: bool = False) -> None:
        self.n_entries = n_entries
        self._derive()
        self.counter_bits = counter_bits
        self.track_distance = track_distance
        self._counters = CounterTable(n_entries, counter_bits)
        self._distances: List[Optional[int]] = [None] * n_entries

    def _index(self, pc: int) -> int:
        return bits.pc_index(pc, self._index_bits)

    def lookup(self, pc: int) -> CollisionPrediction:
        index = self._index(pc)
        if not self._counters.prediction(index):
            return NOT_COLLIDING
        distance = self._distances[index] if self.track_distance else None
        return CollisionPrediction(colliding=True, distance=distance)

    def train(self, pc: int, collided: bool,
              distance: Optional[int] = None) -> None:
        index = self._index(pc)
        self._counters.train(index, collided)
        if collided and distance is not None:
            current = self._distances[index]
            if current is None or distance < current:
                self._distances[index] = distance
        elif not self._counters.prediction(index):
            self._distances[index] = None

    def clear(self) -> None:
        self._counters.reset()
        self._distances = [None] * self.n_entries

    @property
    def storage_bits(self) -> int:
        distance_bits = 6 if self.track_distance else 0
        return self.n_entries * (self.counter_bits + distance_bits)

    def __repr__(self) -> str:
        return (f"TaglessCHT(entries={self.n_entries}, "
                f"bits={self.counter_bits})")

"""Store Barrier Cache (Hesson, LeBlanc & Ciavaglia, 1995).

The other industrial baseline the paper discusses: "each store that
caused an ordering violation increments a saturating counter in the
barrier cache.  At fetch time of a store, the barrier cache is queried
and if the counter is set all following loads are delayed until after
the store is executed.  If the store did not cause a violation the
counter is decremented."

Note the granularity contrast the paper draws: the barrier is keyed by
*store* PC and blocks *all* younger loads, whereas the CHT is keyed by
load PC and delays only the predicted-colliding loads.
"""

from __future__ import annotations

from repro.common import bits
from repro.predictors.counters import CounterTable


class StoreBarrierCache(bits.FixedWidths):
    """PC-indexed saturating counters over store violation history."""

    _WIDTHS = {"_index_bits": "n_entries"}

    def __init__(self, n_entries: int = 2048, counter_bits: int = 2) -> None:
        self.n_entries = n_entries
        self._derive()
        self.counter_bits = counter_bits
        self._table = CounterTable(n_entries, counter_bits)

    def _index(self, pc: int) -> int:
        return bits.pc_index(pc, self._index_bits)

    def is_barrier(self, store_pc: int) -> bool:
        """Queried at store fetch: should younger loads be fenced?"""
        return self._table.prediction(self._index(store_pc))

    def train(self, store_pc: int, caused_violation: bool) -> None:
        """Increment on violation, decrement on clean completion."""
        self._table.train(self._index(store_pc), caused_violation)

    def clear(self) -> None:
        self._table.reset()

    @property
    def storage_bits(self) -> int:
        return self.n_entries * self.counter_bits

    def __repr__(self) -> str:
        return f"StoreBarrierCache(entries={self.n_entries})"

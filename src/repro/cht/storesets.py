"""Store-sets memory dependence prediction (Chrysos & Emer, ISCA 1998).

The paper positions its CHT against store sets: "Their mechanism uses
two tables, one for associating loads and stores into sets and the
other to track the use of these store sets.  After receiving its set ID
the load checks when the last store of that set was dispatched and
executes appropriately."  The CHT claims to be "much more cost
effective"; this implementation lets the repository test that claim.

Structures (after [Chry98]):

* **SSIT** — Store Set ID Table, PC-indexed, maps loads *and* stores to
  store-set IDs.  On a memory-order violation the (load, store) pair is
  merged into one set.
* **LFST** — Last Fetched Store Table, set-indexed, tracks the most
  recent in-flight store of each set.

A load whose PC maps to a valid set must wait for the set's last
fetched store to complete; stores update the LFST as they are renamed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common import bits


class StoreSetPredictor(bits.FixedWidths):
    """SSIT + LFST in their textbook form.

    The engine drives it through four events: ``on_load_rename`` /
    ``on_store_rename`` (returns and updates dependences),
    ``on_store_complete`` (clears the LFST entry), and
    ``on_violation`` (set assignment/merge, the training rule).
    ``cyclic_clear`` implements the periodic invalidation [Chry98]
    recommends for recovering from stale assignments.
    """

    INVALID = -1
    _WIDTHS = {"_index_bits": "ssit_entries"}

    def __init__(self, ssit_entries: int = 4096,
                 lfst_entries: int = 1024) -> None:
        bits.ilog2(lfst_entries)
        self.ssit_entries = ssit_entries
        self.lfst_entries = lfst_entries
        self._derive()
        self._ssit: List[int] = [self.INVALID] * ssit_entries
        #: set id -> seq of the last fetched, still-incomplete store.
        self._lfst: Dict[int, int] = {}
        self._next_set = 0

    def _index(self, pc: int) -> int:
        return bits.pc_index(pc, self._index_bits)

    def set_of(self, pc: int) -> int:
        return self._ssit[self._index(pc)]

    # -- rename-time events --------------------------------------------------

    def on_load_rename(self, pc: int) -> Optional[int]:
        """Returns the store seq this load must wait for, if any."""
        set_id = self.set_of(pc)
        if set_id == self.INVALID:
            return None
        return self._lfst.get(set_id)

    def on_store_rename(self, pc: int, seq: int) -> Optional[int]:
        """Record the store in its set's LFST.

        Returns the *previous* last store of the set: [Chry98] also
        serialises same-set stores (store-store ordering), which the
        engine may honour or ignore.
        """
        set_id = self.set_of(pc)
        if set_id == self.INVALID:
            return None
        previous = self._lfst.get(set_id)
        self._lfst[set_id] = seq
        return previous

    def on_store_complete(self, pc: int, seq: int) -> None:
        """Clear the LFST entry if this store is still its set's last."""
        set_id = self.set_of(pc)
        if set_id != self.INVALID and self._lfst.get(set_id) == seq:
            del self._lfst[set_id]

    # -- training -------------------------------------------------------------

    def on_violation(self, load_pc: int, store_pc: int) -> None:
        """Assign/merge the pair into one store set.

        The [Chry98] rules: neither has a set → create one; one has a
        set → the other joins it; both have sets → merge into the
        smaller-numbered set (we adopt the store's).
        """
        load_idx = self._index(load_pc)
        store_idx = self._index(store_pc)
        load_set = self._ssit[load_idx]
        store_set = self._ssit[store_idx]
        if load_set == self.INVALID and store_set == self.INVALID:
            set_id = self._alloc_set()
            self._ssit[load_idx] = set_id
            self._ssit[store_idx] = set_id
        elif load_set == self.INVALID:
            self._ssit[load_idx] = store_set
        elif store_set == self.INVALID:
            self._ssit[store_idx] = load_set
        else:
            winner = min(load_set, store_set)
            self._ssit[load_idx] = winner
            self._ssit[store_idx] = winner

    def _alloc_set(self) -> int:
        set_id = self._next_set
        self._next_set = (self._next_set + 1) % self.lfst_entries
        return set_id

    def cyclic_clear(self) -> None:
        self._ssit = [self.INVALID] * self.ssit_entries
        self._lfst.clear()

    @property
    def storage_bits(self) -> int:
        set_bits = bits.ilog2(self.lfst_entries)
        # SSIT entries hold a set id (+valid); LFST holds an inum tag.
        return (self.ssit_entries * (set_bits + 1)
                + self.lfst_entries * 16)

    def __repr__(self) -> str:
        return (f"StoreSetPredictor(ssit={self.ssit_entries}, "
                f"lfst={self.lfst_entries})")

"""Outstanding-miss queue (MSHR) and serviced-load buffer.

Section 2.2's timing refinement: "If a load misses the cache and a later
load tries to access the same cache line before that line has arrived it
will also miss the cache (dynamic miss).  On the other hand, if the
second load is executed after enough time has passed ... it will most
likely be a hit.  Most processors already have a structure that tracks
dynamic misses (outstanding miss queue) and a small buffer for tracking
serviced loads is a simple addition."

Both structures are keyed by cache line and bounded, evicting oldest
entries first.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

#: ``next_ready`` of an empty queue: later than any cycle.
_NEVER = float("inf")


class OutstandingMissQueue:
    """Lines currently being fetched, each with its arrival cycle.

    ``next_ready`` is a lower bound on the earliest arrival in the
    queue, so :meth:`expire` — called on every load — skips its scan
    while nothing can have arrived.
    """

    def __init__(self, n_entries: int = 8) -> None:
        if n_entries < 1:
            raise ValueError("MSHR needs at least one entry")
        self.n_entries = n_entries
        self._pending: "OrderedDict[int, int]" = OrderedDict()
        self.next_ready = _NEVER

    def _rebound(self) -> None:
        self.next_ready = min(self._pending.values(), default=_NEVER)

    def insert(self, line: int, ready_cycle: int) -> None:
        """Record that ``line`` will arrive at ``ready_cycle``.

        A second miss to an in-flight line merges (keeps the earlier
        arrival); a full queue drops its oldest entry — the model's
        equivalent of stalling the miss pipeline.
        """
        pending = self._pending
        if line in pending:
            pending[line] = min(pending[line], ready_cycle)
        else:
            while len(pending) >= self.n_entries:
                pending.popitem(last=False)
            pending[line] = ready_cycle
        self._rebound()

    def expire(self, now: int) -> None:
        """Drop entries whose lines have arrived by cycle ``now``."""
        if now < self.next_ready:
            return  # nothing due yet
        pending = self._pending
        arrived = [line for line, ready in pending.items() if ready <= now]
        for line in arrived:
            del pending[line]
        self._rebound()

    def pending_until(self, line: int, now: int) -> Optional[int]:
        """Arrival cycle of ``line`` if still in flight at ``now``."""
        ready = self._pending.get(line)
        if ready is None or ready <= now:
            return None
        return ready

    def __contains__(self, line: int) -> bool:
        return line in self._pending

    def __len__(self) -> int:
        return len(self._pending)

    def clear(self) -> None:
        self._pending.clear()
        self.next_ready = _NEVER


class ServicedLoadBuffer:
    """Recently serviced (arrived) lines, with their arrival cycle.

    Used as the positive half of the timing hint: a load to a line that
    just arrived is very likely a hit regardless of what the pattern
    tables say.
    """

    def __init__(self, n_entries: int = 16, retention_cycles: int = 256) -> None:
        if n_entries < 1:
            raise ValueError("buffer needs at least one entry")
        self.n_entries = n_entries
        self.retention_cycles = retention_cycles
        self._serviced: "OrderedDict[int, int]" = OrderedDict()

    def insert(self, line: int, arrival_cycle: int) -> None:
        if line in self._serviced:
            del self._serviced[line]
        while len(self._serviced) >= self.n_entries:
            self._serviced.popitem(last=False)
        self._serviced[line] = arrival_cycle

    def recently_serviced(self, line: int, now: int) -> bool:
        arrival = self._serviced.get(line)
        if arrival is None:
            return False
        return now - arrival <= self.retention_cycles

    def __len__(self) -> int:
        return len(self._serviced)

    def clear(self) -> None:
        self._serviced.clear()

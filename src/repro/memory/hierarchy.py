"""Two-level memory hierarchy with dynamic load latencies.

This is the structure the hit-miss predictor reasons about: a load's
latency depends on which level the data resides in (section 2.2).  The
hierarchy also feeds the MSHR so the timing-enhanced predictor can see
in-flight lines.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.common.config import MemoryConfig
from repro.common.stats import StatGroup
from repro.memory.cache import Cache
from repro.memory.mshr import OutstandingMissQueue, ServicedLoadBuffer


class LoadOutcome(NamedTuple):
    """Result of sending one load down the hierarchy.

    Attributes
    ----------
    l1_hit / l2_hit:
        Residence at each level.  ``l2_hit`` is meaningful only when the
        L1 missed.
    latency:
        Total data latency in cycles, from cache access start to data.
    line:
        The cache-line index of the access (for MSHR bookkeeping).
    dynamic_miss:
        True when the L1 miss was to a line already in flight — the
        "dynamic miss" case of section 2.2; latency is the residual wait.
    """

    l1_hit: bool
    l2_hit: bool
    latency: int
    line: int
    dynamic_miss: bool = False

    @property
    def miss(self) -> bool:
        return not self.l1_hit


class MemoryHierarchy:
    """L1 data cache + unified L2 + memory, with an outstanding-miss queue."""

    def __init__(self, config: Optional[MemoryConfig] = None,
                 stats: Optional[StatGroup] = None) -> None:
        self.config = config if config is not None else MemoryConfig()
        group = stats if stats is not None else StatGroup("memory")
        self.stats = group
        self.l1d = Cache(self.config.l1d, "l1d", group.child("l1d"))
        self.l2 = Cache(self.config.l2, "l2", group.child("l2"))
        self.mshr = OutstandingMissQueue(self.config.mshr_entries)
        self.serviced = ServicedLoadBuffer()
        self._loads = group.counter("loads")
        self._l1_misses = group.counter("l1_misses")
        self._l2_misses = group.counter("l2_misses")
        self._dynamic_misses = group.counter("dynamic_misses")
        #: Optional :class:`repro.obs.events.EventBus`; when attached,
        #: every L1 miss is emitted with the level that served it.
        self.obs = None

    def load(self, address: int, now: int = 0) -> LoadOutcome:
        """Execute a load at cycle ``now`` and return its outcome."""
        self._loads.value += 1
        mshr = self.mshr
        mshr.expire(now)
        line = address // self.l1d.line_bytes

        pending = mshr.pending_until(line, now)
        if pending is not None:
            # The line is already being fetched: a dynamic miss.  The load
            # waits for the in-flight fill rather than starting a new one.
            self._dynamic_misses.value += 1
            self._l1_misses.value += 1
            if self.obs is not None:
                self.obs.emit("miss", now, pc=0, level="inflight",
                              line=line, latency=pending - now)
            # Keep L1 state consistent: the fill will install the line, so
            # model the install now (subsequent post-arrival loads hit).
            self.l1d.touch(address)
            return LoadOutcome(l1_hit=False, l2_hit=True,
                               latency=pending - now, line=line,
                               dynamic_miss=True)

        if self.l1d.touch(address):  # the common case: built positionally
            return LoadOutcome(True, True, self.config.l1_latency, line)

        self._l1_misses.value += 1
        l2_hit = self.l2.touch(address)
        if l2_hit:
            latency = self.config.l2_latency
        else:
            self._l2_misses.value += 1
            latency = self.config.memory_latency
        if self.obs is not None:
            self.obs.emit("miss", now, pc=0,
                          level="l2" if l2_hit else "mem",
                          line=line, latency=latency)
        mshr.insert(line, now + latency)
        self.serviced.insert(line, now + latency)
        return LoadOutcome(l1_hit=False, l2_hit=l2_hit, latency=latency,
                           line=line)

    def prefetch(self, address: int, now: int = 0) -> bool:
        """A non-demand fill at cycle ``now``: bring ``address``'s line
        into both levels, the miss queue and the serviced buffer with
        the latency a demand miss would see, touching no demand counter
        (``loads``, ``l1_misses``, ``l2_misses``, the caches' own) and
        emitting no ``miss`` event.  A line already resident or in
        flight is left alone; returns whether a fill was issued."""
        mshr = self.mshr
        mshr.expire(now)
        line = address // self.l1d.line_bytes
        if (mshr.pending_until(line, now) is not None
                or self.l1d.probe(address)):
            return False
        latency = (self.config.l2_latency if self.l2.probe(address)
                   else self.config.memory_latency)
        self.l1d.fill(address)
        self.l2.fill(address)
        mshr.insert(line, now + latency)
        self.serviced.insert(line, now + latency)
        return True

    def store(self, address: int, now: int = 0) -> None:
        """Stores install their line in both levels (write-allocate)."""
        if not self.l1d.touch(address):
            self.l2.touch(address)

    def would_hit_l1(self, address: int, now: int = 0) -> bool:
        """Non-destructive L1 residence probe (oracle/HMP verification).

        A line still being filled counts as a miss (the dynamic-miss
        case): its data is not yet available even though the tag array
        already owns it in this model.
        """
        line = address // self.l1d.line_bytes
        if self.mshr.pending_until(line, now) is not None:
            return False
        return self.l1d.probe(address)

    @property
    def l1_miss_rate(self) -> float:
        loads = self._loads.value
        return self._l1_misses.value / loads if loads else 0.0

    def reset(self) -> None:
        self.l1d.flush()
        self.l2.flush()
        self.mshr.clear()
        self.serviced.clear()

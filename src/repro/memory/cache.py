"""Set-associative cache model with true LRU replacement.

The model tracks tags only (no data), which is all a scheduling study
needs: the simulator asks "would this access hit?" and the hit/miss
stream drives both the latency model and the hit-miss predictor's ground
truth.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.common import bits
from repro.common.config import CacheConfig
from repro.common.stats import StatGroup


class AccessResult(NamedTuple):
    """Outcome of one cache access."""

    hit: bool
    set_index: int
    tag: int
    evicted_tag: Optional[int] = None

    @property
    def miss(self) -> bool:
        return not self.hit


class Cache:
    """A single cache level.

    ``access`` allocates on miss (the usual write-allocate, fetch-on-miss
    policy); ``probe`` checks residence without disturbing LRU state,
    which is what an address-predictor-based hit-miss check would do
    (section 2.2).

    Each set is a plain list of tags in LRU order (front = most recent);
    the geometry is read once here, not per access.
    """

    def __init__(self, config: CacheConfig, name: str = "cache",
                 stats: Optional[StatGroup] = None) -> None:
        self.config = config
        self.name = name
        self.line_bytes = config.line_bytes
        self.n_sets = config.n_sets
        self.ways = config.ways
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        group = stats if stats is not None else StatGroup(name)
        self.stats = group
        self._hits = group.counter("hits")
        self._misses = group.counter("misses")
        self._evictions = group.counter("evictions")

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def _touch(self, tags: List[int], tag: int) -> Tuple[bool, Optional[int]]:
        """The LRU update: move ``tag`` to the front of its set,
        allocating (and evicting the LRU tag of a full set) on a miss.
        Returns ``(hit, evicted_tag)``."""
        if tags and tags[0] == tag:
            self._hits.value += 1
            return True, None
        try:
            tags.remove(tag)
        except ValueError:
            self._misses.value += 1
            tags.insert(0, tag)
            if len(tags) > self.ways:
                self._evictions.value += 1
                return False, tags.pop()
            return False, None
        tags.insert(0, tag)
        self._hits.value += 1
        return True, None

    def access(self, address: int) -> AccessResult:
        """Reference ``address``: probe, update LRU, allocate on miss."""
        set_index, tag = self._locate(address)
        hit, evicted = self._touch(self._sets[set_index], tag)
        return AccessResult(hit, set_index, tag, evicted)

    def touch(self, address: int) -> bool:
        """:meth:`access` for callers that only need the hit bit (the
        hierarchy's per-load path): same LRU and counter effects, no
        result object."""
        line = address // self.line_bytes
        n_sets = self.n_sets
        return self._touch(self._sets[line % n_sets], line // n_sets)[0]

    def fill(self, address: int) -> None:
        """Install ``address``'s line as most recently used, evicting
        the LRU tag of a full set: :meth:`touch`'s effect on the tags
        without its demand counters (a prefetch fill)."""
        line = address // self.line_bytes
        tags = self._sets[line % self.n_sets]
        tag = line // self.n_sets
        if tag in tags:
            tags.remove(tag)
        tags.insert(0, tag)
        if len(tags) > self.ways:
            tags.pop()

    def probe(self, address: int) -> bool:
        """Non-destructive residence check (no LRU update, no allocate)."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def set_tags(self, set_index: int) -> Tuple[int, ...]:
        """The tags resident in one set, most recently used first."""
        return tuple(self._sets[set_index])

    def invalidate(self, address: int) -> bool:
        set_index, tag = self._locate(address)
        tags = self._sets[set_index]
        if tag in tags:
            tags.remove(tag)
            return True
        return False

    def flush(self) -> None:
        for tags in self._sets:
            tags.clear()

    def bank_of(self, address: int) -> int:
        """Line-interleaved bank index for banked organisations."""
        return bits.extract(address // self.line_bytes, 0,
                            bits.ilog2(self.config.n_banks)) \
            if self.config.n_banks > 1 else 0

    @property
    def hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    def __repr__(self) -> str:
        return (f"Cache({self.name}, {self.config.size_bytes // 1024}K, "
                f"{self.config.ways}-way)")

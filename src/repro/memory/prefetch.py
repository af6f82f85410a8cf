"""Hardware data prefetching (the [Pinte96] "Tango" connection).

The paper's §2.2 closes with: "If the load address is predicted
correctly we can of course fetch the data ahead of time and not use it
for hit-miss prediction only" — and cites the authors' own Tango
prefetcher when discussing cache tag-port pressure.  This module
supplies that substrate so the interaction can be studied:

* :class:`StridePrefetcher` — a per-PC stride detector (reusing the
  address-predictor machinery) that, on each demand load, issues
  next-line prefetches ``degree`` strides ahead into the hierarchy.
* :class:`PrefetchStats` — issued / useful accounting (a prefetch is
  *useful* when a later demand access hits a line the prefetcher
  brought in).

The interesting interaction (see the ablation benchmark): prefetching
*removes* exactly the regular misses the hit-miss predictor catches
best, so HMP miss coverage drops as the prefetcher gets better — the
two mechanisms compete for the same regularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.address import StrideAddressPredictor


@dataclass
class PrefetchStats:
    """Prefetch effectiveness accounting."""

    issued: int = 0
    useful: int = 0  #: demand accesses that hit a prefetched line
    late_or_useless: int = 0  #: prefetched lines evicted/never used

    @property
    def usefulness(self) -> float:
        return self.useful / self.issued if self.issued else 0.0


class StridePrefetcher:
    """Per-PC stride prefetching into a :class:`MemoryHierarchy`.

    Parameters
    ----------
    hierarchy:
        The hierarchy to prefetch into (shared with the engine).
    degree:
        How many strides ahead to fetch on each trained demand access.
    predictor:
        The stride table (a fresh one per prefetcher by default).
    """

    def __init__(self, hierarchy: MemoryHierarchy, degree: int = 2,
                 predictor: Optional[StrideAddressPredictor] = None
                 ) -> None:
        if degree < 1:
            raise ValueError("degree must be positive")
        self.hierarchy = hierarchy
        self.degree = degree
        self.predictor = (predictor if predictor is not None
                          else StrideAddressPredictor())
        self.stats = PrefetchStats()
        self._prefetched_lines: Set[int] = set()

    def on_demand_access(self, pc: int, address: int, now: int = 0) -> None:
        """Observe a demand load; train and possibly prefetch ahead.

        Call *after* the demand access itself so the prefetches queue
        behind it (and so usefulness accounting sees the demand first).
        """
        line_bytes = self.hierarchy.config.l1d.line_bytes
        line = address // line_bytes
        if line in self._prefetched_lines:
            self.stats.useful += 1
            self._prefetched_lines.discard(line)

        self.predictor.update(pc, address)
        predicted = self.predictor.predict(pc)
        if predicted is None:
            return
        stride = predicted - address
        if stride == 0:
            return  # constant address: nothing to run ahead of
        target = predicted
        for _ in range(self.degree):
            target_line = target // line_bytes
            if (target_line != line
                    and self.hierarchy.prefetch(target, now)):
                self.stats.issued += 1
                self._prefetched_lines.add(target_line)
                if len(self._prefetched_lines) > 512:
                    self._prefetched_lines.pop()
                    self.stats.late_or_useless += 1
            target += stride

    def reset(self) -> None:
        self.predictor.reset()
        self.stats = PrefetchStats()
        self._prefetched_lines.clear()

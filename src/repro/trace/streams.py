"""Address-stream models.

Each static load/store site in a synthetic program draws its effective
addresses from a stream.  The stream menagerie covers the behaviours
that make the paper's predictors work (or fail):

* :class:`StrideStream` — array walks.  Perfectly predictable by a
  stride address predictor; produces periodic miss patterns (one miss
  per cache line) and periodic bank sequences.
* :class:`PointerChaseStream` — a fixed random permutation cycle.
  Address sequence is repeatable but stride-free; miss behaviour
  depends on the working-set size.
* :class:`RandomStream` — uniform accesses in a region; adversarial
  for every predictor.
* :class:`HotColdStream` — mostly-hot accesses with occasional cold
  excursions; yields the bursty, history-correlated misses that local
  hit-miss predictors capture.
"""

from __future__ import annotations

import abc
import random
from typing import List


class AddressStream(abc.ABC):
    """A generator of effective byte addresses for one access site."""

    @abc.abstractmethod
    def next(self, rng: random.Random) -> int:
        """Produce the next effective address."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Rewind to the initial state."""


class StrideStream(AddressStream):
    """A strided walk over ``[base, base + extent)``, wrapping at the end."""

    def __init__(self, base: int, stride: int, extent: int) -> None:
        if extent <= 0:
            raise ValueError("extent must be positive")
        if stride == 0:
            raise ValueError("stride must be non-zero")
        self.base = base
        self.stride = stride
        self.extent = extent
        self._offset = 0

    def next(self, rng: random.Random) -> int:
        address = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.extent
        return address

    def reset(self) -> None:
        self._offset = 0

    def __repr__(self) -> str:
        return (f"StrideStream(base={self.base:#x}, stride={self.stride}, "
                f"extent={self.extent})")


class RandomStream(AddressStream):
    """Uniformly random aligned accesses within a region."""

    def __init__(self, base: int, extent: int, align: int = 4) -> None:
        if extent < align:
            raise ValueError("extent must cover at least one access")
        self.base = base
        self.extent = extent
        self.align = align

    def next(self, rng: random.Random) -> int:
        slots = self.extent // self.align
        return self.base + rng.randrange(slots) * self.align

    def reset(self) -> None:
        pass  # stateless

    def __repr__(self) -> str:
        return f"RandomStream(base={self.base:#x}, extent={self.extent})"


class PointerChaseStream(AddressStream):
    """Follow a fixed random permutation over node addresses.

    The permutation is built once from ``perm_seed`` so the chase is
    repeatable across runs; the traversal revisits nodes cyclically,
    giving temporal locality bounded by the node count.
    """

    def __init__(self, base: int, n_nodes: int, node_bytes: int = 64,
                 perm_seed: int = 1) -> None:
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        self.base = base
        self.n_nodes = n_nodes
        self.node_bytes = node_bytes
        order = list(range(n_nodes))
        random.Random(perm_seed).shuffle(order)
        # successor[i] = node after i in the single cycle defined by order.
        self._successor: List[int] = [0] * n_nodes
        for pos, node in enumerate(order):
            self._successor[node] = order[(pos + 1) % n_nodes]
        self._current = order[0]

    def next(self, rng: random.Random) -> int:
        address = self.base + self._current * self.node_bytes
        self._current = self._successor[self._current]
        return address

    def reset(self) -> None:
        # Restart from node 0's successor chain head deterministically.
        self._current = 0

    def __repr__(self) -> str:
        return (f"PointerChaseStream(base={self.base:#x}, "
                f"nodes={self.n_nodes})")


class HotColdStream(AddressStream):
    """Mostly-hot accesses with cold excursions in bursts.

    With probability ``p_cold_burst`` the stream enters a cold burst of
    geometric length, drawing from the cold stream; otherwise it draws
    from the hot stream.  Bursts produce the *runs* of misses that give
    per-load history predictive power.
    """

    def __init__(self, hot: AddressStream, cold: AddressStream,
                 p_cold_burst: float = 0.02,
                 burst_continue: float = 0.7) -> None:
        if not 0.0 <= p_cold_burst <= 1.0:
            raise ValueError("p_cold_burst must be a probability")
        if not 0.0 <= burst_continue < 1.0:
            raise ValueError("burst_continue must be in [0, 1)")
        self.hot = hot
        self.cold = cold
        self.p_cold_burst = p_cold_burst
        self.burst_continue = burst_continue
        self._in_burst = False

    def next(self, rng: random.Random) -> int:
        if self._in_burst:
            self._in_burst = rng.random() < self.burst_continue
            return self.cold.next(rng)
        if rng.random() < self.p_cold_burst:
            self._in_burst = True
            return self.cold.next(rng)
        return self.hot.next(rng)

    def reset(self) -> None:
        self._in_burst = False
        self.hot.reset()
        self.cold.reset()

    def __repr__(self) -> str:
        return f"HotColdStream(p_cold={self.p_cold_burst})"

"""Collision-predictor protocol and the shared tagged-table machinery."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from repro.common import bits


@dataclass(frozen=True)
class CollisionPrediction:
    """Answer to "will this load collide?".

    Attributes
    ----------
    colliding:
        The binary prediction.  A colliding load is held back by the
        ordering scheme; a non-colliding load may be advanced past the
        stores in the scheduling window.
    distance:
        For exclusive predictors: the minimal store distance at which
        the load has been seen to collide.  The load may safely bypass
        the ``distance - 1`` nearest older stores but must wait for all
        stores at or beyond ``distance``.  ``None`` means inclusive
        behaviour (wait for every older store).
    """

    colliding: bool
    distance: Optional[int] = None

    def __post_init__(self) -> None:
        if self.distance is not None and self.distance < 1:
            raise ValueError("collision distance counts stores, minimum 1")


NOT_COLLIDING = CollisionPrediction(colliding=False)


class CollisionPredictor(abc.ABC):
    """Interface consumed by the memory ordering schemes."""

    #: Optional :class:`repro.obs.events.EventBus`; when attached,
    #: :meth:`observed_train` reports every training step.
    obs = None

    @abc.abstractmethod
    def lookup(self, pc: int) -> CollisionPrediction:
        """Predict the collision behaviour of the load at ``pc``.

        Called when the load appears in the instruction stream, before
        scheduling (step 1 of the section 2.1 protocol).
        """

    @abc.abstractmethod
    def train(self, pc: int, collided: bool,
              distance: Optional[int] = None) -> None:
        """Learn the load's resolved behaviour at retirement (step 4).

        ``distance`` is the dynamic store distance of the actual
        collision (1 = nearest older store), when one occurred.
        """

    def observed_train(self, pc: int, collided: bool,
                       distance: Optional[int] = None,
                       now: int = -1) -> None:
        """:meth:`train`, plus a ``predictor-update`` event when an
        event bus is attached (the ordering schemes' hook point)."""
        self.train(pc, collided, distance)
        if self.obs is not None:
            self.obs.emit("predictor-update", now, pc=pc, family="cht",
                          predictor=type(self).__name__,
                          outcome=collided, distance=distance)

    def clear(self) -> None:
        """Wholesale invalidation (cyclic clearing support)."""
        raise NotImplementedError

    @property
    def storage_bits(self) -> int:
        """Approximate hardware budget in bits."""
        raise NotImplementedError


class NeverCollides(CollisionPredictor):
    """Degenerate predictor of the Opportunistic scheme (scheme II)."""

    def lookup(self, pc: int) -> CollisionPrediction:
        return NOT_COLLIDING

    def train(self, pc: int, collided: bool,
              distance: Optional[int] = None) -> None:
        pass

    def clear(self) -> None:
        pass

    @property
    def storage_bits(self) -> int:
        return 0


class AlwaysCollides(CollisionPredictor):
    """Degenerate predictor recovering fully conservative ordering."""

    def lookup(self, pc: int) -> CollisionPrediction:
        return CollisionPrediction(colliding=True)

    def train(self, pc: int, collided: bool,
              distance: Optional[int] = None) -> None:
        pass

    def clear(self) -> None:
        pass

    @property
    def storage_bits(self) -> int:
        return 0


V = TypeVar("V")


class TaggedSetAssocTable(Generic[V], bits.FixedWidths):
    """An n-way set-associative, LRU-replaced table keyed by PC.

    The CHT "is organised as a cache" (section 2.1); this generic table
    provides the lookup/allocate/invalidate mechanics for the tagged
    organisations.  Values are per-entry predictor state.
    """

    _WIDTHS = {"_index_bits": "n_sets"}

    def __init__(self, n_entries: int, ways: int, tag_bits: int = 16) -> None:
        if n_entries % ways:
            raise ValueError("entries must divide evenly into ways")
        self.n_entries = n_entries
        self.ways = ways
        self.n_sets = n_entries // ways
        self._derive()
        self.tag_bits = tag_bits
        # Each set: list of (tag, value), most recently used first.
        self._sets: List[List[Tuple[int, V]]] = [
            [] for _ in range(self.n_sets)
        ]

    def _locate(self, pc: int) -> Tuple[int, int]:
        index = bits.pc_index(pc, self._index_bits)
        tag = bits.fold(pc >> 2, self.tag_bits)
        return index, tag

    def get(self, pc: int, touch: bool = True) -> Optional[V]:
        index, tag = self._locate(pc)
        entries = self._sets[index]
        for pos, (entry_tag, value) in enumerate(entries):
            if entry_tag == tag:
                if touch and pos:
                    entries.insert(0, entries.pop(pos))
                return value
        return None

    def put(self, pc: int, value: V) -> Optional[V]:
        """Insert/overwrite; returns an evicted value, if any."""
        index, tag = self._locate(pc)
        entries = self._sets[index]
        for pos, (entry_tag, _) in enumerate(entries):
            if entry_tag == tag:
                entries.pop(pos)
                entries.insert(0, (tag, value))
                return None
        evicted = None
        if len(entries) >= self.ways:
            evicted = entries.pop()[1]
        entries.insert(0, (tag, value))
        return evicted

    def invalidate(self, pc: int) -> bool:
        index, tag = self._locate(pc)
        entries = self._sets[index]
        for pos, (entry_tag, _) in enumerate(entries):
            if entry_tag == tag:
                entries.pop(pos)
                return True
        return False

    def clear(self) -> None:
        for entries in self._sets:
            entries.clear()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)

"""The six memory ordering schemes of section 3.1.

Each scheme decides when a ready load may be dispatched relative to the
older stores in the window, and owns the CHT consultation/training for
the predictor-based schemes:

I.   Traditional — wait for all older STAs; may pass STDs (a wrong
     load-STD ordering costs the collision penalty).
II.  Opportunistic — never wait; wrong orderings cost the penalty.
III. Postponing — Traditional, plus CHT-predicted-colliding loads also
     wait for all older STDs.
IV.  Inclusive — predicted-colliding loads wait for *all* older
     STAs+STDs; predicted-non-colliding loads never wait.
V.   Exclusive — like Inclusive, but a predicted-colliding load with a
     learned minimal distance d only waits for stores at distance >= d.
VI.  Perfect — oracle: delay exactly the truly colliding loads, exactly
     until their colliding store completes.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Type

from repro.cht.base import CollisionPredictor
from repro.engine.inflight import InflightUop
from repro.engine.mob import MemoryOrderBuffer


class OrderingScheme(abc.ABC):
    """Scheduler policy for load-store ordering."""

    name: str = "abstract"
    uses_cht = False
    #: Guarantee flags consumed by the invariant checker
    #: (:mod:`repro.robust.invariants`).  ``never_violates``: the
    #: scheme waits for every older unknown-address STA, so a hidden
    #: (AC-PNC) ordering violation is impossible.  ``never_collides``:
    #: the scheme is an oracle — no load ever pays a collision at all.
    never_violates = False
    never_collides = False

    @abc.abstractmethod
    def may_dispatch(self, load: InflightUop, mob: MemoryOrderBuffer,
                     now: int) -> bool:
        """May this source-ready load be dispatched at cycle ``now``?"""

    def on_rename_load(self, load: InflightUop) -> None:
        """Hook: the load enters the window (CHT lookup happens here)."""

    def on_retire_load(self, load: InflightUop) -> None:
        """Hook: the load retires (CHT training happens here)."""

    def on_rename_store(self, sta: InflightUop) -> None:
        """Hook: a store enters the window (store-set/barrier lookup)."""

    def on_store_data_done(self, sta_seq: int) -> None:
        """Hook: the store's data has retired (LFST/fence release)."""


class TraditionalOrdering(OrderingScheme):
    """Scheme I: each load waits for all older STAs (P6-style)."""

    name = "traditional"
    never_violates = True  # loads wait for every older STA

    def may_dispatch(self, load: InflightUop, mob: MemoryOrderBuffer,
                     now: int) -> bool:
        return not mob.has_unknown_sta(load.uop.seq, now)


class OpportunisticOrdering(OrderingScheme):
    """Scheme II: loads never wait for stores."""

    name = "opportunistic"

    def may_dispatch(self, load: InflightUop, mob: MemoryOrderBuffer,
                     now: int) -> bool:
        return True


class _ChtScheme(OrderingScheme):
    """Shared CHT lookup/training for schemes III-V."""

    uses_cht = True

    def __init__(self, cht: CollisionPredictor) -> None:
        self.cht = cht

    def on_rename_load(self, load: InflightUop) -> None:
        prediction = self.cht.lookup(load.uop.pc)
        assert load.load is not None
        load.load.predicted_colliding = prediction.colliding
        load.load.predicted_distance = prediction.distance

    def on_retire_load(self, load: InflightUop) -> None:
        info = load.load
        assert info is not None
        if info.would_collide is None:
            return  # the load never reached a dispatch opportunity check
        self.cht.observed_train(load.uop.pc, info.would_collide,
                                info.collide_distance)


class PostponingOrdering(_ChtScheme):
    """Scheme III: Traditional + predicted-colliding loads wait for STDs."""

    name = "postponing"
    never_violates = True  # still waits for every older STA

    def may_dispatch(self, load: InflightUop, mob: MemoryOrderBuffer,
                     now: int) -> bool:
        if mob.has_unknown_sta(load.uop.seq, now):
            return False
        assert load.load is not None
        if load.load.predicted_colliding:
            return mob.all_older_stds_done(load.uop.seq, now)
        return True


class InclusiveOrdering(_ChtScheme):
    """Scheme IV: the inclusive collision predictor."""

    name = "inclusive"

    def may_dispatch(self, load: InflightUop, mob: MemoryOrderBuffer,
                     now: int) -> bool:
        assert load.load is not None
        if not load.load.predicted_colliding:
            return True
        return mob.all_older_complete(load.uop.seq, now)


class ExclusiveOrdering(_ChtScheme):
    """Scheme V: the exclusive predictor with collision distances."""

    name = "exclusive"

    def may_dispatch(self, load: InflightUop, mob: MemoryOrderBuffer,
                     now: int) -> bool:
        assert load.load is not None
        info = load.load
        if not info.predicted_colliding:
            return True
        if info.predicted_distance is None:
            # No distance learned yet: fall back to inclusive behaviour.
            return mob.all_older_complete(load.uop.seq, now)
        return mob.complete_beyond_distance(load.uop.seq, now,
                                            info.predicted_distance)


class PerfectOrdering(OrderingScheme):
    """Scheme VI: oracle disambiguation."""

    name = "perfect"
    never_violates = True
    never_collides = True  # the oracle never dispatches into a collision

    def may_dispatch(self, load: InflightUop, mob: MemoryOrderBuffer,
                     now: int) -> bool:
        assert load.uop.mem is not None
        record, _ = mob.colliding_store(load.uop.seq, load.uop.mem, now)
        return record is None


SCHEME_NAMES = ("traditional", "opportunistic", "postponing", "inclusive",
                "exclusive", "perfect")

#: The exact scheme types the vectorized engine kernel implements, in
#: kernel-kind order (:mod:`repro.engine.vector` dispatches on the
#: tuple index).  Deliberately exact types, not isinstance checks:
#: subclasses (e.g. the lying scheme of
#: ``tests/robust/test_invariants.py``) must fall back to the scalar
#: path so their behaviour stays observable.
VECTOR_SCHEME_TYPES = (TraditionalOrdering, OpportunisticOrdering,
                       PostponingOrdering, InclusiveOrdering,
                       ExclusiveOrdering, PerfectOrdering)

#: Prior-art baselines implemented in :mod:`repro.engine.alternatives`.
ALTERNATIVE_SCHEMES = ("storesets", "barrier")

_CHT_SCHEMES: Dict[str, Type[_ChtScheme]] = {
    "postponing": PostponingOrdering,
    "inclusive": InclusiveOrdering,
    "exclusive": ExclusiveOrdering,
}


def make_scheme(name: str,
                cht: Optional[CollisionPredictor] = None) -> OrderingScheme:
    """Factory for the section 3.1 schemes by name.

    Predictor-based schemes receive ``cht``; a default Full CHT in the
    paper's Figure 7 configuration (2K entries, 4-way, 2-bit counters,
    distance tracking for the exclusive scheme) is built when omitted.
    """
    if name == "traditional":
        return TraditionalOrdering()
    if name == "opportunistic":
        return OpportunisticOrdering()
    if name == "perfect":
        return PerfectOrdering()
    if name in _CHT_SCHEMES:
        if cht is None:
            from repro.cht.full import FullCHT
            cht = FullCHT(n_entries=2048, ways=4, counter_bits=2,
                          track_distance=(name == "exclusive"))
        return _CHT_SCHEMES[name](cht)
    if name in ALTERNATIVE_SCHEMES:
        from repro.engine import alternatives
        if name == "storesets":
            return alternatives.StoreSetOrdering()
        return alternatives.StoreBarrierOrdering()
    raise ValueError(f"unknown ordering scheme {name!r}; "
                     f"choose from {SCHEME_NAMES + ALTERNATIVE_SCHEMES}")

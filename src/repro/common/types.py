"""Core data types: micro-operations and load classification taxonomies.

The simulator is trace driven.  A trace is a sequence of :class:`Uop`
objects, mirroring the paper's P6-style decomposition: a load is a single
uop, a store is a STA (store address) uop plus a STD (store data) uop
(section 1.1).  Every uop carries the linear instruction pointer of the
macro-instruction it came from; the predictors index on that pointer,
exactly as the paper's tables do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol, Tuple, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.predictors.base import Prediction


class UopClass(enum.IntEnum):
    """Micro-operation classes understood by the execution core.

    The classes map one-to-one onto the execution-unit types of the
    baseline machine in section 3.1 (2 integer, 2 memory, 1 floating
    point, 2 complex units).  ``STA``/``STD`` are the two halves of a
    store; both occupy a memory unit.
    """

    INT = 0  #: simple integer ALU operation, 1 cycle
    FP = 1  #: floating point operation
    COMPLEX = 2  #: long-latency operation (mul/div/shuffle...)
    LOAD = 3  #: memory load, dynamic latency
    STA = 4  #: store-address uop
    STD = 5  #: store-data uop
    BRANCH = 6  #: conditional/indirect branch, executes on an integer unit
    NOP = 7  #: filler (renamed but never scheduled)


@dataclass(frozen=True)
class MemAccess:
    """A resolved memory access: byte address plus access size."""

    address: int
    size: int = 4

    def line(self, line_bytes: int) -> int:
        """Cache-line index of the access for ``line_bytes``-byte lines."""
        return self.address // line_bytes

    def bank(self, n_banks: int, line_bytes: int) -> int:
        """Bank index under line-interleaved banking."""
        return (self.address // line_bytes) % n_banks

    def overlaps(self, other: "MemAccess") -> bool:
        """True when the two byte ranges intersect (load-store collision)."""
        return (self.address < other.address + other.size
                and other.address < self.address + self.size)


# A unique sequence number type alias for readability.
SeqNum = int


@dataclass
class Uop:
    """One dynamic micro-operation of the trace.

    Attributes
    ----------
    seq:
        Dynamic sequence number, dense and strictly increasing in program
        order.  Assigned by the trace producer.
    pc:
        Linear instruction pointer of the originating macro-instruction.
        Predictor tables index on this.
    uclass:
        Execution class of the uop.
    srcs:
        Architectural source register ids (at most 2 in the model).
    dst:
        Architectural destination register id or ``None``.
    mem:
        Resolved memory access for LOAD/STA uops, ``None`` otherwise.
        The trace carries the *oracle* address; the engine only reveals
        it to itself at address-generation time.
    sta_seq:
        For an STD uop, the sequence number of its paired STA.
    taken / mispredicted:
        Branch outcome annotations used by the front-end model.
    """

    seq: SeqNum
    pc: int
    uclass: UopClass
    srcs: Tuple[int, ...] = ()
    dst: Optional[int] = None
    mem: Optional[MemAccess] = None
    sta_seq: Optional[SeqNum] = None
    taken: bool = False
    mispredicted: bool = False

    def __post_init__(self) -> None:
        if self.uclass in (UopClass.LOAD, UopClass.STA) and self.mem is None:
            raise ValueError(f"{self.uclass.name} uop requires a memory access")
        if self.uclass == UopClass.STD and self.sta_seq is None:
            raise ValueError("STD uop requires sta_seq linking it to its STA")

    @property
    def is_load(self) -> bool:
        return self.uclass == UopClass.LOAD

    @property
    def is_sta(self) -> bool:
        return self.uclass == UopClass.STA

    @property
    def is_std(self) -> bool:
        return self.uclass == UopClass.STD

    @property
    def is_mem(self) -> bool:
        return self.uclass in (UopClass.LOAD, UopClass.STA, UopClass.STD)

    @property
    def is_branch(self) -> bool:
        return self.uclass == UopClass.BRANCH


def is_load(uop: Uop) -> bool:
    """Module-level predicate mirror of :attr:`Uop.is_load`."""
    return uop.uclass == UopClass.LOAD


def is_store_address(uop: Uop) -> bool:
    """Module-level predicate mirror of :attr:`Uop.is_sta`."""
    return uop.uclass == UopClass.STA


def is_store_data(uop: Uop) -> bool:
    """Module-level predicate mirror of :attr:`Uop.is_std`."""
    return uop.uclass == UopClass.STD


@runtime_checkable
class LoadPredictor(Protocol):
    """The one shape of a binary per-load predictor.

    ``predict(pc)`` answers a binary question about the load at ``pc``
    with a :class:`~repro.predictors.base.Prediction`; ``update(pc,
    outcome)`` trains with the resolved outcome, in the same stream
    order (global-history predictors rely on it).  What the binary
    outcome *means* is family-specific — "will miss" for hit-miss
    predictors, "will collide" for CHTs, "goes to bank 1" for two-bank
    predictors.  Binary predictors satisfy it verbatim; the other
    families keep their native APIs, which
    :func:`repro.serve.batch.apply_step` projects per family.

    The protocol is structural and ``runtime_checkable``:
    ``isinstance(obj, LoadPredictor)`` verifies the two methods exist
    (signatures are a static-checking concern).
    """

    def predict(self, pc: int) -> "Prediction":
        """Predict the binary outcome for the load at ``pc``."""
        ...  # pragma: no cover - protocol stub

    def update(self, pc: int, outcome: bool) -> None:
        """Train with the resolved outcome for ``pc``."""
        ...  # pragma: no cover - protocol stub


class LoadCollisionClass(enum.Enum):
    """The load taxonomy of Figure 1.

    A load is *conflicting* when, at schedule time, an older store with an
    unknown address exists in the scheduling window.  Conflicting loads
    split by actual collision status (AC = the store's address matches,
    ANC = it does not) crossed with the predictor's call (PC / PNC).
    """

    NOT_CONFLICTING = "not-conflicting"
    ANC_PC = "ANC-PC"  #: lost opportunity (predicted colliding, was not)
    ANC_PNC = "ANC-PNC"  #: correct: advanced safely
    AC_PC = "AC-PC"  #: correct: delayed a truly colliding load
    AC_PNC = "AC-PNC"  #: costly: advanced a colliding load (re-execution)

    @property
    def actually_colliding(self) -> bool:
        return self in (LoadCollisionClass.AC_PC, LoadCollisionClass.AC_PNC)

    @property
    def predicted_colliding(self) -> bool:
        return self in (LoadCollisionClass.ANC_PC, LoadCollisionClass.AC_PC)

    @property
    def correct(self) -> bool:
        return self in (LoadCollisionClass.ANC_PNC, LoadCollisionClass.AC_PC)


class HitMissClass(enum.Enum):
    """The hit-miss taxonomy of section 2.2 (AH/AM crossed with PH/PM)."""

    AH_PH = "AH-PH"  #: actual hit predicted hit: status quo
    AM_PM = "AM-PM"  #: miss caught by the predictor: the win
    AH_PM = "AH-PM"  #: false miss: dependent delayed by hit indication
    AM_PH = "AM-PH"  #: miss not caught: re-execution (today's behaviour)

    @classmethod
    def classify(cls, actual_hit: bool, predicted_hit: bool) -> "HitMissClass":
        if actual_hit:
            return cls.AH_PH if predicted_hit else cls.AH_PM
        return cls.AM_PH if predicted_hit else cls.AM_PM

    @property
    def correct(self) -> bool:
        return self in (HitMissClass.AH_PH, HitMissClass.AM_PM)

    @property
    def actual_hit(self) -> bool:
        return self in (HitMissClass.AH_PH, HitMissClass.AH_PM)

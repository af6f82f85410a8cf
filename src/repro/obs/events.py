"""The pipeline event bus.

Every interesting thing the simulated machine does — a uop renaming, an
issue, a squash, a wrong-ordering collision, a cache miss, a bank
conflict, a retirement, a predictor update — can be emitted as a typed
:class:`Event` on an :class:`EventBus`.  Sinks (JSONL logs, Chrome
traces, in-memory buffers) subscribe to the bus; analysis code replays
the stream instead of re-instrumenting the engine.

The design goal is *near-zero overhead when disabled*: instrumented
components hold an ``obs`` reference that defaults to ``None`` and guard
every emission with a single ``is not None`` test, so an un-observed run
pays one pointer comparison per hook point and allocates nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class EventKind:
    """The event taxonomy (string constants, not an enum, for speed).

    Core pipeline lifecycle
        ``RENAME``, ``ISSUE``, ``RETIRE`` — one per uop (``RETIRE``
        carries the full lifecycle cycles for trace rendering).
    Speculation outcomes
        ``SQUASH`` — a dependent issued before its producer's data
        existed (mirrors ``SimResult.squashed_issues``);
        ``COLLISION`` — a load paid the wrong-ordering penalty (mirrors
        ``SimResult.collision_penalties``);
        ``VIOLATION`` — a hidden AC-PNC ordering violation trapped;
        ``BANK_CONFLICT`` — two loads hit one L1 bank in a cycle
        (mirrors ``SimResult.bank_conflicts``);
        ``FORWARD`` — a load was served by store-to-load forwarding.
    Memory system
        ``MISS`` — an L1 data-cache miss, with the serving level.
    Bookkeeping
        ``STORE_TRACKED`` / ``STORE_DATA`` — a store entered the MOB /
        its STD arrived;
        ``PREDICTOR_UPDATE`` — any predictor family trained;
        ``FAULT`` — a :mod:`repro.robust` fault wrapper perturbed the
        machine (the chaos audit trail).
    Serving (:mod:`repro.serve`; ``cycle`` carries a microsecond
    monotonic timestamp instead of a simulated cycle)
        ``SERVE_ENQUEUE`` — a request was admitted to a shard queue
        (fields: ``shard``, ``depth``);
        ``SERVE_FLUSH`` — a shard flushed one micro-batch (fields:
        ``shard``, ``batch``, ``depth``, ``vectorized``);
        ``SERVE_REJECT`` — admission control turned a request away
        with a retry-after (fields: ``shard``, ``depth``);
        ``SERVE_DRAIN`` — a shard finished draining at shutdown
        (fields: ``shard``, ``served``);
        ``SERVE_DEGRADE`` — a vectorized-eligible run landed on the
        scalar loop (fields: ``shard``, ``session``, ``reason``) —
        emitted once per (session, reason) per shard, with the full
        count in shard stats;
        ``HOTTRACE_ABORT`` — a hot-trace guard failed and the window
        fell back to the normal path (fields: ``shard``, ``session``,
        ``guard``).
    Backend selection (:meth:`repro.engine.machine.Machine.run`)
        ``BACKEND_DEGRADE`` — an explicit ``backend="vectorized"``
        run fell back to the scalar reference loop, or a trace could
        not be expressed in the kernel's arrays (fields: ``reason``).
        A ``backend="auto"`` run of a configuration the kernel does
        not support emits none.
    """

    RENAME = "rename"
    ISSUE = "issue"
    RETIRE = "retire"
    SQUASH = "squash"
    COLLISION = "collision"
    VIOLATION = "violation"
    BANK_CONFLICT = "bank-conflict"
    FORWARD = "forward"
    MISS = "miss"
    STORE_TRACKED = "store-tracked"
    STORE_DATA = "store-data"
    PREDICTOR_UPDATE = "predictor-update"
    FAULT = "fault-injected"
    SERVE_ENQUEUE = "serve-enqueue"
    SERVE_FLUSH = "serve-flush"
    SERVE_REJECT = "serve-reject"
    SERVE_DRAIN = "serve-drain"
    SERVE_DEGRADE = "serve-degrade"
    HOTTRACE_ABORT = "hottrace-abort"
    BACKEND_DEGRADE = "backend-degrade"

    #: Every kind, in a stable presentation order.
    ALL = (RENAME, ISSUE, RETIRE, SQUASH, COLLISION, VIOLATION,
           BANK_CONFLICT, FORWARD, MISS, STORE_TRACKED, STORE_DATA,
           PREDICTOR_UPDATE, FAULT, SERVE_ENQUEUE, SERVE_FLUSH,
           SERVE_REJECT, SERVE_DRAIN, SERVE_DEGRADE, HOTTRACE_ABORT,
           BACKEND_DEGRADE)


class Event:
    """One emitted pipeline event.

    Attributes
    ----------
    kind:
        One of the :class:`EventKind` constants.
    cycle:
        Simulated cycle of the event (``-1`` when not meaningful).
    seq:
        Dynamic sequence number of the uop involved (``-1`` when the
        event is not tied to one uop).
    pc:
        Instruction pointer involved (``0`` when not meaningful).
    fields:
        Kind-specific payload (e.g. ``level`` for a miss, ``family``
        for a predictor update).
    """

    __slots__ = ("kind", "cycle", "seq", "pc", "fields")

    def __init__(self, kind: str, cycle: int, seq: int = -1, pc: int = 0,
                 fields: Optional[Dict[str, object]] = None) -> None:
        self.kind = kind
        self.cycle = cycle
        self.seq = seq
        self.pc = pc
        self.fields = fields if fields is not None else {}

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "cycle": self.cycle}
        if self.seq >= 0:
            out["seq"] = self.seq
        if self.pc:
            out["pc"] = self.pc
        out.update(self.fields)
        return out

    def __repr__(self) -> str:
        return (f"Event({self.kind!r}, cycle={self.cycle}, seq={self.seq}"
                + (f", {self.fields}" if self.fields else "") + ")")


#: A sink callback: receives every event it subscribed to.
EventCallback = Callable[[Event], None]


class EventBus:
    """Dispatches :class:`Event` objects to subscribed sinks.

    The bus always maintains per-kind counts (they are how the
    acceptance contract "event counts equal ``SimResult`` counters" is
    checked), and forwards each event to the callbacks subscribed to
    its kind plus the wildcard subscribers.
    """

    __slots__ = ("counts", "_by_kind", "_wildcard", "_sinks")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self._by_kind: Dict[str, List[EventCallback]] = {}
        self._wildcard: List[EventCallback] = []
        self._sinks: List[object] = []

    # -- subscription -------------------------------------------------------

    def subscribe(self, callback: EventCallback,
                  kind: Optional[str] = None) -> None:
        """Subscribe ``callback`` to ``kind`` (``None`` = every event)."""
        if kind is None:
            self._wildcard.append(callback)
        else:
            self._by_kind.setdefault(kind, []).append(callback)

    def attach(self, sink: object) -> object:
        """Subscribe a sink object exposing ``on_event(event)``.

        The sink is remembered so :meth:`close` can flush it; returns
        the sink for chaining.
        """
        self.subscribe(sink.on_event)  # type: ignore[attr-defined]
        self._sinks.append(sink)
        return sink

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, cycle: int, seq: int = -1, pc: int = 0,
             **fields: object) -> None:
        """Emit one event to counters and all interested subscribers."""
        self.counts[kind] = self.counts.get(kind, 0) + 1
        callbacks = self._by_kind.get(kind)
        if not callbacks and not self._wildcard:
            return
        event = Event(kind, cycle, seq, pc, fields if fields else None)
        if callbacks:
            for callback in callbacks:
                callback(event)
        for callback in self._wildcard:
            callback(event)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush/close every attached sink that supports it."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

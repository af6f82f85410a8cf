"""The machine-correctness oracle: event-stream invariant checking.

An :class:`InvariantChecker` subscribes (wildcard) to a
:class:`repro.obs.events.EventBus` and replays the machine's own event
stream against the recovery contract the paper's speculation techniques
depend on:

``retire-order``
    Uops retire in strict program order, each exactly once.
``conservation``
    Every renamed uop eventually retires (no uop is lost in flight),
    checked at :meth:`InvariantChecker.finish`.
``forward-from-older``
    Store-to-load forwarding only ever serves a load from an *older*
    store that the MOB is actually tracking.
``collision-squash`` / ``collision-replay``
    A visibly colliding load must be squashed and re-dispatched before
    it retires; a hidden (AC-PNC) collision must trap as an ordering
    violation, and the violated load must re-issue before retiring.
``mob-balance`` / ``mob-bound``
    Every STD links to a tracked STA exactly once, the number of
    tracked stores matches the number of retired STAs, and the MOB
    never holds more stores than the register pool can have in flight
    (a leaking MOB grows without bound and trips this).
``scheme-*``
    Per-scheme guarantees: schemes that wait for all older STAs
    (Traditional, Postponing) can never suffer a hidden ordering
    violation; the Perfect oracle can never collide at all.  The flags
    live on :class:`repro.engine.ordering.OrderingScheme`.

Violations raise (or, with ``strict=False``, collect) a structured
:class:`InvariantViolation` carrying the offending event and a ring
buffer of the most recent events for post-mortem debugging.

The checker is pure observer: it never mutates machine state, so an
instrumented run retires the identical uop stream as a bare one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.obs.events import Event, EventBus, EventKind


class InvariantViolation(RuntimeError):
    """A machine-correctness invariant was broken.

    Attributes
    ----------
    invariant:
        Stable identifier of the broken invariant (e.g.
        ``"forward-from-older"``) — the catalogue is documented in
        ``docs/robustness.md``.
    event:
        The event that exposed the violation (``None`` for end-of-run
        checks).
    window:
        The most recent events before (and including) the violation,
        oldest first — the post-mortem context.
    context:
        Invariant-specific details (seqs, counts, ...).
    """

    def __init__(self, invariant: str, message: str,
                 event: Optional[Event] = None,
                 window: Tuple[Event, ...] = (),
                 context: Optional[Dict[str, object]] = None) -> None:
        super().__init__(f"invariant {invariant!r} violated: {message}")
        self.invariant = invariant
        self.message = message
        self.event = event
        self.window = list(window)
        self.context = dict(context) if context else {}

    def post_mortem(self) -> str:
        """Human-readable dump of the event window for debugging."""
        lines = [f"invariant {self.invariant!r} violated: {self.message}"]
        if self.context:
            lines.append(f"context: {self.context}")
        if self.window:
            lines.append(f"last {len(self.window)} events:")
            lines.extend(f"  {event!r}" for event in self.window)
        return "\n".join(lines)


class InvariantChecker:
    """Asserts the machine's recovery contract over its event stream.

    Parameters
    ----------
    scheme:
        The machine's ordering scheme (optional).  When given, its
        ``never_violates`` / ``never_collides`` class flags enable the
        per-scheme invariants.
    config:
        The :class:`~repro.common.config.MachineConfig` (optional).
        When given, ``register_pool`` bounds the MOB occupancy check.
    window_size:
        Ring-buffer depth of recent events carried by violations.
    strict:
        ``True`` raises :class:`InvariantViolation` at the offending
        event; ``False`` collects violations in :attr:`violations` and
        keeps observing (useful for surveying a known-broken run).
    """

    def __init__(self, scheme=None, config=None,
                 window_size: int = 128, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[InvariantViolation] = []
        self._window: Deque[Event] = deque(maxlen=max(1, window_size))
        self._never_violates = bool(getattr(scheme, "never_violates", False))
        self._never_collides = bool(getattr(scheme, "never_collides", False))
        self._scheme_name = getattr(scheme, "name", None)
        self._mob_bound = getattr(config, "register_pool", None)
        # Shadow state reconstructed from the stream.
        self._renamed: Dict[int, str] = {}    # seq -> uop class name
        self._retired: Set[int] = set()
        self._last_retired = -1
        self._stas: Dict[int, bool] = {}      # sta_seq -> STD linked?
        self._needs_squash: Dict[int, int] = {}   # load seq -> cycle
        self._needs_violation: Set[int] = set()
        self._needs_replay: Set[int] = set()
        self._n_sta_retired = 0
        self.n_events = 0

    # -- plumbing -----------------------------------------------------------

    def attach(self, bus: EventBus) -> "InvariantChecker":
        """Subscribe to every event of ``bus``; returns self."""
        bus.subscribe(self.on_event)
        return self

    def _flag(self, invariant: str, message: str,
              event: Optional[Event] = None, **context: object) -> None:
        violation = InvariantViolation(invariant, message, event=event,
                                       window=tuple(self._window),
                                       context=context)
        if self.strict:
            raise violation
        self.violations.append(violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    def event_window(self) -> List[Event]:
        """The most recent events seen (oldest first)."""
        return list(self._window)

    # -- the observer -------------------------------------------------------

    def on_event(self, event: Event) -> None:
        self._window.append(event)
        self.n_events += 1
        kind = event.kind
        if kind == EventKind.RENAME:
            self._on_rename(event)
        elif kind == EventKind.ISSUE:
            self._needs_replay.discard(event.seq)
        elif kind == EventKind.RETIRE:
            self._on_retire(event)
        elif kind == EventKind.SQUASH:
            if event.fields.get("cause") == "collision":
                self._needs_squash.pop(event.seq, None)
        elif kind == EventKind.COLLISION:
            self._on_collision(event)
        elif kind == EventKind.VIOLATION:
            self._on_violation(event)
        elif kind == EventKind.FORWARD:
            self._on_forward(event)
        elif kind == EventKind.STORE_TRACKED:
            self._on_store_tracked(event)
        elif kind == EventKind.STORE_DATA:
            self._on_store_data(event)

    def _on_rename(self, event: Event) -> None:
        if event.seq in self._renamed:
            self._flag("rename-unique",
                       f"uop seq {event.seq} renamed twice", event)
            return
        self._renamed[event.seq] = str(event.fields.get("uclass", "?"))

    def _on_retire(self, event: Event) -> None:
        seq = event.seq
        if seq <= self._last_retired:
            self._flag("retire-order",
                       f"uop seq {seq} retired after seq "
                       f"{self._last_retired} — retirement must follow "
                       f"program order", event,
                       last_retired=self._last_retired)
        if self._renamed and seq not in self._renamed:
            self._flag("retire-unknown",
                       f"uop seq {seq} retired but was never renamed",
                       event)
        if seq in self._needs_squash:
            self._flag("collision-squash",
                       f"load seq {seq} collided visibly at cycle "
                       f"{self._needs_squash[seq]} but retired without a "
                       f"collision squash (broken recovery)", event,
                       collision_cycle=self._needs_squash[seq])
            self._needs_squash.pop(seq, None)
        if seq in self._needs_violation:
            self._flag("collision-replay",
                       f"load seq {seq} collided with a hidden store but "
                       f"retired without an ordering-violation trap",
                       event)
            self._needs_violation.discard(seq)
        if seq in self._needs_replay:
            self._flag("violation-replay",
                       f"load seq {seq} trapped on an ordering violation "
                       f"but retired without re-issuing", event)
            self._needs_replay.discard(seq)
        if self._renamed.get(seq) == "STA":
            self._n_sta_retired += 1
        self._retired.add(seq)
        self._last_retired = max(self._last_retired, seq)

    def _on_collision(self, event: Event) -> None:
        if self._never_collides:
            self._flag("scheme-collision",
                       f"scheme {self._scheme_name!r} guarantees no "
                       f"collisions but load seq {event.seq} collided",
                       event)
        if event.fields.get("visible"):
            self._needs_squash[event.seq] = event.cycle
        else:
            self._needs_violation.add(event.seq)

    def _on_violation(self, event: Event) -> None:
        if self._never_violates:
            self._flag("scheme-violation",
                       f"scheme {self._scheme_name!r} waits for all older "
                       f"STAs and can never suffer a hidden ordering "
                       f"violation, yet load seq {event.seq} trapped",
                       event)
        self._needs_violation.discard(event.seq)
        self._needs_replay.add(event.seq)

    def _on_forward(self, event: Event) -> None:
        store_seq = event.fields.get("store_seq")
        if store_seq is None:
            return  # pre-instrumentation emitter; nothing to check
        store_seq = int(store_seq)  # type: ignore[arg-type]
        if store_seq >= event.seq:
            self._flag("forward-from-older",
                       f"load seq {event.seq} was forwarded data from "
                       f"store seq {store_seq}, which is not older",
                       event, store_seq=store_seq)
        elif store_seq not in self._stas:
            self._flag("forward-untracked-store",
                       f"load seq {event.seq} was forwarded data from "
                       f"store seq {store_seq}, which the MOB never "
                       f"tracked", event, store_seq=store_seq)

    def _on_store_tracked(self, event: Event) -> None:
        if event.seq in self._stas:
            self._flag("mob-balance",
                       f"STA seq {event.seq} entered the MOB twice",
                       event)
            return
        self._stas[event.seq] = False
        depth = event.fields.get("mob_depth")
        if (self._mob_bound is not None and depth is not None
                and int(depth) > int(self._mob_bound)):  # type: ignore[arg-type]
            self._flag("mob-bound",
                       f"MOB holds {depth} stores but only "
                       f"{self._mob_bound} uops can be in flight — "
                       f"retired stores are leaking", event,
                       bound=self._mob_bound)

    def _on_store_data(self, event: Event) -> None:
        sta_seq = event.fields.get("sta_seq")
        if sta_seq is None:
            return
        sta_seq = int(sta_seq)  # type: ignore[arg-type]
        if sta_seq not in self._stas:
            self._flag("mob-balance",
                       f"STD seq {event.seq} linked to STA seq {sta_seq}, "
                       f"which the MOB never tracked", event,
                       sta_seq=sta_seq)
        elif self._stas[sta_seq]:
            self._flag("mob-balance",
                       f"STA seq {sta_seq} received two STD linkages",
                       event, sta_seq=sta_seq)
        else:
            self._stas[sta_seq] = True

    # -- end of run ---------------------------------------------------------

    def finish(self) -> List[InvariantViolation]:
        """Run the end-of-run balance checks; returns the violations
        collected so far (empty in strict mode unless checks pass)."""
        lost = set(self._renamed) - self._retired
        if lost:
            sample = sorted(lost)[:8]
            self._flag("conservation",
                       f"{len(lost)} renamed uop(s) never retired "
                       f"(first: {sample}) — uops were lost in flight",
                       lost=len(lost), sample=sample)
        n_sta_renamed = sum(1 for cls in self._renamed.values()
                            if cls == "STA")
        if len(self._stas) != n_sta_renamed:
            self._flag("mob-balance",
                       f"{n_sta_renamed} STAs renamed but "
                       f"{len(self._stas)} entered the MOB",
                       tracked=len(self._stas), renamed=n_sta_renamed)
        if self._n_sta_retired != n_sta_renamed:
            self._flag("mob-balance",
                       f"{n_sta_renamed} STAs renamed but "
                       f"{self._n_sta_retired} retired",
                       retired=self._n_sta_retired,
                       renamed=n_sta_renamed)
        return self.violations

    def summary(self) -> Dict[str, object]:
        """Machine-readable snapshot for manifests and reports."""
        return {
            "events_checked": self.n_events,
            "uops_renamed": len(self._renamed),
            "uops_retired": len(self._retired),
            "stores_tracked": len(self._stas),
            "violations": [
                {"invariant": v.invariant, "message": v.message,
                 "context": v.context}
                for v in self.violations
            ],
        }


def checked_run(machine, trace, max_cycles: Optional[int] = None,
                strict: bool = True, window_size: int = 128):
    """Run ``trace`` on ``machine`` under the invariant oracle.

    When the machine is un-instrumented, a private event bus is wired
    through every observable component for the duration of the run and
    fully unwired afterwards (the machine comes back exactly as it
    went in).  When the machine already carries an event bus, the
    checker simply subscribes to it.

    Returns ``(SimResult, InvariantChecker)``.  In strict mode the
    first violation raises :class:`InvariantViolation` (end-of-run
    balance checks included); otherwise inspect
    ``checker.violations``.
    """
    from repro.obs import instrument

    checker = InvariantChecker(scheme=machine.scheme,
                               config=machine.config,
                               window_size=window_size, strict=strict)
    own_bus = machine.obs is None
    if own_bus:
        targets = [machine, machine.hierarchy, machine.hmp,
                   machine.bank_predictor, machine.branch_predictor,
                   getattr(machine.scheme, "cht", None)]
        # (target, held its own ``obs``, its value); the bus also
        # rewrites the run's degrade record, which is restored too.
        saved = [(t, "obs" in getattr(t, "__dict__", ()),
                  getattr(t, "obs", None)) for t in targets
                 if t is not None]
        reason = machine.last_degrade_reason
        bus = instrument(machine, EventBus())
    else:
        bus = machine.obs
    checker.attach(bus)
    try:
        result = machine.run(trace, max_cycles=max_cycles)
    finally:
        if own_bus:
            for target, owned, previous in saved:
                target.obs = previous
                if not owned:  # an inherited default stays inherited
                    getattr(target, "__dict__", {}).pop("obs", None)
            machine.last_degrade_reason = reason
    checker.finish()
    return result, checker

"""Hot-trace memoized replay: speculate / guard / commit / abort.

Production traffic is repetitive: the serve tier re-runs the same
per-session step windows constantly (the Zipf load model makes a few
sessions absorb most of the traffic, and converged predictors answer a
repeated window from the same state).  This module applies the paper's
own speculate-verify-recover discipline to the simulator itself — the
trace-based speculation structure of SNIPPETS.md Snippet 3, transplanted
from guarded straight-line code to guarded predictor-state transitions.
Every shard runs it; there is no switch and no tuning knob.

The unit of speculation is one *step window*: a same-session run of
``step`` events flowing through
:func:`repro.serve.batch.execute_step_arrays_ex` — either a coalesced
micro-batch run or a ``replay`` trace-window op.  The executor packs
the window's ``(pcs, outcomes, distances)`` lanes once into one
little-endian int64 block (:func:`repro.serve.batch.pack_lanes`); the
kernel reads that block and this module keys on its bytes.  Predictor
stepping is a deterministic function of (state, window), so the
transition is memoizable::

    key   = (digest(pre_state), hash(lanes))
    value = (lanes, results, pickle(post_state), digest(post_state))

A lookup hit *speculates* that this session will repeat its hot trace.
The guards that must pass before the precomputed answer is committed:

* **state guard** — the session predictor's state digest equals the
  captured pre-state digest (drifted state aborts);
* **lane guard** — the window's lane bytes are *exactly* the captured
  ones (equal bytes mean equal lanes, so a lane-hash collision aborts
  instead of answering wrongly);
* **spec guard** — the session's spec kind is the captured one
  (a session rebuilt under a different spec aborts);
* **commit guard** — the captured post-state must rehydrate
  (``pickle.loads``); a mid-commit failure (the serving analogue of a
  mid-trace squash) aborts with the session state untouched.

Commit is atomic by construction: the new predictor object is fully
built *before* the single reference swap, so any guard or rehydration
failure leaves the session's predictor exactly as it was and execution
falls through to the scalar/vectorized path — zero predictor-state
corruption, the property the negative-guard battery in
``tests/serve/test_hottrace_guards.py`` pins byte-for-byte against a
never-speculated shadow oracle.

Steady state is cheap through *digest chaining*: a capture or commit
leaves the session's current state digest known, so the next window's
pre-state digest costs nothing (no pickling) until a non-window
mutation (a lone ``update`` op, a short run, a restore) invalidates
it.  At a converged fixed point ``pre == post`` and a hit skips
rehydration entirely — the window answers from one dict probe.

Under an armed invariant oracle (``ExecutionPolicy.invariants_active``)
every hit is checked before its commit by the oracle that also checks
kernel runs (:func:`repro.api.policy.shadow_check`): a divergence
counts ``abort_mismatch`` and raises
:class:`~repro.api.policy.ShadowMismatch`, with the session untouched.
"""

from __future__ import annotations

import hashlib
import pickle
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Sightings of a window before it counts as hot.  The sighting after
#: them is executed and captured, the next one can hit.  A capture
#: pickles the predictor and stores a post-state, so capturing on the
#: first repeat would pay that for windows that recur only once; three
#: sightings keep captures for windows that really recur.
HOT_THRESHOLD = 3
#: Shortest window worth memoizing, equal to the serve tier's default
#: ``min_kernel_run``: on the vectorized backend a memoized window is
#: one the kernel runs, so the lane block is packed once for both.
#: Shorter runs save only a few scalar steps per hit, and single fresh
#: steps never enter the heat table.
MIN_TRACE_LEN = 8
#: Captured traces kept per session, least recently hit evicted first.
#: A 256-step capture is ~6 KB of lanes plus one pickled post-state;
#: 512 bounds one session's memo while holding far more distinct
#: (state, window) edges than a recurring workload cycles through.
MAX_TRACES = 512
#: Window hashes whose heat one session tracks before the coldest half
#: is shed.  Heat, unlike captures, is approximate bookkeeping:
#: dropping a cold entry only delays a capture.
MAX_HEAT_ENTRIES = 4 * MAX_TRACES
#: Undrained abort records kept when no shard drains them.
MAX_ABORT_EVENTS = 1024

#: Digest width for state fingerprints.  16 bytes keeps the
#: accidental-collision probability negligible at serve-tier scales.
_DIGEST_SIZE = 16


def state_fingerprint(predictor: object) -> Optional[Tuple[bytes, bytes]]:
    """``(state_bytes, digest)`` of a predictor, None if unpicklable."""
    try:
        raw = pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # pragma: no cover - exotic predictor state
        return None
    return raw, hashlib.blake2b(raw, digest_size=_DIGEST_SIZE).digest()


def _compact(results: Sequence[int]) -> Union["array[int]", Tuple[int, ...]]:
    """A window's results in one byte each (predictions, ``-1`` and
    small bank indices fit), or a tuple for values that do not."""
    try:
        return array("b", results)
    except OverflowError:
        return tuple(results)


@dataclass
class CapturedTrace:
    """One memoized (pre-state, window) -> (results, post-state) edge."""

    spec_kind: str
    pre_digest: bytes
    lanes: bytes
    results: Union["array[int]", Tuple[int, ...]]
    post_state: bytes
    post_digest: bytes
    hits: int = 0


@dataclass
class HotTraceCounters:
    """Aggregate effectiveness/abort accounting, exported verbatim
    through shard stats -> service/fleet stats -> metrics -> top."""

    windows: int = 0        #: step windows inspected (len >= min)
    hot_windows: int = 0    #: windows past the heat threshold
    lookups: int = 0        #: memo probes attempted
    hits: int = 0           #: guarded replays committed
    steps_saved: int = 0    #: per-step executions skipped by hits
    captures: int = 0       #: traces recorded
    aborts: int = 0         #: guard failures (any class)
    abort_state: int = 0    #: ... pre-state digest drift
    abort_lanes: int = 0    #: ... pc/outcome/distance lane mismatch
    abort_spec: int = 0     #: ... spec kind changed under the session
    abort_commit: int = 0   #: ... post-state failed to rehydrate
    evictions: int = 0      #: captured traces dropped by the LRU cap
    abort_mismatch: int = 0 #: oracle divergences (must stay zero)

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in (
            "windows", "hot_windows", "lookups", "hits", "steps_saved",
            "captures", "aborts", "abort_state", "abort_lanes",
            "abort_spec", "abort_commit", "evictions", "abort_mismatch")}

    def merge(self, other: Dict[str, int]) -> None:
        for k, v in other.items():
            if hasattr(self, k):
                setattr(self, k, getattr(self, k) + int(v))


@dataclass
class SessionTraceState:
    """Per-session recording state.

    Lives on the :class:`~repro.serve.session.Session` object (a slot
    excluded from ``state_dict``), so close / restore / migration
    naturally reset it — captured traces never travel between
    processes, they are re-learned where the traffic lands.
    """

    #: Known digest of the predictor's *current* state, or None when a
    #: mutation happened outside the windowed path (digest chaining).
    state_digest: Optional[bytes] = None
    #: Lane hash -> sightings (stops counting at the threshold).
    heat: Dict[int, int] = field(default_factory=dict)
    #: (pre_digest, lane hash) -> captured trace, insertion-ordered
    #: for eviction.
    traces: "OrderedDict[Tuple[bytes, int], CapturedTrace]" = field(
        default_factory=OrderedDict)


class HotTraceEngine:
    """One shard's recording/replay engine (single-writer, no locks).

    The engine owns the counters; per-session state hangs off the
    sessions themselves.
    """

    def __init__(self) -> None:
        self.counters = HotTraceCounters()
        #: Guard class of the most recent abort ("state" / "lanes" /
        #: "spec" / "commit").
        self.last_abort: Optional[str] = None
        #: Undrained ``(session_id, guard)`` abort records, one per
        #: abort, in order — the shard drains these into obs events so
        #: every abort is attributed to the session that aborted.
        self.abort_events: List[Tuple[str, str]] = []

    # -- session state ---------------------------------------------------

    @staticmethod
    def state_for(session) -> SessionTraceState:
        st = session.hottrace
        if st is None:
            st = SessionTraceState()
            session.hottrace = st
        return st

    @staticmethod
    def note_mutation(session) -> None:
        """Out-of-band predictor mutation (lone update op, short run,
        restore): break the digest chain so stale captures can never
        match."""
        st = session.hottrace
        if st is not None:
            st.state_digest = None

    # -- the speculate/guard/commit/abort cycle --------------------------

    def try_replay(self, session, lanes: bytes,
                   check: bool = False) -> Optional[List[int]]:
        """Attempt a guarded memoized replay of one step window.

        ``lanes`` is the window's packed lane block
        (:func:`repro.serve.batch.pack_lanes`, at least
        :data:`MIN_TRACE_LEN` steps); ``check`` arms the shadow oracle
        on a hit.  Returns the committed results on a hit, or
        ``None`` — meaning the caller must execute the window through
        the normal path and offer it back via :meth:`record` with the
        same ``lanes``.  ``None`` also covers every abort: by the time
        this returns, the session's predictor is untouched unless a
        commit succeeded.
        """
        c = self.counters
        c.windows += 1
        st = self.state_for(session)

        wh = hash(lanes)
        heat = st.heat.get(wh, 0)
        if heat < HOT_THRESHOLD:
            # Cold window: one dict increment, nothing else.
            if len(st.heat) >= MAX_HEAT_ENTRIES:
                self._shed_heat(st)
            st.heat[wh] = heat + 1
            return None
        c.hot_windows += 1

        pre = st.state_digest
        if pre is None:
            fp = state_fingerprint(session.predictor)
            if fp is None:
                return None  # unpicklable state: never speculate
            pre = fp[1]
            st.state_digest = pre

        key = (pre, wh)
        trace = st.traces.get(key)
        if trace is None:
            return None  # hot but uncaptured from this state: record
        c.lookups += 1

        # -- guards (any failure: abort, drop the stale capture) --------
        if trace.spec_kind != session.spec.kind:
            self._abort(session, st, key, "spec")
            return None
        if trace.pre_digest != pre:  # pragma: no cover - keyed by pre
            self._abort(session, st, key, "state")
            return None
        if trace.lanes != lanes:
            self._abort(session, st, key, "lanes")
            return None

        # -- commit (atomic: build fully, then one reference swap) ------
        if trace.post_digest == pre:
            new_predictor = session.predictor  # converged fixed point
        else:
            try:
                new_predictor = pickle.loads(trace.post_state)
            except Exception:
                # Mid-commit squash: session state untouched.
                self._abort(session, st, key, "commit")
                return None

        if check:
            self._shadow_check(session, lanes, trace, new_predictor)

        session.predictor = new_predictor
        st.state_digest = trace.post_digest
        trace.hits += 1
        c.hits += 1
        c.steps_saved += len(trace.results)
        st.traces.move_to_end(key)
        return list(trace.results)

    def record(self, session, lanes: bytes, results: Sequence[int]) -> None:
        """Capture a just-executed window as a replayable trace if it
        is hot.

        ``lanes`` is the block the paired :meth:`try_replay` missed
        with.  The pre-state is the chained digest that probe left
        (None when unknown — then nothing is captured, but the chain
        is still broken or re-anchored as the window demands)."""
        st = self.state_for(session)
        wh = hash(lanes)
        pre_digest = st.state_digest
        if st.heat.get(wh, 0) < HOT_THRESHOLD or pre_digest is None:
            # Not hot (or heat was shed): the window still mutated the
            # predictor, so break the chain.
            st.state_digest = None
            return
        fp = state_fingerprint(session.predictor)
        if fp is None:
            st.state_digest = None
            return
        post_state, post_digest = fp
        st.traces[(pre_digest, wh)] = CapturedTrace(
            spec_kind=session.spec.kind,
            pre_digest=pre_digest,
            lanes=lanes,
            results=_compact(results),
            post_state=post_state,
            post_digest=post_digest)
        st.state_digest = post_digest
        self.counters.captures += 1
        while len(st.traces) > MAX_TRACES:
            st.traces.popitem(last=False)
            self.counters.evictions += 1

    # -- internals -------------------------------------------------------

    def _shadow_check(self, session, lanes: bytes, trace: CapturedTrace,
                      new_predictor: object) -> None:
        """Check a hit's results and to-be-committed predictor against
        a scalar replay of the window from the current state."""
        from repro.api.policy import ShadowMismatch, shadow_check
        from repro.serve.batch import scalar_steps, unpack_lanes
        window = unpack_lanes(lanes)
        try:
            shadow_check(
                session.predictor,
                lambda p: (list(trace.results), new_predictor),
                lambda p: (scalar_steps(session.family, p, *window), p),
                f"session {session.session_id!r} ({session.spec.kind}): "
                "hot-trace hit",
                observe=lambda value: value[0],
                state=lambda subject, value: value[1])
        except ShadowMismatch:
            self.counters.abort_mismatch += 1
            raise

    def drain_abort_events(self) -> List[Tuple[str, str]]:
        """Return (and clear) the undrained ``(session_id, guard)``
        abort records accumulated since the last drain."""
        events, self.abort_events = self.abort_events, []
        return events

    def _abort(self, session, st: SessionTraceState,
               key: Tuple[bytes, int], kind: str) -> None:
        c = self.counters
        c.aborts += 1
        setattr(c, f"abort_{kind}", getattr(c, f"abort_{kind}") + 1)
        self.last_abort = kind
        if len(self.abort_events) < MAX_ABORT_EVENTS:
            self.abort_events.append((session.session_id, kind))
        st.traces.pop(key, None)  # stale capture: re-learn

    @staticmethod
    def _shed_heat(st: SessionTraceState) -> None:
        """Drop the coldest half of the heat table (bound memory)."""
        keep = sorted(st.heat.items(), key=lambda kv: kv[1],
                      reverse=True)[: MAX_HEAT_ENTRIES // 2]
        st.heat = dict(keep)

"""Negative-guard battery: every abort leaves zero state corruption.

Each test drives a speculating session into a state where a captured
trace is *stale or poisoned*, forces the guarded replay down one abort
path (state drift, lane/addr mismatch, spec change, mid-trace squash),
and proves the session's predictor ends
byte-identical — canonicalized pickle equality — to a shadow-oracle
twin that never speculated at all.  The ISSUE's zero-tolerance
abort-correctness property, pinned per guard class.

Positive paths and service wiring live in ``test_hottrace.py``; an
oracle divergence on a hit is ``tests/fastpath/test_shadow.py``'s.
"""

import pytest

from repro.api import canonical_state, spec_for
from repro.fastpath.hottrace import HOT_THRESHOLD, MIN_TRACE_LEN, HotTraceEngine
from repro.serve.batch import (
    VIA_HOTTRACE,
    apply_update,
    execute_step_arrays_ex,
    pack_lanes,
    scalar_steps,
    unpack_lanes,
)
from repro.serve.session import Session

SPEC = spec_for("binary.gshare", history=4)


def window(outcome, n=MIN_TRACE_LEN, pc=0x40):
    return [pc] * n, [outcome] * n, [-1] * n


def execute(engine, session, lanes, check=False):
    pcs, outcomes, distances = lanes
    return execute_step_arrays_ex(session, pcs, outcomes, distances,
                                  "reference", 8, engine, check)[:2]


def shadow_execute(twin, lanes):
    pcs, outcomes, distances = lanes
    return scalar_steps(twin.family, twin.predictor, pcs, outcomes,
                        distances)


def state_bytes(session):
    return canonical_state(session.predictor)


def converge(engine, session, twin, lanes_fn, check=False):
    """Drive the same window until the memo hits (fixed point): the
    heat sightings, the capture, then one hit."""
    for _ in range(HOT_THRESHOLD + 2):
        lanes = lanes_fn()
        results, via = execute(engine, session, lanes, check)
        assert results == shadow_execute(twin, lanes)
    assert via == VIA_HOTTRACE
    return via


def hitting_trace(session):
    """The (sole) captured trace the converged session replays."""
    traces = [t for t in session.hottrace.traces.values() if t.hits > 0]
    assert len(traces) == 1
    return traces[0]


def assert_aborted_cleanly(engine, session, twin, kind, lanes):
    """One post-abort contract for every guard class: the abort is
    counted and classified, the stale capture is dropped, the window
    still answered correctly through the normal path, and the
    predictor is byte-identical to the never-speculated twin."""
    c = engine.counters
    before = (c.aborts, getattr(c, f"abort_{kind}"), c.hits)
    results, via = execute(engine, session, lanes)
    assert via != VIA_HOTTRACE
    assert results == shadow_execute(twin, lanes)
    assert state_bytes(session) == state_bytes(twin)
    assert c.aborts == before[0] + 1
    assert getattr(c, f"abort_{kind}") == before[1] + 1
    assert c.hits == before[2]
    assert engine.last_abort == kind
    assert c.abort_mismatch == 0


def test_lane_mismatch_aborts_without_corruption():
    # A window-digest collision delivering *different* lanes must be
    # caught by the exact-lane guard, not answered from the memo.
    engine = HotTraceEngine()
    session, twin = Session("s", SPEC), Session("t", SPEC)
    converge(engine, session, twin, lambda: window(1))
    trace = hitting_trace(session)
    # Simulate the collision: the capture's lanes are not the ones the
    # (identically hashed) incoming window carries.
    pcs, outcomes, distances = unpack_lanes(trace.lanes)
    trace.lanes = pack_lanes(pcs, [1 - o for o in outcomes], distances)
    assert_aborted_cleanly(engine, session, twin, "lanes", window(1))
    # The poisoned capture was dropped; the window re-captures and
    # hits again.
    lanes = window(1)
    results, via = execute(engine, session, lanes)
    assert results == shadow_execute(twin, lanes)
    lanes = window(1)
    results, via = execute(engine, session, lanes)
    assert via == VIA_HOTTRACE
    assert results == shadow_execute(twin, lanes)
    assert state_bytes(session) == state_bytes(twin)


def test_spec_change_aborts_without_corruption():
    engine = HotTraceEngine()
    session, twin = Session("s", SPEC), Session("t", SPEC)
    converge(engine, session, twin, lambda: window(1))
    # A capture from "another spec's life" (session rebuilt under a
    # different scheme) must never answer this session's windows.
    hitting_trace(session).spec_kind = "binary.bimodal"
    assert_aborted_cleanly(engine, session, twin, "spec", window(1))


def test_mid_trace_squash_commit_abort():
    # The serving analogue of a mid-trace squash: the committed
    # post-state fails to materialize.  Needs a NON-fixed-point trace
    # (a fixed-point hit never rehydrates), so use the period-2
    # alternating cycle and poison one edge's post_state.
    engine = HotTraceEngine()
    session, twin = Session("s", SPEC), Session("t", SPEC)
    via = None
    while via != VIA_HOTTRACE:
        for outcome in (1, 0):
            lanes = window(outcome)
            results, via = execute(engine, session, lanes)
            assert results == shadow_execute(twin, lanes)
    # Poison every rehydrating edge (the other steady-state edge may
    # not have hit yet but will on the next round).
    poisoned = [t for t in session.hottrace.traces.values()
                if t.post_digest != t.pre_digest]
    assert any(t.hits > 0 for t in poisoned)
    for trace in poisoned:
        trace.post_state = b"\x80\x05not a pickle"
    # Whichever poisoned edge comes up next must squash cleanly.
    aborts_before = engine.counters.abort_commit
    for outcome in (1, 0):
        lanes = window(outcome)
        results, via = execute(engine, session, lanes)
        assert via != VIA_HOTTRACE
        assert results == shadow_execute(twin, lanes)
        assert state_bytes(session) == state_bytes(twin)
    assert engine.counters.abort_commit > aborts_before
    assert engine.last_abort == "commit"
    assert engine.counters.abort_mismatch == 0


def test_state_drift_is_a_miss_not_a_wrong_answer():
    # An out-of-band mutation between capture and the next occurrence:
    # the pre-state digest no longer matches, so the stale capture
    # must simply never be found — no hit, no corruption.
    engine = HotTraceEngine()
    session, twin = Session("s", SPEC), Session("t", SPEC)
    converge(engine, session, twin, lambda: window(1))
    hits_before = engine.counters.hits
    # Drift both predictors identically, the way a shard's lone
    # `update` op does it: direct apply + note_mutation.
    apply_update(session.family, session.predictor, 0x48, 0)
    apply_update(twin.family, twin.predictor, 0x48, 0)
    HotTraceEngine.note_mutation(session)
    assert session.hottrace.state_digest is None
    lanes = window(1)
    results, via = execute(engine, session, lanes)
    assert via != VIA_HOTTRACE
    assert results == shadow_execute(twin, lanes)
    assert state_bytes(session) == state_bytes(twin)
    assert engine.counters.hits == hits_before
    # Drift is not a guard failure: the memo was never probed with a
    # matching key, so nothing aborts.
    assert engine.counters.abort_state == 0


def _fail_update_after(predictor, n):
    """Shadow the predictor's ``update`` with one that dies after ``n``
    successful calls — a window that mutates partway, then raises."""
    real = predictor.update
    calls = {"n": 0}

    def flaky(pc, outcome, *args, **kwargs):
        if calls["n"] >= n:
            raise RuntimeError("window died mid-flight")
        calls["n"] += 1
        return real(pc, outcome, *args, **kwargs)

    predictor.update = flaky


def test_mid_window_exception_breaks_digest_chain():
    # Regression: a window that raises partway through execution (after
    # mutating the predictor) never reaches record(), so the chained
    # digest used to keep describing the *pre-window* state.  The next
    # occurrence of a hot window then guard-passed against the stale
    # capture and answered stale results from drifted state.  The
    # executor must break the chain on ANY mid-window exception.
    engine = HotTraceEngine()
    session, twin = Session("s", SPEC), Session("t", SPEC)
    converge(engine, session, twin, lambda: window(1))
    assert session.hottrace.state_digest is not None

    for sess in (session, twin):
        _fail_update_after(sess.predictor, 3)
    lanes = window(0, pc=0x44)
    with pytest.raises(RuntimeError, match="mid-flight"):
        execute(engine, session, lanes)
    with pytest.raises(RuntimeError, match="mid-flight"):
        shadow_execute(twin, lanes)
    for sess in (session, twin):
        del sess.predictor.update  # restore the real bound method

    # The fix: the chain is broken, so the engine re-fingerprints the
    # true (drifted) state instead of trusting the stale digest.
    assert session.hottrace.state_digest is None
    for _ in range(3):
        lanes = window(1)
        results, via = execute(engine, session, lanes)
        assert results == shadow_execute(twin, lanes)
        assert state_bytes(session) == state_bytes(twin)
    assert engine.counters.abort_mismatch == 0


def test_abort_events_attribute_the_aborting_session():
    # The shard drains (session_id, guard) records into obs events:
    # one per abort, attributed to the session that aborted — not the
    # session that happened to be executing at drain time.
    engine = HotTraceEngine()
    pairs = [(Session("a", SPEC), Session("ta", SPEC)),
             (Session("b", SPEC), Session("tb", SPEC))]
    for session, twin in pairs:
        converge(engine, session, twin, lambda: window(1))
        hitting_trace(session).spec_kind = "binary.bimodal"
    for session, twin in pairs:
        lanes = window(1)
        results, via = execute(engine, session, lanes)
        assert via != VIA_HOTTRACE
        assert results == shadow_execute(twin, lanes)
    assert engine.drain_abort_events() == [("a", "spec"), ("b", "spec")]
    assert engine.drain_abort_events() == []


def test_unpicklable_predictor_never_speculates():
    engine = HotTraceEngine()
    session, twin = Session("s", SPEC), Session("t", SPEC)
    converge(engine, session, twin, lambda: window(1))

    class Unpicklable:
        def __reduce__(self):
            raise TypeError("no pickling")

    session.predictor.poison = Unpicklable()
    HotTraceEngine.note_mutation(session)
    captures_before = engine.counters.captures
    hits_before = engine.counters.hits
    for _ in range(3):
        lanes = window(1)
        results, via = execute(engine, session, lanes)
        assert via != VIA_HOTTRACE
        assert results == shadow_execute(twin, lanes)
    assert engine.counters.captures == captures_before
    assert engine.counters.hits == hits_before

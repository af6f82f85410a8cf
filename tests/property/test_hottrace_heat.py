"""Property tests for hot-trace heat/capture bookkeeping.

The replay engine's correctness story is carried by the guard battery
(``tests/serve/test_hottrace_guards.py``); what hypothesis pins here
is the *bookkeeping* that keeps the engine bounded and honest under
arbitrary window streams:

* heat counting saturates at the hot threshold (no unbounded counts);
* the heat table never exceeds its shed bound, and shedding keeps the
  hottest entries;
* captured traces never exceed the trace cap, and the
  captures/evictions ledger matches the table;
* counter monotonicity: ``hits <= lookups <= hot_windows <= windows``.

Windows run through the real batch executor on a real session, so the
recorded results are the predictor's own and an armed invariant oracle
(``REPRO_CHECK_INVARIANTS=1``) shadow-checks every kernel run and hit.
Small trace caps come from patching the module constant.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, spec_for
from repro.fastpath import hottrace
from repro.fastpath.hottrace import (
    HOT_THRESHOLD,
    MIN_TRACE_LEN,
    HotTraceEngine,
    SessionTraceState,
)
from repro.serve.batch import execute_step_arrays_ex
from repro.serve.session import Session

SPEC = spec_for("binary.gshare", history=2)

#: Streams of window identities: small alphabet so repeats (and thus
#: heat/captures) actually happen, long enough to cross thresholds.
streams = st.lists(st.integers(min_value=0, max_value=30),
                   min_size=1, max_size=120)

trace_caps = st.integers(min_value=1, max_value=6)


def lanes_for(window_id, n=MIN_TRACE_LEN):
    return [window_id] * n, [window_id % 2] * n, [-1] * n


def drive(engine, stream):
    """Feed the stream through the batch executor the way a shard
    does, under the process-default policy; returns the session."""
    policy = ExecutionPolicy()
    backend = policy.resolved_backend()
    session = Session("p", SPEC)
    for window_id in stream:
        pcs, outcomes, distances = lanes_for(window_id)
        execute_step_arrays_ex(session, pcs, outcomes, distances, backend,
                               8, engine, policy.invariants_active())
    return session


@given(stream=streams, cap=trace_caps)
@settings(max_examples=80, deadline=None)
def test_heat_saturates_and_tables_stay_bounded(stream, cap):
    engine = HotTraceEngine()
    with patch.object(hottrace, "MAX_TRACES", cap):
        session = drive(engine, stream)
    state = session.hottrace
    assert all(count <= HOT_THRESHOLD for count in state.heat.values())
    assert len(state.heat) <= hottrace.MAX_HEAT_ENTRIES
    assert len(state.traces) <= cap


@given(stream=streams, cap=trace_caps)
@settings(max_examples=80, deadline=None)
def test_capture_eviction_ledger_matches_table(stream, cap):
    engine = HotTraceEngine()
    with patch.object(hottrace, "MAX_TRACES", cap):
        session = drive(engine, stream)
    c = engine.counters
    # No aborts are possible in this stream (nothing mutates a session
    # outside its windows), so the LRU is the only way captures leave
    # the table.
    assert c.aborts == 0
    assert c.captures - c.evictions == len(session.hottrace.traces)


@given(stream=streams, cap=trace_caps)
@settings(max_examples=80, deadline=None)
def test_counter_monotonicity(stream, cap):
    engine = HotTraceEngine()
    with patch.object(hottrace, "MAX_TRACES", cap):
        drive(engine, stream)
    c = engine.counters
    assert c.hits <= c.lookups <= c.hot_windows <= c.windows
    assert c.windows == len(stream)
    assert c.steps_saved == MIN_TRACE_LEN * c.hits
    assert c.abort_mismatch == 0


@given(counts=st.dictionaries(
    st.integers(),
    st.integers(min_value=0, max_value=10),
    min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_shed_keeps_the_hottest_half(counts):
    state = SessionTraceState()
    state.heat = dict(counts)
    with patch.object(hottrace, "MAX_HEAT_ENTRIES", 64):
        HotTraceEngine._shed_heat(state)
    assert len(state.heat) <= 64 // 2
    if state.heat:
        kept_min = min(state.heat.values())
        dropped = [v for k, v in counts.items() if k not in state.heat]
        # Nothing dropped was strictly hotter than anything kept.
        assert all(v <= kept_min for v in dropped)
        assert max(state.heat.values()) == max(counts.values())

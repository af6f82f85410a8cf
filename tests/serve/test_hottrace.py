"""Hot-trace replay: the speculate/guard/commit happy path.

Engine-level tests drive :class:`repro.fastpath.hottrace.
HotTraceEngine` through the real batch executor
(:func:`repro.serve.batch.execute_step_arrays_ex`) and compare every
outcome against a *shadow twin* — an identical session executed
scalar-only, no speculation — so a hit is only a hit if results AND
post-state are byte-identical to never having speculated at all.
Service/fleet-level tests pin the wiring: policy in, counters out
through stats, metrics and ``aggregate_hottrace``.

The negative battery (guard aborts, squashes, drift) lives next door
in ``test_hottrace_guards.py``.
"""

import asyncio
import pickle

from repro.api import ExecutionPolicy, spec_for
from repro.fastpath.hottrace import HotTraceEngine, _canonical_state
from repro.serve import PredictRequest, PredictionService, ServeConfig
from repro.serve.batch import (
    VIA_HOTTRACE,
    VIA_SCALAR,
    execute_step_arrays_ex,
    replay_digest,
    scalar_steps,
)
from repro.serve.service import aggregate_hottrace
from repro.serve.session import Session

SPEC = spec_for("binary.gshare", history=4)

#: Capture on the second sighting, memoize anything >= 4 steps — small
#: thresholds so tests converge in a handful of windows.
POLICY = ExecutionPolicy(backend="reference", hottrace=True,
                         hot_threshold=1, min_trace_len=4)


def run(coro):
    return asyncio.run(coro)


def window(outcome, n=8, pc=0x40):
    """Fresh lane lists for one repeated-(pc, outcome) step window."""
    return [pc] * n, [outcome] * n, [-1] * n


def execute(engine, session, lanes):
    pcs, outcomes, distances = lanes
    return execute_step_arrays_ex(session, pcs, outcomes, distances,
                                  "reference", 8, engine)


def state_bytes(session):
    """Canonicalized predictor-state bytes: a committed hit replaces
    the predictor with a rehydrated object whose *raw* pickle can
    differ from a same-state original (interning-induced sharing), so
    equality is judged on the normalized encoding."""
    return _canonical_state(pickle.dumps(
        session.predictor, protocol=pickle.HIGHEST_PROTOCOL))


def make_pair():
    """(speculating session, never-speculating shadow twin)."""
    return Session("s", SPEC), Session("shadow", SPEC)


def shadow_execute(twin, lanes):
    pcs, outcomes, distances = lanes
    return scalar_steps(twin.family, twin.predictor, pcs, outcomes,
                        distances)


# -- engine-level ---------------------------------------------------------


def test_repeated_window_converges_to_hits():
    engine = HotTraceEngine(POLICY)
    session, twin = make_pair()
    vias = []
    for _ in range(6):
        lanes = window(1)
        results, via = execute(engine, session, lanes)
        assert results == shadow_execute(twin, lanes)
        assert state_bytes(session) == state_bytes(twin)
        vias.append(via)
    # Run 1 heats, run 2 captures, run 3+ replays from the memo: the
    # all-taken window saturates the counters, so post == pre and
    # every later occurrence is a fixed-point hit.
    assert vias[0] == VIA_SCALAR and vias[1] == VIA_SCALAR
    assert vias[2:] == [VIA_HOTTRACE] * 4
    c = engine.counters
    assert c.windows == 6 and c.captures == 1
    assert c.hits == 4 and c.steps_saved == 4 * 8
    assert c.aborts == 0 and c.abort_mismatch == 0


def test_fixed_point_hit_skips_rehydration():
    engine = HotTraceEngine(POLICY)
    session, _ = make_pair()
    for _ in range(3):
        execute(engine, session, window(1))
    st = session.hottrace
    (trace,) = st.traces.values()
    assert trace.post_digest == trace.pre_digest
    before = session.predictor
    results, via = execute(engine, session, window(1))
    assert via == VIA_HOTTRACE
    # Converged fixed point: the hit answers without building a new
    # predictor object at all.
    assert session.predictor is before


def test_alternating_windows_cycle_through_distinct_traces():
    engine = HotTraceEngine(POLICY)
    session, twin = make_pair()
    hits = 0
    for round_ in range(8):
        for outcome in (1, 0):
            lanes = window(outcome)
            results, via = execute(engine, session, lanes)
            assert results == shadow_execute(twin, lanes)
            assert state_bytes(session) == state_bytes(twin)
            hits += via == VIA_HOTTRACE
    # The pre-convergence transient captures some edges that never
    # recur, but the period-2 steady state replays exactly two of them
    # every round.
    hit_traces = [t for t in session.hottrace.traces.values()
                  if t.hits > 0]
    assert len(hit_traces) == 2
    assert hits >= 6
    # These are NOT fixed points: each hit rehydrates the other state.
    for trace in hit_traces:
        assert trace.post_digest != trace.pre_digest
    assert engine.counters.abort_mismatch == 0


def test_armed_oracle_shadow_checks_every_hit():
    engine = HotTraceEngine(POLICY.replace(check_invariants="on"))
    session, twin = make_pair()
    for _ in range(5):
        lanes = window(1)
        results, via = execute(engine, session, lanes)
        assert results == shadow_execute(twin, lanes)
        assert state_bytes(session) == state_bytes(twin)
    assert engine.counters.hits >= 2
    assert engine.counters.abort_mismatch == 0


def test_short_windows_are_never_memoized():
    engine = HotTraceEngine(POLICY)
    session, twin = make_pair()
    for _ in range(6):
        lanes = window(1, n=POLICY.min_trace_len - 1)
        results, via = execute(engine, session, lanes)
        assert via == VIA_SCALAR
        assert results == shadow_execute(twin, lanes)
    c = engine.counters
    assert c.windows == 0 and c.captures == 0 and c.hits == 0
    # ... but the short runs still mutated the predictor, so the
    # digest chain must not pretend to know the state.
    assert session.hottrace.state_digest is None


def test_short_window_between_hot_ones_breaks_then_relearns():
    engine = HotTraceEngine(POLICY)
    session, twin = make_pair()
    for _ in range(3):
        lanes = window(1)
        execute(engine, session, lanes)
        shadow_execute(twin, lanes)
    assert engine.counters.hits == 1
    # A short (unmemoizable) run invalidates the chain; correctness
    # must survive and the hot window must become hittable again.
    lanes = window(0, n=4)
    shadow_execute(twin, lanes)
    execute(engine, session, lanes)
    for _ in range(3):
        lanes = window(1)
        results, via = execute(engine, session, lanes)
        assert results == shadow_execute(twin, lanes)
        assert state_bytes(session) == state_bytes(twin)
    assert engine.counters.hits >= 2
    assert engine.counters.abort_mismatch == 0


def test_lru_cap_evicts_oldest_traces():
    engine = HotTraceEngine(POLICY.replace(max_traces=2))
    session, twin = make_pair()
    # Three distinct hot windows from a rotating state: more captures
    # than the cap allows.
    for _ in range(3):
        for pc in (0x40, 0x44, 0x48):
            lanes = window(1, pc=pc)
            results, _ = execute(engine, session, lanes)
            assert results == shadow_execute(twin, lanes)
    assert len(session.hottrace.traces) <= 2
    assert engine.counters.evictions >= 1
    assert state_bytes(session) == state_bytes(twin)


def test_window_digest_memo_retired_on_hit():
    # The one-shot window-digest memo (keyed by lane-object identity)
    # must not outlive its try_replay/record pair: a hit never reaches
    # record(), so the hit path retires it — otherwise a later record()
    # with recycled list ids could reuse a wrong cached digest.
    engine = HotTraceEngine(POLICY)
    session, _ = make_pair()
    for _ in range(3):
        _, via = execute(engine, session, window(1))
    assert via == VIA_HOTTRACE
    st = session.hottrace
    assert st.wd_token is None and st.wd_cache is None
    # invalidate() (out-of-band mutation, mid-window exception) drops
    # an in-flight memo too: probe without the paired record(), then
    # invalidate.
    pcs, outcomes, distances = window(0, pc=0x44)
    assert engine.try_replay(session, pcs, outcomes, distances) is None
    assert st.wd_token is not None
    HotTraceEngine.note_mutation(session)
    assert st.wd_token is None and st.wd_cache is None


def test_note_mutation_invalidates_chain():
    engine = HotTraceEngine(POLICY)
    session, _ = make_pair()
    for _ in range(3):
        execute(engine, session, window(1))
    assert session.hottrace.state_digest is not None
    HotTraceEngine.note_mutation(session)
    assert session.hottrace.state_digest is None
    # Harmless on a session that never speculated.
    HotTraceEngine.note_mutation(Session("fresh", SPEC))


def test_counters_round_trip_and_merge():
    engine = HotTraceEngine(POLICY)
    session, _ = make_pair()
    for _ in range(4):
        execute(engine, session, window(1))
    block = engine.counters.as_dict()
    assert block["hits"] == 2 and block["captures"] == 1
    other = HotTraceEngine(POLICY)
    other.counters.merge(block)
    other.counters.merge(block)
    assert other.counters.hits == 4
    assert other.counters.steps_saved == 2 * block["steps_saved"]


def test_aggregate_hottrace_sums_blocks():
    assert aggregate_hottrace([{"served": 1}, {"served": 2}]) is None
    total = aggregate_hottrace([
        {"hottrace": {"hits": 2, "windows": 5}},
        {"served": 9},
        {"hottrace": {"hits": 1, "windows": 3, "aborts": 1}},
    ])
    assert total == {"hits": 3, "windows": 8, "aborts": 1}


# -- service integration --------------------------------------------------


def _replay_request(sid, seq, outcome=1, n=8):
    return PredictRequest(sid, op="replay", seq=seq, pcs=[0x40] * n,
                          outcomes=[outcome] * n, distances=None)


def test_service_replay_windows_hit_and_export_counters():
    async def main():
        config = ServeConfig(n_shards=1, policy=POLICY)
        async with PredictionService(config) as service:
            await service.open_session("s", SPEC)
            digests = []
            for seq in range(6):
                r = await service.request(_replay_request("s", seq))
                assert r.ok
                digests.append(r.result)
            # Window 0 runs from an unsaturated predictor; from window
            # 1 on the state is converged and every occurrence — the
            # executed capture and all the memoized hits — must answer
            # the same digest.
            assert len(set(digests[1:])) == 1
            totals = service.stats()["totals"]
            block = totals["hottrace"]
            assert block["hits"] >= 3
            assert block["abort_mismatch"] == 0
            assert block["batches"] >= block["hits"]
            snap = service.metrics_registry().snapshot()
            assert snap["serve.hottrace.hits"] == block["hits"]
            assert snap["serve.hottrace.abort_mismatch"] == 0
    run(main())


def test_service_results_identical_with_hottrace_on_and_off():
    async def drive(policy):
        config = ServeConfig(n_shards=1, policy=policy)
        async with PredictionService(config) as service:
            await service.open_session("s", SPEC)
            out = []
            seq = 0
            for outcome in (1, 1, 1, 0, 1, 0, 1, 1):
                r = await service.request(
                    _replay_request("s", seq, outcome=outcome))
                assert r.ok
                out.append(r.result)
                seq += 1
                # Interleave lone update ops: out-of-band mutations the
                # engine must survive via chain invalidation.
                u = await service.request(PredictRequest(
                    "s", op="update", pc=0x44, outcome=outcome, seq=seq))
                assert u.ok
                seq += 1
            return out

    async def main():
        off = await drive(ExecutionPolicy(backend="reference"))
        on = await drive(POLICY)
        assert on == off

    run(main())


def test_fleet_policy_travels_and_stats_aggregate(tmp_path):
    from repro.serve.fleet import ServeFleet

    async def main():
        async with ServeFleet(n_workers=1,
                              config=ServeConfig(n_shards=1,
                                                 policy=POLICY),
                              state_dir=str(tmp_path)) as fleet:
            assert fleet.config.policy is POLICY
            await fleet.open_session("s", SPEC)
            for seq in range(5):
                r = await fleet.request(_replay_request("s", seq))
                assert r.ok
            # Live counters come back over the control channel; the
            # worker is still running, so without a poll there is no
            # final report to aggregate.
            await fleet.poll_stats()
            assert fleet.stats()["config"]["serve"]["backend"] == \
                "reference"
            block = fleet.stats()["totals"]["hottrace"]
            assert block["hits"] >= 2
            assert block["abort_mismatch"] == 0
            snap = fleet.metrics_registry().snapshot()
            assert snap["fleet.hottrace.hits"] == block["hits"]
    run(main())


def test_service_without_hottrace_has_no_counter_block():
    async def main():
        config = ServeConfig(n_shards=1,
                             policy=ExecutionPolicy(backend="reference"))
        async with PredictionService(config) as service:
            await service.open_session("s", SPEC)
            r = await service.request(_replay_request("s", 0))
            assert r.ok
            assert "hottrace" not in service.stats()["totals"]
            snap = service.metrics_registry().snapshot()
            assert not any(k.startswith("serve.hottrace")
                           for k in snap)
    run(main())

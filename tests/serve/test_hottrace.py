"""Hot-trace replay: the speculate/guard/commit happy path.

Engine-level tests drive :class:`repro.fastpath.hottrace.
HotTraceEngine` through the real batch executor
(:func:`repro.serve.batch.execute_step_arrays_ex`) and compare every
outcome against a *shadow twin* — an identical session executed
scalar-only, no speculation — so a hit is only a hit if results AND
post-state are byte-identical to never having speculated at all.
Service/fleet-level tests pin the wiring: every shard speculates,
counters come out through stats, metrics and ``aggregate_hottrace``.

The negative battery (guard aborts, squashes, drift) lives next door
in ``test_hottrace_guards.py``.
"""

import asyncio
from unittest.mock import patch

from repro.api import ExecutionPolicy, canonical_state, spec_for
from repro.fastpath import hottrace
from repro.fastpath.hottrace import (
    HOT_THRESHOLD,
    MIN_TRACE_LEN,
    HotTraceEngine,
)
from repro.serve import PredictRequest, PredictionService, ServeConfig
from repro.serve.batch import (
    VIA_HOTTRACE,
    VIA_SCALAR,
    apply_update,
    execute_step_arrays_ex,
    replay_digest,
    scalar_steps,
)
from repro.serve.service import aggregate_hottrace
from repro.serve.session import Session

SPEC = spec_for("binary.gshare", history=4)

POLICY = ExecutionPolicy(backend="reference")

#: Executions of one window before its first possible hit: the heat
#: sightings, then the capture.
WARM = HOT_THRESHOLD + 1


def run(coro):
    return asyncio.run(coro)


def window(outcome, n=MIN_TRACE_LEN, pc=0x40):
    """Fresh lane lists for one repeated-(pc, outcome) step window."""
    return [pc] * n, [outcome] * n, [-1] * n


def execute(engine, session, lanes, check=False):
    pcs, outcomes, distances = lanes
    return execute_step_arrays_ex(session, pcs, outcomes, distances,
                                  "reference", 8, engine, check)[:2]


def state_bytes(session):
    """Canonicalized predictor-state bytes: a committed hit replaces
    the predictor with a rehydrated object whose *raw* pickle can
    differ from a same-state original (interning-induced sharing), so
    equality is judged on the normalized encoding."""
    return canonical_state(session.predictor)


def make_pair():
    """(speculating session, never-speculating shadow twin)."""
    return Session("s", SPEC), Session("shadow", SPEC)


def shadow_execute(twin, lanes):
    pcs, outcomes, distances = lanes
    return scalar_steps(twin.family, twin.predictor, pcs, outcomes,
                        distances)


# -- engine-level ---------------------------------------------------------


def test_repeated_window_converges_to_hits():
    engine = HotTraceEngine()
    session, twin = make_pair()
    vias = []
    for _ in range(WARM + 4):
        lanes = window(1)
        results, via = execute(engine, session, lanes)
        assert results == shadow_execute(twin, lanes)
        assert state_bytes(session) == state_bytes(twin)
        vias.append(via)
    # The first HOT_THRESHOLD runs heat, the next captures, the rest
    # replay from the memo: the all-taken window saturates the
    # counters, so post == pre and every later occurrence is a
    # fixed-point hit.
    assert vias[:WARM] == [VIA_SCALAR] * WARM
    assert vias[WARM:] == [VIA_HOTTRACE] * 4
    c = engine.counters
    assert c.windows == WARM + 4 and c.captures == 1
    assert c.hits == 4 and c.steps_saved == 4 * MIN_TRACE_LEN
    assert c.aborts == 0 and c.abort_mismatch == 0


def test_fixed_point_hit_skips_rehydration():
    engine = HotTraceEngine()
    session, _ = make_pair()
    for _ in range(WARM + 1):
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
    engine = HotTraceEngine()
    session, twin = make_pair()
    hits = 0
    for round_ in range(HOT_THRESHOLD + 8):
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
    engine = HotTraceEngine()
    session, twin = make_pair()
    for _ in range(WARM + 2):
        lanes = window(1)
        results, via = execute(engine, session, lanes, check=True)
        assert results == shadow_execute(twin, lanes)
        assert state_bytes(session) == state_bytes(twin)
    assert engine.counters.hits >= 2
    assert engine.counters.abort_mismatch == 0


def test_short_windows_are_never_memoized():
    engine = HotTraceEngine()
    session, twin = make_pair()
    for _ in range(WARM + 2):
        lanes = window(1, n=MIN_TRACE_LEN - 1)
        results, via = execute(engine, session, lanes)
        assert via == VIA_SCALAR
        assert results == shadow_execute(twin, lanes)
    c = engine.counters
    assert c.windows == 0 and c.captures == 0 and c.hits == 0
    # ... but the short runs still mutated the predictor, so the
    # digest chain must not pretend to know the state (short runs
    # never even allocate recording state).
    assert session.hottrace is None
    execute(engine, session, window(1))
    execute(engine, session, window(1, n=MIN_TRACE_LEN - 1))
    assert session.hottrace.state_digest is None


def test_short_window_between_hot_ones_breaks_then_relearns():
    engine = HotTraceEngine()
    session, twin = make_pair()
    for _ in range(WARM + 1):
        lanes = window(1)
        execute(engine, session, lanes)
        shadow_execute(twin, lanes)
    assert engine.counters.hits == 1
    # A short (unmemoizable) run invalidates the chain; correctness
    # must survive and the hot window must become hittable again.
    lanes = window(0, n=MIN_TRACE_LEN // 2)
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
    engine = HotTraceEngine()
    session, twin = make_pair()
    # Three distinct hot windows from a rotating state: more captures
    # than the cap allows.
    with patch.object(hottrace, "MAX_TRACES", 2):
        for _ in range(HOT_THRESHOLD + 3):
            for pc in (0x40, 0x44, 0x48):
                lanes = window(1, pc=pc)
                results, _ = execute(engine, session, lanes)
                assert results == shadow_execute(twin, lanes)
    assert len(session.hottrace.traces) <= 2
    assert engine.counters.evictions >= 1
    assert state_bytes(session) == state_bytes(twin)


def test_lanes_outside_int64_execute_scalar():
    # The lane block is int64; a wider value (the wire protocol does
    # not range-check) must neither fail the window nor enter the memo.
    engine = HotTraceEngine()
    session, twin = make_pair()
    for _ in range(WARM + 1):
        lanes = window(1, pc=2 ** 64 + 0x40)
        results, via = execute(engine, session, lanes)
        assert via == VIA_SCALAR
        assert results == shadow_execute(twin, lanes)
    assert engine.counters.windows == 0


def test_note_mutation_invalidates_chain():
    engine = HotTraceEngine()
    session, _ = make_pair()
    for _ in range(WARM + 1):
        execute(engine, session, window(1))
    assert session.hottrace.state_digest is not None
    HotTraceEngine.note_mutation(session)
    assert session.hottrace.state_digest is None
    # Harmless on a session that never speculated.
    HotTraceEngine.note_mutation(Session("fresh", SPEC))


def test_counters_round_trip_and_merge():
    engine = HotTraceEngine()
    session, _ = make_pair()
    for _ in range(WARM + 2):
        execute(engine, session, window(1))
    block = engine.counters.as_dict()
    assert block["hits"] == 2 and block["captures"] == 1
    other = HotTraceEngine()
    other.counters.merge(block)
    other.counters.merge(block)
    assert other.counters.hits == 4
    assert other.counters.steps_saved == 2 * block["steps_saved"]


def test_aggregate_hottrace_sums_blocks():
    assert aggregate_hottrace([]) == {}
    total = aggregate_hottrace([
        {"served": 4, "hottrace": {"hits": 2, "windows": 5}},
        {"served": 9, "hottrace": {"hits": 0, "windows": 0}},
        {"hottrace": {"hits": 1, "windows": 3, "aborts": 1}},
    ])
    assert total == {"hits": 3, "windows": 8, "aborts": 1}


# -- service integration --------------------------------------------------


def _replay_request(sid, seq, outcome=1, n=MIN_TRACE_LEN):
    return PredictRequest(sid, op="replay", seq=seq, pcs=[0x40] * n,
                          outcomes=[outcome] * n, distances=None)


def test_service_replay_windows_hit_and_export_counters():
    async def main():
        config = ServeConfig(n_shards=1, policy=POLICY)
        async with PredictionService(config) as service:
            await service.open_session("s", SPEC)
            digests = []
            for seq in range(WARM + 3):
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
            snap = service.metrics_registry().snapshot()
            assert snap["serve.hottrace.hits"] == block["hits"]
            assert snap["serve.hottrace.abort_mismatch"] == 0
    run(main())


def test_service_results_identical_with_hottrace_on_and_off():
    """The speculating service ("on") answers exactly what a scalar
    replay of the same op stream that never speculates ("off")
    answers, across lone update ops that break the digest chain."""
    outcomes = (1, 1, 1, 0, 1, 0, 1, 1) + (1,) * (WARM + 2)

    async def served():
        config = ServeConfig(n_shards=1, policy=POLICY)
        async with PredictionService(config) as service:
            await service.open_session("s", SPEC)
            out = []
            seq = 0
            for outcome in outcomes:
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
            return out, service.stats()["totals"]["hottrace"]

    def replayed():
        twin = Session("off", SPEC)
        out = []
        for outcome in outcomes:
            pcs, outs, distances = window(outcome)
            out.append(replay_digest(shadow_execute(twin, (pcs, outs,
                                                            distances))))
            apply_update(twin.family, twin.predictor, 0x44, outcome)
        return out

    on, block = run(served())
    assert on == replayed()
    # The all-taken tail converges, so the comparison covers hits.
    assert block["hits"] >= 1


def test_fleet_policy_travels_and_stats_aggregate(tmp_path):
    from repro.serve.fleet import ServeFleet

    async def main():
        async with ServeFleet(n_workers=1,
                              config=ServeConfig(n_shards=1,
                                                 policy=POLICY),
                              state_dir=str(tmp_path)) as fleet:
            assert fleet.config.policy is POLICY
            await fleet.open_session("s", SPEC)
            for seq in range(WARM + 2):
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


def test_service_always_exports_counter_block():
    # Every shard runs a hot-trace engine, so the counter block is in
    # the totals and the metrics from the first request on.
    async def main():
        config = ServeConfig(n_shards=2, policy=POLICY)
        async with PredictionService(config) as service:
            await service.open_session("s", SPEC)
            r = await service.request(_replay_request("s", 0))
            assert r.ok
            block = service.stats()["totals"]["hottrace"]
            assert block["windows"] == 1 and block["hits"] == 0
            assert all("hottrace" in shard
                       for shard in service.stats()["shards"])
            snap = service.metrics_registry().snapshot()
            assert snap["serve.hottrace.windows"] == 1
            assert snap["serve.hottrace.abort_mismatch"] == 0
    run(main())

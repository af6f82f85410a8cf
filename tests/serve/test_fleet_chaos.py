"""Chaos battery: crashes must be unobservable too.

Every test drives a real fleet through a seeded failure — a worker
killed *mid-batch* by its fault plan, a hard SIGKILL under load, a
router restart — and asserts the two invariants the WAL design
promises:

* **zero lost accepted requests**: every future returned by ``submit``
  resolves ``ok``, across any number of worker deaths;
* **no duplicate state updates**: after recovery, each session's
  predictor state is *bit-identical* (pickled bytes) to a shadow
  scalar oracle that applied the same stream exactly once — a replayed
  record that trained twice, or a dropped one, flips table bytes and
  fails the comparison.

Failures are seeded and deterministic (``FleetFaultPlan`` travels to
the worker and triggers on its served-request counter, not on a
timer), so a red run reproduces.
"""

import asyncio

import pytest

from repro.api import build_predictor
from repro.robust.faults import FleetFaultPlan
from repro.serve import PredictRequest
from repro.serve.batch import apply_step
from repro.serve.fleet import ServeFleet
from tests.serve.helpers import (
    CONFIG,
    SPEC,
    assert_states_match_oracle,
    drive,
    fleet_session_states,
    scalar_oracle,
    step_stream,
)


def _chaos_run(tmp_path, plan, run_tag):
    """One seeded kill-mid-batch run; returns (results, states, stats)."""
    workload = {f"c{i:02d}": step_stream(500 + i, 80) for i in range(12)}

    async def main():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path / run_tag),
                              fault_plan=plan) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            results = await drive(fleet, workload)
            await fleet.wait_all_live()
            states = await fleet_session_states(fleet)
            return results, states, fleet.stats()["totals"]

    return workload, *asyncio.run(main())


@pytest.mark.slow
def test_seeded_kill_mid_batch_zero_lost_exactly_once(tmp_path):
    """Worker 0 dies after its 64th executed request — inside a batch,
    with futures outstanding.  Recovery must answer everything and
    train nothing twice."""
    plan = FleetFaultPlan(seed=9, kill_workers=(0,), kill_after_served=64)
    workload, results, states, totals = _chaos_run(tmp_path, plan, "a")
    assert totals["worker_deaths"] == 1
    assert totals["recoveries"] == 1
    for sid, steps in workload.items():
        assert results[sid] == scalar_oracle(steps)
    assert_states_match_oracle(states, workload)


@pytest.mark.slow
def test_seeded_chaos_is_deterministic(tmp_path):
    """Same plan, same seed, fresh fleet: byte-identical response
    streams and final states both times."""
    plan = FleetFaultPlan(seed=9, kill_workers=(0,), kill_after_served=64)
    _, results1, states1, totals1 = _chaos_run(tmp_path, plan, "r1")
    _, results2, states2, totals2 = _chaos_run(tmp_path, plan, "r2")
    assert results1 == results2
    assert states1 == states2
    assert totals1["worker_deaths"] == totals2["worker_deaths"] == 1


def test_hard_kill_under_load_zero_lost(tmp_path):
    """SIGKILL (no fault plan, no cooperation from the worker) while a
    wave of requests is outstanding."""
    workload = {f"h{i:02d}": step_stream(700 + i, 60) for i in range(10)}

    async def main():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            futures = {sid: [] for sid in workload}
            for sid, steps in workload.items():
                for i, (pc, outcome) in enumerate(steps):
                    futures[sid].append(fleet.submit(PredictRequest(
                        sid, op="step", pc=pc, outcome=outcome, seq=i)))
            # Kill while those futures are in flight.
            await fleet.kill_worker(fleet.worker_names[0])
            results = {}
            for sid, fs in futures.items():
                responses = await asyncio.gather(*fs)
                assert all(r.ok for r in responses)
                results[sid] = [r.result for r in responses]
            await fleet.wait_all_live()
            states = await fleet_session_states(fleet)
            return results, states, fleet.stats()["totals"]

    results, states, totals = asyncio.run(main())
    assert totals["worker_deaths"] >= 1
    for sid, steps in workload.items():
        assert results[sid] == scalar_oracle(steps)
    assert_states_match_oracle(states, workload)


@pytest.mark.slow
def test_router_restart_replays_wal_exactly_once(tmp_path):
    """Phase 1 trains sessions and stops mid-life (snapshots + WAL on
    disk).  A fresh router adopts the manifest and rebuilds workers by
    snapshot + full WAL replay; the recovered state must equal the
    exactly-once oracle and traffic must continue seamlessly."""
    workload = {f"p{i:02d}": step_stream(900 + i, 50) for i in range(8)}

    async def phase1():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            return await drive(
                fleet, {sid: s[:25] for sid, s in workload.items()})

    async def phase2():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            await fleet.wait_all_live()
            states = await fleet_session_states(fleet)
            tail = await drive(
                fleet, {sid: s[25:] for sid, s in workload.items()},
                seq0=25)
            return states, tail

    head = asyncio.run(phase1())
    states, tail = asyncio.run(phase2())
    assert_states_match_oracle(
        states, {sid: s[:25] for sid, s in workload.items()})
    for sid, steps in workload.items():
        assert head[sid] + tail[sid] == scalar_oracle(steps)


@pytest.mark.slow
def test_kill_during_replay_windows(tmp_path):
    """The replay op crosses the crash boundary too: windows accepted
    before a kill are re-executed from the WAL with the same digest."""
    from repro.serve.batch import replay_digest

    plan = FleetFaultPlan(seed=5, kill_workers=(0, 1),
                          kill_after_served=6)
    sessions = {f"w{i}": step_stream(40 + i, 64) for i in range(6)}

    async def main():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path),
                              fault_plan=plan) as fleet:
            for sid in sessions:
                await fleet.open_session(sid, SPEC)
            futures = {}
            for sid, steps in sessions.items():
                futures[sid] = [
                    fleet.submit(PredictRequest(
                        sid, op="replay", seq=k,
                        pcs=tuple(pc for pc, _ in steps[k * 16:
                                                       (k + 1) * 16]),
                        outcomes=tuple(o for _, o in steps[k * 16:
                                                           (k + 1) * 16])))
                    for k in range(4)]
            digests = {}
            for sid, fs in futures.items():
                responses = await asyncio.gather(*fs)
                assert all(r.ok for r in responses), [
                    r.error for r in responses if not r.ok][:3]
                digests[sid] = [r.result for r in responses]
            await fleet.wait_all_live()
            return digests, fleet.stats()["totals"]

    digests, totals = asyncio.run(main())
    assert totals["worker_deaths"] >= 1, "the fault plan never fired"
    for sid, steps in sessions.items():
        predictor = build_predictor(SPEC)
        want = [replay_digest([
            apply_step(SPEC.family, predictor, pc, outcome)
            for pc, outcome in steps[k * 16:(k + 1) * 16]])
            for k in range(4)]
        assert digests[sid] == want

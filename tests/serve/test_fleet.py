"""ServeFleet core behaviour: routing, durability, elasticity.

These tests run real worker subprocesses (small fleets, short
workloads).  The heavier end-to-end suites live next door:
``test_fleet_differential.py`` (semantics vs the single process) and
``test_fleet_chaos.py`` (kill/restart recovery).
"""

import asyncio
import json
import pickle

import pytest

from repro.api import build_predictor
from repro.serve import PredictRequest
from repro.serve.batch import replay_digest
from repro.serve.fleet import FleetError, ServeFleet
from repro.serve.protocol import ERR_BAD_REQUEST, ERR_CLOSED
from repro.serve.snapshot import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    save_snapshot,
    snapshot_path,
)
from tests.serve.helpers import (
    CONFIG,
    SPEC,
    drive,
    scalar_oracle,
    step_stream,
)


def test_fleet_serves_sessions_and_matches_scalar_oracle(tmp_path):
    workload = {f"s{i}": step_stream(40 + i, 60) for i in range(6)}

    async def main():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            owners = {fleet.owner_of(sid) for sid in workload}
            results = await drive(fleet, workload)
            stats = fleet.stats()
            return results, owners, stats

    results, owners, stats = asyncio.run(main())
    for sid, steps in workload.items():
        assert results[sid] == scalar_oracle(steps)
    assert owners <= {"w0", "w1"}
    totals = stats["totals"]
    assert totals["workers"] == 2 and totals["workers_alive"] == 2
    assert totals["sessions"] == len(workload)
    assert totals["served"] == 6 * 60
    assert totals["worker_deaths"] == 0


def test_replay_window_digest_matches_local_execution(tmp_path):
    steps = step_stream(99, 128)
    pcs = tuple(pc for pc, _ in steps)
    outcomes = tuple(o for _, o in steps)

    async def main():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            await fleet.open_session("trace", SPEC)
            response = await fleet.request(PredictRequest(
                "trace", op="replay", pcs=pcs, outcomes=outcomes, seq=0))
            assert response.ok, response.error
            return response.result, fleet.stats()["totals"]["served"]

    digest, served = asyncio.run(main())
    assert digest == replay_digest(scalar_oracle(steps))
    # The router counts answered *requests*; the per-step accounting
    # (session.served += window) happens inside the worker.
    assert served == 1


def test_duplicate_inflight_seq_is_rejected(tmp_path):
    async def main():
        async with ServeFleet(n_workers=1, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            await fleet.open_session("dup", SPEC)
            first = fleet.submit(PredictRequest(
                "dup", op="step", pc=0x400, outcome=1, seq=5))
            second = fleet.submit(PredictRequest(
                "dup", op="step", pc=0x404, outcome=0, seq=5))
            return await asyncio.gather(first, second)

    first, second = asyncio.run(main())
    assert first.ok
    assert not second.ok and second.error == ERR_BAD_REQUEST


def test_stopped_fleet_rejects_cleanly(tmp_path):
    async def main():
        fleet = ServeFleet(n_workers=1, config=CONFIG,
                           state_dir=str(tmp_path))
        await fleet.start(recover=False)
        await fleet.stop()
        response = await fleet.submit(PredictRequest(
            "late", op="step", pc=0x400, outcome=1, seq=0))
        return response

    response = asyncio.run(main())
    assert not response.ok and response.error == ERR_CLOSED


@pytest.mark.slow
def test_resize_migrates_only_remapped_sessions_and_keeps_state(tmp_path):
    """Grow 2→3 mid-life: moved counts stay a minority (consistent
    hashing), every session keeps its trained state, and traffic
    continues correctly on the new topology."""
    workload = {f"m{i:03d}": step_stream(7 * i, 30) for i in range(40)}

    async def main():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            first = await drive(
                fleet, {sid: steps[:15] for sid, steps in workload.items()})
            moves = await fleet.resize(3)
            assert moves["workers"] == 3 and moves["added"] == 1
            assert 0 < moves["sessions_moved"] < len(workload)
            assert len(fleet.worker_names) == 3
            second = await drive(
                fleet, {sid: steps[15:] for sid, steps in workload.items()},
                seq0=15)
            stats = fleet.stats()
            return first, second, stats

    first, second, stats = asyncio.run(main())
    for sid, steps in workload.items():
        assert first[sid] + second[sid] == scalar_oracle(steps), (
            f"{sid} lost trained state across the resize")
    assert stats["totals"]["rebalances"] == 1
    assert stats["totals"]["sessions"] == len(workload)


@pytest.mark.slow
def test_resize_shrink_retires_workers(tmp_path):
    workload = {f"k{i:03d}": step_stream(3 * i, 10) for i in range(20)}

    async def main():
        async with ServeFleet(n_workers=3, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            await drive(fleet, {sid: s[:5] for sid, s in workload.items()})
            moves = await fleet.resize(2)
            assert moves["workers"] == 2 and moves["retired"] == 1
            tail = await drive(
                fleet, {sid: s[5:] for sid, s in workload.items()}, seq0=5)
            return tail

    tail = asyncio.run(main())
    for sid, steps in workload.items():
        assert tail[sid] == scalar_oracle(steps)[5:]


@pytest.mark.slow
def test_router_restart_recovers_sessions_from_disk(tmp_path):
    """Stop the router, start a fresh one on the same state_dir: the
    manifest + snapshots + WALs rebuild every session with its trained
    state."""
    workload = {f"r{i}": step_stream(11 * i, 24) for i in range(8)}

    async def phase1():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            return await drive(
                fleet, {sid: s[:12] for sid, s in workload.items()})

    async def phase2():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            await fleet.wait_all_live()
            stats = fleet.stats()
            tail = await drive(
                fleet, {sid: s[12:] for sid, s in workload.items()},
                seq0=12)
            return tail, stats

    head = asyncio.run(phase1())
    tail, stats = asyncio.run(phase2())
    assert stats["totals"]["sessions"] == len(workload)
    for sid, steps in workload.items():
        assert head[sid] + tail[sid] == scalar_oracle(steps)


def test_wal_is_bounded_by_snapshot_truncation(tmp_path):
    """wal_limit is a bound, not a suggestion: a long workload must
    leave the logs truncated behind persisted snapshots."""
    n_steps = 900
    workload = {"hot": step_stream(1, n_steps)}

    async def main():
        async with ServeFleet(n_workers=1, config=CONFIG,
                              state_dir=str(tmp_path),
                              wal_limit=128) as fleet:
            await fleet.open_session("hot", SPEC)
            results = await drive(fleet, workload)
            # Let any snapshot kicked off by the last flush finish.
            for _ in range(50):
                if fleet.stats()["totals"]["wal_records"] <= 256:
                    break
                await asyncio.sleep(0.02)
            return results, fleet.stats()["totals"]["wal_records"]

    results, wal_records = asyncio.run(main())
    assert results["hot"] == scalar_oracle(workload["hot"])
    assert wal_records < n_steps, "nothing was ever truncated"
    assert wal_records <= 256, f"WAL unbounded: {wal_records} records"
    snap = load_snapshot(str(tmp_path), "snap-w0")
    assert snap is not None and snap["schema"] == SNAPSHOT_SCHEMA
    # Stored as the opaque blob the worker's shard encoded.
    blob = snap["sessions"]["hot"]
    assert isinstance(blob, bytes)
    state = pickle.loads(blob)
    assert state["served"] <= n_steps and state["spec"] == SPEC.to_json_dict()


def test_start_refuses_a_schema_1_snapshot(tmp_path):
    """A schema-1 snapshot (live predictor objects) is not read: start()
    names the file instead of recovering without it, which would drop
    the sessions whose WAL prefix it already replaced."""
    (tmp_path / "fleet.json").write_text(
        json.dumps({"schema": 1, "workers": ["w0"]}))
    save_snapshot(str(tmp_path), "snap-w0", {
        "schema": 1,
        "sessions": {"old": {"spec": SPEC.to_json_dict(),
                             "predictor": build_predictor(SPEC),
                             "served": 3}}})
    fleet = ServeFleet(n_workers=1, config=CONFIG, state_dir=str(tmp_path))
    with pytest.raises(FleetError) as info:
        asyncio.run(fleet.start())
    assert snapshot_path(str(tmp_path), "snap-w0") in str(info.value)
    assert "schema 1" in str(info.value)
    assert not fleet.workers  # refused before anything was spawned


def test_start_refuses_a_schema_2_snapshot(tmp_path):
    """Schema-2 blobs pickled tables of per-cell counter objects, which
    the flat-table predictors cannot use: start() names the file and
    spawns nothing, the same rule as for schema 1."""
    (tmp_path / "fleet.json").write_text(
        json.dumps({"schema": 1, "workers": ["w0"]}))
    blob = pickle.dumps({"spec": SPEC.to_json_dict(),
                         "predictor": build_predictor(SPEC), "served": 3})
    save_snapshot(str(tmp_path), "snap-w0",
                  {"schema": 2, "sessions": {"old": blob}})
    fleet = ServeFleet(n_workers=1, config=CONFIG, state_dir=str(tmp_path))
    with pytest.raises(FleetError) as info:
        asyncio.run(fleet.start())
    assert snapshot_path(str(tmp_path), "snap-w0") in str(info.value)
    assert "schema 2" in str(info.value)
    assert not fleet.workers

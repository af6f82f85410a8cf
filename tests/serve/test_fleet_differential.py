"""The fleet differential: process distribution must be unobservable.

Mirror of ``test_differential.py`` one level up the topology: the same
shuffled concurrent workload submitted to the single-process
:class:`PredictionService` and to an N-worker :class:`ServeFleet` must
produce, per session, identical prediction streams — and both must
equal the sequential scalar replay.  Routing, per-worker WALs, the
router's per-frame coalescing and the process hop are throughput
machinery, never a semantics change.  Runs on both execution backends,
and covers the ``replay`` trace-window op (digests must agree
bit-for-bit across all three executions).
"""

import asyncio
import random

import pytest

from repro.api import ExecutionPolicy, build_predictor, spec_for
from repro.serve import PredictionService, PredictRequest, ServeConfig
from repro.serve.batch import apply_step, replay_digest
from repro.serve.fleet import ServeFleet

#: Families mixing kernel-backed and scalar-only execution, as in the
#: single-process differential.
SESSION_SPECS = {
    "hyb": spec_for("hmp.hybrid", local_size=128, gskew_size=256),
    "cht": spec_for("cht.tagless", size=128, track_distance=True),
    "gsh": spec_for("binary.gshare", history=7),
    "bnk": spec_for("bank.a"),
}

STEPS_PER_SESSION = 160


def _workload(sid: str, seed: int):
    spec = SESSION_SPECS[sid]
    rng = random.Random(seed)
    requests = []
    for i in range(STEPS_PER_SESSION):
        pc = 0x400 + 4 * rng.randrange(10)
        outcome = rng.randrange(2)
        distance = None
        if spec.family == "cht" and outcome:
            distance = 1 + rng.randrange(4)
        requests.append(PredictRequest(sid, op="step", pc=pc,
                                       outcome=outcome,
                                       distance=distance, seq=i))
    return requests


def _sequential_reference(sid: str, requests) -> list:
    predictor = build_predictor(SESSION_SPECS[sid])
    out = []
    for r in requests:
        distance = r.distance if (r.distance or 0) >= 1 else None
        out.append(apply_step(SESSION_SPECS[sid].family, predictor, r.pc,
                              int(r.outcome), distance=distance))
    return out


async def _submit_shuffled(service, workloads, rng):
    """Concurrent, shuffled interleavings; per-session order kept."""
    pending = {sid: list(reqs) for sid, reqs in workloads.items()}
    results = {sid: [] for sid in workloads}
    while any(pending.values()):
        order = [sid for sid, reqs in pending.items() if reqs]
        rng.shuffle(order)
        futures = []
        for sid in order:
            take = min(len(pending[sid]), 1 + rng.randrange(30))
            chunk, pending[sid] = pending[sid][:take], pending[sid][take:]
            futures.extend((sid, service.submit(r)) for r in chunk)
            if rng.random() < 0.3:
                await asyncio.sleep(0)
        for sid, future in futures:
            response = await future
            assert response.ok, response
            results[sid].append(response.result)
    return results


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_fleet_stream_equals_single_process_and_scalar_replay(
        backend, tmp_path):
    workloads = {sid: _workload(sid, seed=300 + i)
                 for i, sid in enumerate(SESSION_SPECS)}
    expected = {sid: _sequential_reference(sid, reqs)
                for sid, reqs in workloads.items()}
    policy = ExecutionPolicy(backend=backend)
    config = ServeConfig(n_shards=2, max_batch=96, max_delay_us=300,
                         policy=policy, min_kernel_run=4)
    # Shards, flush size and flush deadline govern the in-process
    # service only: a fleet worker executes each router frame in place.
    fleet_config = ServeConfig(policy=policy, min_kernel_run=4)

    async def run_single():
        rng = random.Random(42)
        async with PredictionService(config) as service:
            for sid, spec in SESSION_SPECS.items():
                await service.open_session(sid, spec)
            return await _submit_shuffled(service, workloads, rng)

    async def run_fleet():
        rng = random.Random(43)  # different interleaving on purpose
        async with ServeFleet(n_workers=3, config=fleet_config,
                              state_dir=str(tmp_path)) as fleet:
            for sid, spec in SESSION_SPECS.items():
                await fleet.open_session(sid, spec)
            return await _submit_shuffled(fleet, workloads, rng)

    single = asyncio.run(run_single())
    fleet = asyncio.run(run_fleet())
    for sid in SESSION_SPECS:
        assert single[sid] == expected[sid], (
            f"single-process {sid} diverged from scalar replay "
            f"({backend})")
        assert fleet[sid] == expected[sid], (
            f"fleet {sid} diverged from scalar replay ({backend})")


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_replay_digests_agree_single_vs_fleet(backend, tmp_path):
    """One trace window per session: the order-sensitive digest must be
    identical from the single service, the fleet, and a local scalar
    replay — the cheap proof that window execution is exactly
    per-step execution."""
    spec = spec_for("hmp.hybrid", local_size=128, gskew_size=256)
    rng = random.Random(77)
    windows = {}
    for w in range(4):
        pcs = tuple(0x400 + 4 * rng.randrange(12) for _ in range(96))
        outcomes = tuple(rng.randrange(2) for _ in range(96))
        windows[f"t{w}"] = (pcs, outcomes)

    def local_digest(pcs, outcomes):
        predictor = build_predictor(spec)
        return replay_digest([
            apply_step(spec.family, predictor, pc, outcome)
            for pc, outcome in zip(pcs, outcomes)])

    policy = ExecutionPolicy(backend=backend)
    config = ServeConfig(n_shards=2, max_batch=64, max_delay_us=200,
                         policy=policy, min_kernel_run=8)
    fleet_config = ServeConfig(policy=policy, min_kernel_run=8)

    async def run(service_factory):
        async with service_factory() as service:
            digests = {}
            for sid, (pcs, outcomes) in windows.items():
                await service.open_session(sid, spec)
                response = await service.request(PredictRequest(
                    sid, op="replay", pcs=pcs, outcomes=outcomes, seq=0))
                assert response.ok, response.error
                digests[sid] = response.result
            return digests

    single = asyncio.run(run(lambda: PredictionService(config)))
    fleet = asyncio.run(run(lambda: ServeFleet(
        n_workers=2, config=fleet_config, state_dir=str(tmp_path))))
    for sid, (pcs, outcomes) in windows.items():
        want = local_digest(pcs, outcomes)
        assert single[sid] == want, f"single digest diverged ({backend})"
        assert fleet[sid] == want, f"fleet digest diverged ({backend})"

"""The serving differential: concurrency must be unobservable.

A shuffled, concurrent client workload submitted through the service —
micro-batched, sharded, possibly kernel-executed, snapshotted and
restored midway — must yield, per session, the bit-identical prediction
stream a sequential scalar replay of that session's requests produces.
This is the serving layer's version of the fastpath exactness contract
(``tests/fastpath/``): batching is a throughput optimisation, never a
semantics change.
"""

import asyncio
import random

import pytest

from repro.api import ExecutionPolicy, build_predictor, spec_for
from repro.serve import PredictionService, PredictRequest, ServeConfig
from repro.serve.batch import apply_step

#: One session per spec kind: kernel-backed (hmp.*, cht.tagless,
#: binary.*, bank.a) and scalar-only (cht.tagged) predictors mix in the
#: same batches.
SESSION_SPECS = {
    "hyb": spec_for("hmp.hybrid", local_size=128, gskew_size=256),
    "loc": spec_for("hmp.local", size=128, history=4),
    "cht": spec_for("cht.tagless", size=128, track_distance=True),
    "tag": spec_for("cht.tagged", size=64, ways=2),
    "gsh": spec_for("binary.gshare", history=7),
    "bnk": spec_for("bank.a"),
}

STEPS_PER_SESSION = 240


def _workload(sid: str, seed: int):
    """Deterministic per-session step stream."""
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
    """The ground truth: one predictor, one request at a time."""
    spec = SESSION_SPECS[sid]
    predictor = build_predictor(spec)  # reference scalar path
    out = []
    for r in requests:
        distance = r.distance if (r.distance or 0) >= 1 else None
        out.append(apply_step(spec.family, predictor, r.pc,
                              int(r.outcome), distance=distance))
    return out


async def _submit_shuffled(service, pending, results, rng):
    """Drive all sessions concurrently in randomised interleavings,
    preserving per-session order, until ``pending`` is drained."""
    while any(pending.values()):
        order = [sid for sid, reqs in pending.items() if reqs]
        rng.shuffle(order)
        futures = []
        for sid in order:
            take = min(len(pending[sid]), 1 + rng.randrange(40))
            chunk, pending[sid] = pending[sid][:take], pending[sid][take:]
            futures.extend((sid, service.submit(r)) for r in chunk)
            if rng.random() < 0.3:
                await asyncio.sleep(0)  # let the shards interleave
        for sid, future in futures:
            response = await future
            assert response.ok, response
            results[sid].append(response.result)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_concurrent_equals_sequential_across_restore(backend):
    rng = random.Random(1234)
    workloads = {sid: _workload(sid, seed=100 + i)
                 for i, sid in enumerate(SESSION_SPECS)}
    expected = {sid: _sequential_reference(sid, reqs)
                for sid, reqs in workloads.items()}

    async def main():
        results = {sid: [] for sid in SESSION_SPECS}
        half = STEPS_PER_SESSION // 2
        config = ServeConfig(n_shards=3, max_batch=128, max_delay_us=300,
                             policy=ExecutionPolicy(backend=backend),
                             min_kernel_run=4)
        async with PredictionService(config) as service:
            for sid, spec in SESSION_SPECS.items():
                await service.open_session(sid, spec)
            first = {sid: reqs[:half] for sid, reqs in workloads.items()}
            await _submit_shuffled(service, first, results, rng)
            payload = await service.snapshot_payload()

        # Second half continues on a *different* topology from the
        # restored snapshot.
        config2 = ServeConfig(n_shards=2, max_batch=64, max_delay_us=200,
                              policy=ExecutionPolicy(backend=backend),
                              min_kernel_run=4)
        async with PredictionService(config2) as service:
            await service.restore_payload(payload)
            second = {sid: reqs[half:] for sid, reqs in workloads.items()}
            await _submit_shuffled(service, second, results, rng)
        return results

    results = asyncio.run(main())
    for sid in SESSION_SPECS:
        assert results[sid] == expected[sid], (
            f"session {sid} ({SESSION_SPECS[sid].kind}) diverged from "
            f"sequential scalar replay on backend {backend}")

"""Shared fleet-test workload, scalar oracle and state readback.

The fleet suites drive one gshare spec through seeded per-session step
streams and hold the results to two oracles: the scalar prediction
stream (:func:`scalar_oracle`) and the exactly-once predictor state
(:func:`shadow_state`), read back from the fleet through its public
snapshot path (:func:`fleet_session_states`).
"""

import asyncio
import pickle
import random

from repro.api import ExecutionPolicy, build_predictor, spec_for
from repro.serve import PredictRequest, ServeConfig
from repro.serve.batch import apply_step
from repro.serve.snapshot import load_snapshot

SPEC = spec_for("binary.gshare", history=7)
CONFIG = ServeConfig(policy=ExecutionPolicy(backend="vectorized"),
                     min_kernel_run=4)


def step_stream(seed, n):
    rng = random.Random(seed)
    return [(0x400 + 4 * rng.randrange(16), rng.randrange(2))
            for _ in range(n)]


def scalar_oracle(stream):
    """The prediction stream one fresh scalar predictor gives."""
    predictor = build_predictor(SPEC)
    return [apply_step(SPEC.family, predictor, pc, outcome)
            for pc, outcome in stream]


def canonical_bytes(predictor) -> bytes:
    """Canonical pickled form: one dump/load round-trip first.

    Raw ``pickle.dumps`` is not byte-stable across process hops — the
    memo stream depends on which sub-objects happen to be shared
    in-process — but it reaches a fixed point after one round-trip, so
    canonicalising both sides makes byte equality mean state equality.
    """
    once = pickle.loads(pickle.dumps(predictor,
                                     protocol=pickle.HIGHEST_PROTOCOL))
    return pickle.dumps(once, protocol=pickle.HIGHEST_PROTOCOL)


def shadow_state(stream):
    """The oracle: one fresh predictor, the stream applied once."""
    predictor = build_predictor(SPEC)
    for pc, outcome in stream:
        apply_step(SPEC.family, predictor, pc, outcome)
    return canonical_bytes(predictor)


async def drive(fleet, workload, seq0=0):
    """Submit every session's steps concurrently; return result lists."""
    futures = {sid: [] for sid in workload}
    for sid, stream in workload.items():
        for i, (pc, outcome) in enumerate(stream):
            futures[sid].append(fleet.submit(PredictRequest(
                sid, op="step", pc=pc, outcome=outcome, seq=seq0 + i)))
    results = {}
    for sid, fs in futures.items():
        responses = await asyncio.gather(*fs)
        assert all(r.ok for r in responses), [
            r.error for r in responses if not r.ok][:3]
        results[sid] = [r.result for r in responses]
    return results


async def fleet_session_states(fleet):
    """Every session's pickled predictor bytes, via the public
    snapshot path (a same-size resize quiesces + persists snapshots
    without moving anything)."""
    await fleet.resize(len(fleet.worker_names))
    merged = {}
    for name in fleet.worker_names:
        snap = load_snapshot(fleet.state_dir, f"snap-{name}")
        assert snap is not None, f"no snapshot for {name}"
        for sid, blob in snap["sessions"].items():
            state = pickle.loads(blob)
            merged[sid] = (canonical_bytes(state["predictor"]),
                           int(state["served"]))
    return merged


def assert_states_match_oracle(states, workload):
    assert set(states) == set(workload)
    for sid, stream in workload.items():
        predictor_bytes, served = states[sid]
        assert served == len(stream), (
            f"{sid}: served {served} != {len(stream)} — a lost or "
            f"double-applied update")
        assert predictor_bytes == shadow_state(stream), (
            f"{sid}: predictor state diverged from the exactly-once "
            f"shadow oracle")

"""Overload and resize under traffic: nothing is lost, nothing is wrong.

Each test pushes a service or fleet past what it admits and checks the
zero-loss contract exactly, request by request:

* every future ``submit`` returns resolves (no awaiter is stranded);
* every refusal is in-band ``retry-after`` carrying ``retry_after_us``,
  and nothing else fails (zero errors);
* ``ok + rejected == submitted``;
* each session's accepted steps, in order, give the prediction stream
  (and, for the fleet, the exactly-once predictor state) of a scalar
  oracle fed only those steps.

Submissions go straight to ``submit``, with no load generator.
"""

import asyncio

from repro.api import ExecutionPolicy
from repro.serve import (
    ERR_RETRY,
    PredictRequest,
    PredictionService,
    ServeConfig,
)
from repro.serve.fleet import ServeFleet
from tests.serve.helpers import (
    CONFIG,
    SPEC,
    assert_states_match_oracle,
    fleet_session_states,
    scalar_oracle,
    step_stream,
)

#: Long enough for a fleet to answer everything it accepted; a dropped
#: future fails the test at this bound instead of hanging it.
SETTLE_S = 60.0


def _account(workload, submitted, responses, retry_after_us):
    """Check the in-band contract; return each session's accepted
    ``(steps, results)`` in submission order and the rejected count."""
    accepted = {sid: ([], []) for sid in workload}
    rejected = 0
    for (sid, step), response in zip(submitted, responses):
        if response.ok:
            steps, results = accepted[sid]
            steps.append(step)
            results.append(response.result)
        else:
            assert response.error == ERR_RETRY, response.error
            assert response.retry_after_us == retry_after_us
            rejected += 1
    ok = sum(len(steps) for steps, _ in accepted.values())
    assert ok + rejected == len(submitted)
    return accepted, rejected


def test_fleet_overload_resolves_every_future_in_band(tmp_path):
    """Waves far past a small ``outstanding_limit``: the router refuses
    the excess with ``retry-after`` and answers everything it took."""
    workload = {f"o{i}": step_stream(300 + i, 120) for i in range(6)}

    async def main():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path),
                              outstanding_limit=8) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            submitted, futures = [], []
            for wave in range(0, 120, 20):
                for sid, stream in workload.items():
                    for seq in range(wave, wave + 20):
                        submitted.append((sid, stream[seq]))
                        futures.append(fleet.submit(PredictRequest(
                            sid, op="step", pc=stream[seq][0],
                            outcome=stream[seq][1], seq=seq)))
                await asyncio.sleep(0.005)
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=SETTLE_S)
            accepted, rejected = _account(workload, submitted, responses,
                                          CONFIG.retry_after_us)
            states = await fleet_session_states(fleet)
            return accepted, rejected, states, fleet.stats()["totals"]

    accepted, rejected, states, totals = asyncio.run(main())
    ok = sum(len(steps) for steps, _ in accepted.values())
    assert ok > 0 and rejected > 0, "the limit never pushed back"
    assert totals["rejected"] == rejected
    for sid, (steps, results) in accepted.items():
        assert results == scalar_oracle(steps), sid
    assert_states_match_oracle(
        states, {sid: steps for sid, (steps, _) in accepted.items()})


def test_resize_under_traffic_loses_nothing(tmp_path):
    """Grow 2→3 while requests are in flight and more keep arriving:
    the pause shows up only as ``retry-after``, and every accepted step
    lands exactly once on whichever worker owns the session."""
    workload = {f"r{i:02d}": step_stream(800 + i, 400) for i in range(16)}
    before = 21  # rounds submitted before the resize starts

    async def main():
        async with ServeFleet(n_workers=2, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            for sid in workload:
                await fleet.open_session(sid, SPEC)
            submitted, futures = [], []

            def submit_round(seq):
                for sid, stream in workload.items():
                    submitted.append((sid, stream[seq]))
                    futures.append(fleet.submit(PredictRequest(
                        sid, op="step", pc=stream[seq][0],
                        outcome=stream[seq][1], seq=seq)))

            for seq in range(before):
                await asyncio.sleep(0.002)
                submit_round(seq)
            # The last round is still in flight when the resize starts.
            assert any(w.outstanding for w in fleet.workers.values())
            resize = asyncio.ensure_future(fleet.resize(3))
            seq = before
            while not resize.done() and seq < 340:
                await asyncio.sleep(0.005)
                submit_round(seq)
                seq += 1
            moves = await asyncio.wait_for(resize, timeout=SETTLE_S)
            for seq in range(seq, seq + 40):  # on the new topology
                submit_round(seq)
                await asyncio.sleep(0.002)
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=SETTLE_S)
            accepted, rejected = _account(workload, submitted, responses,
                                          CONFIG.retry_after_us)
            states = await fleet_session_states(fleet)
            return moves, accepted, rejected, states

    moves, accepted, rejected, states = asyncio.run(main())
    assert moves["workers"] == 3 and moves["sessions_moved"] > 0
    assert rejected > 0, "no request arrived during the pause"
    for sid, (steps, results) in accepted.items():
        assert len(steps) > before, f"{sid}: nothing accepted after"
        assert results == scalar_oracle(steps), sid
    assert_states_match_oracle(
        states, {sid: steps for sid, (steps, _) in accepted.items()})


def test_service_overload_resolves_every_future_without_deadlock():
    """Offer several times what a tiny queue holds: the service refuses
    the excess in-band, answers the rest, and never deadlocks."""
    config = ServeConfig(n_shards=1, max_batch=8, max_delay_us=500,
                         queue_depth=64,
                         policy=ExecutionPolicy(backend="reference"))
    workload = {f"q{i:02d}": step_stream(60 + i, 64) for i in range(8)}

    async def main():
        async with PredictionService(config) as service:
            for sid in workload:
                await service.open_session(sid, SPEC)
            submitted, futures = [], []
            for wave in range(0, 64, 16):
                for sid, stream in workload.items():
                    for seq in range(wave, wave + 16):
                        submitted.append((sid, stream[seq]))
                        futures.append(service.submit(PredictRequest(
                            sid, op="step", pc=stream[seq][0],
                            outcome=stream[seq][1], seq=seq)))
                await asyncio.sleep(0.001)
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=SETTLE_S)
            return (_account(workload, submitted, responses,
                             config.retry_after_us),
                    service.stats()["totals"])

    (accepted, rejected), totals = asyncio.run(main())
    ok = sum(len(steps) for steps, _ in accepted.values())
    assert ok > 0 and rejected > 0, "the bounded queue never pushed back"
    assert totals["rejected"] == rejected
    for sid, (steps, results) in accepted.items():
        assert results == scalar_oracle(steps), sid

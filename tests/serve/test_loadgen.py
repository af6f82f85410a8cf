"""Load model and loop-discipline tests.

The load generator's claims: schedules are deterministic functions of
the model, Zipf popularity really skews traffic onto a hot head, a
million-session id space costs nothing until touched, trace windows
(``chunk_steps``) change the request op without changing the arrival
process — and the open loop reports honest overload numbers (fat tail,
retry-after rejections) instead of deadlocking on a saturated service.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.api import ExecutionPolicy
from repro.serve import PredictionService, ServeConfig
from repro.serve.loadgen import (
    LoadModel,
    build_schedule,
    run_closed_loop,
    run_open_loop,
)

BASE = dict(n_sessions=500, spec_kind="binary.gshare", rate_rps=2000.0,
            seconds=0.25, clients=4, seed=7)


def test_schedule_is_deterministic_in_the_seed():
    a = build_schedule(LoadModel(**BASE))
    b = build_schedule(LoadModel(**BASE))
    c = build_schedule(LoadModel(**{**BASE, "seed": 8}))
    assert np.array_equal(a.times_s, b.times_s)
    assert np.array_equal(a.session_ranks, b.session_ranks)
    assert np.array_equal(a.pcs, b.pcs)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert not np.array_equal(a.session_ranks, c.session_ranks)


def test_zipf_head_dominates():
    sched = build_schedule(LoadModel(**{**BASE, "seconds": 1.0,
                                        "zipf_s": 1.2}))
    ranks = sched.session_ranks
    head_share = np.mean(ranks < 10)
    assert head_share > 0.3, "top-10 sessions should take a fat share"
    assert sched.touched_sessions < len(sched), "tail must stay cold"


def test_million_session_space_is_lazy():
    model = LoadModel(**{**BASE, "n_sessions": 1_000_000})
    sched = build_schedule(model)
    assert len(sched) > 100
    # Nameable ≠ materialised: the schedule touches a tiny fraction.
    assert sched.touched_sessions < len(sched)
    assert int(sched.session_ranks.max()) < 1_000_000
    request = sched.request_for(0, seq=0)
    assert request.session_id.startswith("z")


def test_arrival_processes():
    for arrival in ("poisson", "uniform", "bursty"):
        sched = build_schedule(LoadModel(**{**BASE, "arrival": arrival}))
        times = sched.times_s
        assert np.all(np.diff(times) >= 0), "arrivals must be sorted"
        assert times[-1] < 0.25
    with pytest.raises(ValueError):
        LoadModel(**{**BASE, "arrival": "thundering-herd"})


def test_chunk_steps_builds_replay_windows():
    model = LoadModel(**{**BASE, "chunk_steps": 16})
    sched = build_schedule(model)
    assert sched.pcs.shape == (len(sched), 16)
    request = sched.request_for(3, seq=99)
    assert request.op == "replay"
    assert len(request.pcs) == 16 and len(request.outcomes) == 16
    assert request.seq == 99
    # chunk_steps == 1 stays plain per-step traffic.
    step = build_schedule(LoadModel(**BASE)).request_for(3, seq=99)
    assert step.op == "step" and step.pc is not None
    with pytest.raises(ValueError):
        LoadModel(**{**BASE, "chunk_steps": 0})


def test_open_loop_under_overload_reports_tail_without_deadlock():
    """Offer ~8× what a deliberately tiny service can absorb: the loop
    must terminate, classify every arrival (zero lost), and report a
    p99 — the honest-overload contract."""
    model = LoadModel(n_sessions=50, spec_kind="binary.gshare",
                      rate_rps=4000.0, seconds=0.4, clients=4, seed=3)
    config = ServeConfig(n_shards=1, max_batch=8, max_delay_us=500,
                         queue_depth=64,
                         policy=ExecutionPolicy(backend="reference"))

    async def main():
        async with PredictionService(config) as service:
            return await asyncio.wait_for(
                run_open_loop(service, model, settle_timeout_s=20.0),
                timeout=30.0)

    report = asyncio.run(main())
    assert report["lost"] == 0
    assert report["errors"] == 0
    assert report["ok"] + report["rejected"] == report["submitted"]
    assert report["latency_us"]["count"] == report["ok"]
    assert report["latency_us"]["p99"] >= report["latency_us"]["p50"]
    assert report["offered_rps"] > report["achieved_rps"]
    # The report feeds json.dump in the bench: no live objects allowed
    # (hist.mean is a method — forgetting the call once shipped a bound
    # method into the report and broke write_report).
    json.dumps(report)


def test_closed_loop_probe_reports_capacity():
    model = LoadModel(n_sessions=50, spec_kind="binary.gshare",
                      rate_rps=100.0, seconds=0.2, clients=2, seed=3)
    config = ServeConfig(n_shards=1, max_batch=32, max_delay_us=200,
                         policy=ExecutionPolicy(backend="reference"))

    async def main():
        async with PredictionService(config) as service:
            return await run_closed_loop(service, model, window=4)

    report = asyncio.run(main())
    assert report["ok"] > 0
    assert report["errors"] == 0
    assert report["achieved_rps"] > 0
    assert report["achieved_steps_rps"] == pytest.approx(
        report["achieved_rps"])

"""Closed-loop load generator for the prediction service.

``python -m repro.serve bench`` drives service instances over the same
deterministic workload and writes ``BENCH_serve.json``:

* **scalar** — ``max_batch=1`` on the reference backend: every request
  is executed individually, the per-request baseline;
* **vectorized** — micro-batching on the vectorized backend: requests
  coalesce into batches and same-session step runs execute on the
  :mod:`repro.fastpath` kernels;
* **vectorized_no_telemetry** — the vectorized side again with span
  tracing disabled, so the report carries an explicit telemetry
  on/off throughput comparison (``telemetry_overhead``).

Each of the ``clients`` keeps a *window* of pipelined step requests
outstanding against its own session (closed loop: a new window is
submitted only when the previous one completed), which is what lets
micro-batches fill: a client submits its whole window back-to-back
without yielding, so the window lands contiguously in the shard queue
and becomes one same-session kernel run.  Window size therefore *is*
the kernel run length — the default (1024) sits where the
:mod:`repro.fastpath` kernels have amortised their setup.
``retry-after`` rejections are honoured with the advertised backoff
and retried — backpressure is part of the measured protocol, not an
error.

Latency accounting (the report's JSON schema, ``schema: 2``):

* ``latency_us`` — client-observed submit→response on the asyncio
  clock, sampled 1-in-16 into a bounded
  :class:`~repro.common.stats.StreamingHistogram` (memory stays
  O(buckets) however many requests complete; quantiles carry the
  histogram's 1% relative-error bound).  **Closed-loop caveat**: under
  saturation this number is almost entirely *queue sojourn* — time
  spent waiting in the shard queue behind the caller's own outstanding
  window — not execution time.  Treat it as a load-level indicator,
  not a service-speed headline.
* ``queue_us`` / ``service_us`` — the two components separated, from
  the per-request tracer's stage histograms: ``queue_us`` is admission
  →flush sojourn, ``service_us`` is kernel/predict execution alone.
* Samples completing inside the ``warmup_seconds`` window (default
  10% of the run) are excluded from all reported quantiles — cold
  predictor tables and interpreter warm-up would otherwise pollute the
  tail.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from typing import Dict, List, Optional

import asyncio

from repro.api import ExecutionPolicy, spec_for
from repro.common.stats import StreamingHistogram
from repro.obs.provenance import collect_provenance
from repro.serve.config import ServeConfig
from repro.serve.protocol import ERR_RETRY, PredictRequest
from repro.serve.service import PredictionService

#: Report schema: 2 adds queue/service separation, warmup exclusion,
#: provenance and the telemetry on/off comparison; 3 adds the
#: multi-process ``fleet`` section (open-loop scenarios: steady /
#: overload / rebalance / chaos-kill, and the fleet-vs-single-process
#: aggregate comparison); 4 adds the ``hottrace`` section (guarded
#: hot-trace replay on/off per workload profile: hit rate, abort
#: counters, steps/s speedup).
BENCH_SCHEMA = 4

#: Distinct load PCs per client session (enough to exercise tables,
#: few enough that predictors warm up within a short run).
N_PCS = 48

#: Fraction of "rare" outcomes (misses / collisions / bank 1).
RARE_RATE = 0.25

#: The two sides' execution policies: the scalar baseline and the
#: micro-batching kernels.
REFERENCE = ExecutionPolicy(backend="reference")
VECTORIZED = ExecutionPolicy(backend="vectorized")


def _request_stream(session_id: str, family: str, seed: int):
    """Deterministic infinite step-request stream for one client."""
    rng = random.Random(seed)
    seq = 0
    while True:
        pc = 0x1000 + 4 * rng.randrange(N_PCS)
        rare = rng.random() < RARE_RATE
        if family == "hitmiss":
            outcome = 0 if rare else 1  # outcome lane is "hit"
        else:  # binary / cht / bank share the 0/1 coding
            outcome = 1 if rare else 0
        distance = 1 + rng.randrange(4) if (family == "cht" and rare) else None
        yield PredictRequest(session_id=session_id, op="step", pc=pc,
                             outcome=outcome, distance=distance, seq=seq)
        seq += 1


#: Latency sample rate: 1 request in ``1 << _SAMPLE_SHIFT``.
_SAMPLE_SHIFT = 4


def make_windows(session_id: str, family: str, seed: int,
                 window: int, n_windows: int = 4
                 ) -> List[List[PredictRequest]]:
    """Deterministic request windows for one client, built before the
    clock starts — request construction stays off the measured path."""
    stream = _request_stream(session_id, family, seed)
    return [[next(stream) for _ in range(window)]
            for _ in range(n_windows)]


async def _client(service: PredictionService,
                  windows: List[List[PredictRequest]], deadline: float,
                  latencies: StreamingHistogram, warmup_until: float,
                  counters: Dict[str, int]) -> None:
    loop = asyncio.get_running_loop()
    loop_time = loop.time
    submit = service.submit
    sample_mask = (1 << _SAMPLE_SHIFT) - 1
    sent = 0

    def _submit_sampled(request: PredictRequest) -> "asyncio.Future":
        t0 = loop_time()

        def _record(f: "asyncio.Future") -> None:
            t1 = loop_time()
            if t1 >= warmup_until:  # cold-start samples stay out
                latencies.record(t1 - t0)

        future = submit(request)
        future.add_done_callback(_record)
        return future

    while loop_time() < deadline:
        batch = windows[sent % len(windows)]
        sent += 1
        outstanding = []
        for i, request in enumerate(batch):
            if i & sample_mask == 0:
                outstanding.append(_submit_sampled(request))
            else:
                outstanding.append(submit(request))
        # Await sequentially rather than gather(): responses resolve in
        # admission order per session, so after the first await the
        # rest are done futures — no per-future wakeup callbacks.
        responses = [await f for f in outstanding]
        # Honour the backpressure contract: back off and retry rejects.
        retries = [req for req, resp in zip(batch, responses)
                   if resp.error == ERR_RETRY]
        while retries and loop_time() < deadline:
            counters["rejected"] += len(retries)
            await asyncio.sleep(service.config.retry_after_us / 1e6)
            redone = [await f for f in [submit(r) for r in retries]]
            retries = [req for req, resp in zip(retries, redone)
                       if resp.error == ERR_RETRY]
        counters["completed"] += sum(
            1 for resp in responses if resp.ok)


def _quantiles_us(hist: StreamingHistogram) -> Dict[str, float]:
    """p50/p90/p99/p999 of a seconds-valued histogram, in µs."""
    return {name: round(value * 1e6, 1)
            for name, value in hist.percentiles().items()}


def _stage_us(summary: Dict[str, Dict[str, float]],
              stages: List[str]) -> Optional[Dict[str, float]]:
    """Tracer stage quantiles (already µs) for the first present stage."""
    for stage in stages:
        stats = summary.get(stage)
        if stats and stats.get("count"):
            return {"stage": stage,
                    "count": int(stats["count"]),
                    "mean": round(stats["mean"], 1),
                    "p50": round(stats["p50"], 1),
                    "p90": round(stats["p90"], 1),
                    "p99": round(stats["p99"], 1),
                    "p999": round(stats["p999"], 1)}
    return None


async def run_side(label: str, config: ServeConfig, spec_kind: str,
                   seconds: float, clients: int, window: int,
                   warmup_frac: float = 0.1) -> Dict[str, object]:
    """Run one bench side; returns its report dict."""
    spec = spec_for(spec_kind)
    family = spec.family
    latencies = StreamingHistogram("client_latency_s")
    counters = {"completed": 0, "rejected": 0}
    workloads = [make_windows(f"bench-{i}", family, seed=9000 + i,
                              window=window) for i in range(clients)]
    service = PredictionService(config)
    await service.start()
    try:
        for i in range(clients):
            await service.open_session(f"bench-{i}", spec)
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        deadline = t0 + seconds
        warmup_seconds = max(0.0, warmup_frac) * seconds
        await asyncio.gather(*(
            _client(service, workloads[i], deadline=deadline,
                    latencies=latencies,
                    warmup_until=t0 + warmup_seconds,
                    counters=counters)
            for i in range(clients)))
        elapsed = loop.time() - t0
    finally:
        await service.stop()
    stats = service.stats()
    side: Dict[str, object] = {
        "label": label,
        "requested_backend": config.policy.backend,
        "effective_backend": config.policy.resolved_backend(),
        "max_batch": config.max_batch,
        "max_delay_us": config.max_delay_us,
        "n_shards": config.n_shards,
        "clients": clients,
        "window": window,
        "seconds": round(elapsed, 3),
        "warmup_seconds": round(warmup_seconds, 3),
        "completed": counters["completed"],
        "rejected": counters["rejected"],
        "throughput_rps": (counters["completed"] / elapsed
                           if elapsed > 0 else 0.0),
        "latency_us": _quantiles_us(latencies),
        "latency_samples": latencies.count,
        "latency_note": ("closed-loop submit->response including queue "
                         "sojourn; see queue_us/service_us for the "
                         "separated components"),
        "telemetry": config.telemetry,
        "service": stats["totals"],
    }
    if service.tracer is not None:
        summary = service.tracer.summary()
        side["queue_us"] = _stage_us(summary, ["queue"])
        side["service_us"] = _stage_us(summary, ["kernel", "predict"])
        side["trace"] = service.tracer.counters()
    return side


def run_bench(seconds: float = 10.0, clients: int = 64,
              window: int = 1024, spec_kind: str = "hmp.hybrid",
              n_shards: int = 2, max_batch: int = 4096,
              max_delay_us: int = 2000, queue_depth: int = 65536,
              sides: str = "both", warmup_frac: float = 0.1,
              telemetry_compare: bool = True) -> Dict[str, object]:
    """Run the configured sides and assemble the report.

    ``sides``: ``"both"`` (default), ``"reference"`` (scalar baseline
    only) or ``"vectorized"`` (micro-batching side only).  With
    ``telemetry_compare`` (and a vectorized side), the vectorized
    configuration runs once more with telemetry off and the report
    gains a ``telemetry_overhead`` on/off comparison.
    """
    report: Dict[str, object] = {
        "bench": "repro.serve",
        "schema": BENCH_SCHEMA,
        "spec": spec_for(spec_kind).to_json_dict(),
        "generated_unix": int(time.time()),
        "provenance": collect_provenance(),
        "sides": {},
    }
    if sides in ("both", "reference"):
        scalar_config = ServeConfig(
            n_shards=n_shards, max_batch=1, max_delay_us=0,
            queue_depth=queue_depth, policy=REFERENCE)
        report["sides"]["scalar"] = asyncio.run(run_side(
            "scalar per-request", scalar_config, spec_kind, seconds,
            clients, window, warmup_frac))
    if sides in ("both", "vectorized"):
        vector_config = ServeConfig(
            n_shards=n_shards, max_batch=max_batch,
            max_delay_us=max_delay_us, queue_depth=queue_depth,
            policy=VECTORIZED)
        report["sides"]["vectorized"] = asyncio.run(run_side(
            "vectorized micro-batching", vector_config, spec_kind,
            seconds, clients, window, warmup_frac))
        if telemetry_compare:
            # Machine drift between two back-to-back multi-second runs
            # can exceed the effect being measured (this box drifts by
            # double-digit percents between adjacent runs), so the
            # on/off comparison runs as short paired rounds in ABBA
            # order — the arm that goes first alternates per round, so
            # linear drift and run-position effects hit both arms
            # equally — and pools each arm's completions.
            dark_config = ServeConfig(
                n_shards=n_shards, max_batch=max_batch,
                max_delay_us=max_delay_us, queue_depth=queue_depth,
                policy=VECTORIZED, telemetry=False)
            rounds = 9
            round_seconds = max(seconds / rounds, 0.05)
            arms = {"on": vector_config, "off": dark_config}
            per_round = []
            dark_side = None
            for i in range(rounds):
                order = ("on", "off") if i % 2 == 0 else ("off", "on")
                rps = {}
                for arm in order:
                    side = asyncio.run(run_side(
                        f"vectorized, telemetry {arm}", arms[arm],
                        spec_kind, round_seconds, clients, window,
                        warmup_frac))
                    rps[arm] = side["throughput_rps"]
                    if arm == "off":
                        dark_side = side
                per_round.append(rps)
            report["sides"]["vectorized_no_telemetry"] = dark_side
            # Each round's arms are adjacent in time, so the per-round
            # ratio is drift-immune; the median across rounds then
            # discards the outlier rounds this box produces.
            fracs = sorted(1.0 - r["on"] / r["off"] for r in per_round
                           if r["off"] > 0)
            overhead = fracs[len(fracs) // 2] if fracs else 0.0
            report["telemetry_overhead"] = {
                "on_rps": statistics.median(r["on"] for r in per_round),
                "off_rps": statistics.median(r["off"] for r in per_round),
                # Positive = telemetry costs throughput.
                "overhead_frac": overhead,
                "rounds": rounds,
                "round_seconds": round_seconds,
                "per_round": [
                    {"on_rps": round(r["on"], 1),
                     "off_rps": round(r["off"], 1)} for r in per_round],
                "sample_shift": ServeConfig().trace_sample_shift,
                "note": ("median of per-round on/off ratios, arms "
                         "paired in ABBA order; immune to machine "
                         "drift between rounds"),
            }
    if "scalar" in report["sides"] and "vectorized" in report["sides"]:
        scalar_rps = report["sides"]["scalar"]["throughput_rps"]
        vector_rps = report["sides"]["vectorized"]["throughput_rps"]
        report["speedup"] = (vector_rps / scalar_rps
                             if scalar_rps > 0 else 0.0)
    return report


# --------------------------------------------------------------------------
# The fleet section (schema 3)
# --------------------------------------------------------------------------


def _loadgen_summary(rep: Dict[str, object]) -> Dict[str, object]:
    """The open-loop numbers worth keeping per scenario."""
    latency = dict(rep["latency_us"])
    for key, value in list(latency.items()):
        if isinstance(value, float):
            latency[key] = round(value, 1)
    out = {
        "arrivals": rep["arrivals"],
        "sessions_touched": rep["sessions_touched"],
        "ok": rep["ok"],
        "rejected": rep["rejected"],
        "errors": rep["errors"],
        "lost": rep["lost"],
        "offered_rps": round(rep["offered_rps"], 1),
        "achieved_rps": round(rep["achieved_rps"], 1),
        "latency_us": latency,
    }
    if rep.get("chunk_steps", 1) != 1:
        out["chunk_steps"] = rep["chunk_steps"]
        out["achieved_steps_rps"] = round(rep["achieved_steps_rps"], 1)
    return out


async def _run_fleet_comparison(workers: int, seconds: float,
                                clients: int, n_shards: int,
                                max_batch: int, max_delay_us: int,
                                seed: int, state_dir: str,
                                chunk_steps: int,
                                comparison_spec: str
                                ) -> Dict[str, object]:
    """The acceptance comparison: single-process scalar per-request
    serving vs the N-worker fleet, identical trace-window workload.

    Arrivals are ``replay`` windows of ``chunk_steps`` consecutive
    steps (the unit trace-driven clients produce); the scalar baseline
    pays the full per-step scalar cost while the fleet's vectorized
    workers execute each window as one kernel run — which is the whole
    point being measured: micro-batch amortisation surviving the hop
    across process boundaries.  Everything shares this machine's
    cores, so the speedup is per-request CPU efficiency, not
    parallelism (see provenance.cpu_count)."""
    from repro.serve.fleet import ServeFleet
    from repro.serve.loadgen import (
        LoadModel,
        run_closed_loop,
        run_open_loop,
    )

    worker_config = ServeConfig(
        n_shards=n_shards, max_batch=max_batch,
        max_delay_us=max_delay_us, policy=VECTORIZED)
    scalar_config = ServeConfig(
        n_shards=n_shards, max_batch=1, max_delay_us=0,
        queue_depth=65536, policy=REFERENCE)

    def model(rate: float, slice_seconds: float, tag: int) -> LoadModel:
        return LoadModel(
            n_sessions=2000, zipf_s=1.1, spec_kind=comparison_spec,
            chunk_steps=chunk_steps, arrival="poisson", rate_rps=rate,
            seconds=slice_seconds, clients=clients, seed=seed + tag)

    async with PredictionService(scalar_config) as probe:
        probe_rep = await run_closed_loop(
            probe, model(100.0, min(seconds, 1.0), tag=90), window=2)
    capacity = max(probe_rep["achieved_rps"], 10.0)
    overload_rate = 4.0 * capacity

    async with PredictionService(scalar_config) as single:
        single_rep = await run_open_loop(
            single, model(overload_rate, seconds, tag=91))

    async with ServeFleet(n_workers=workers, config=worker_config,
                          state_dir=state_dir,
                          outstanding_limit=4096,
                          wal_limit=400_000) as fleet:
        fleet_rep = await run_open_loop(
            fleet, model(overload_rate, seconds, tag=91))

    single_steps = max(single_rep["achieved_steps_rps"], 1e-9)
    return {
        "spec": spec_for(comparison_spec).to_json_dict(),
        "chunk_steps": chunk_steps,
        "n_sessions": 2000,
        "single_process_capacity_rps": round(capacity, 1),
        "offered_rps": round(overload_rate, 1),
        "single_process": _loadgen_summary(single_rep),
        "fleet": _loadgen_summary(fleet_rep),
        "aggregate_steps_rps": round(fleet_rep["achieved_steps_rps"], 1),
        "speedup_vs_single_process": round(
            fleet_rep["achieved_steps_rps"] / single_steps, 3),
        "comparison_note": (
            "speedup compares the fleet (vectorized micro-batching "
            "workers) against the single-process scalar per-request "
            "service, in steps/s, under identical open-loop trace-"
            "window overload; all processes share this machine's "
            "cores (see provenance.cpu_count)"),
    }


async def _run_fleet_section(workers: int, seconds: float, clients: int,
                             spec_kind: str, spec_params,
                             n_shards: int,
                             max_batch: int, max_delay_us: int,
                             seed: int, state_dir: Optional[str],
                             metrics_jsonl: Optional[str],
                             chunk_steps: int = 512,
                             comparison_spec: str = "hmp.hybrid"
                             ) -> Dict[str, object]:
    import tempfile

    from repro.obs.timeseries import TimeSeriesExporter
    from repro.serve.fleet import ServeFleet
    from repro.serve.loadgen import (
        LoadModel,
        run_closed_loop,
        run_open_loop,
    )

    worker_config = ServeConfig(
        n_shards=n_shards, max_batch=max_batch,
        max_delay_us=max_delay_us, policy=VECTORIZED)
    state_dir = state_dir or tempfile.mkdtemp(prefix="bench-fleet-")
    slice_s = max(seconds / 5.0, 0.2)

    def model(rate: float, slice_seconds: float, tag: int,
              arrival: str = "poisson") -> LoadModel:
        return LoadModel(
            n_sessions=1_000_000, zipf_s=1.1, spec_kind=spec_kind,
            spec_params=spec_params, arrival=arrival, rate_rps=rate,
            seconds=slice_seconds, clients=clients, seed=seed + tag)

    section: Dict[str, object] = {
        "workers": workers,
        "worker_config": {
            "n_shards": n_shards, "max_batch": max_batch,
            "max_delay_us": max_delay_us, "backend": "vectorized"},
        "spec": spec_for(spec_kind, **dict(spec_params)).to_json_dict(),
        "clients": clients,
        "seed": seed,
        "scenarios": {},
    }

    # The acceptance comparison runs against its own fleet instance so
    # its (heavier-state) sessions never bloat the scenario snapshots.
    section["comparison"] = await _run_fleet_comparison(
        workers, max(slice_s, 2.0), clients, n_shards, max_batch,
        max_delay_us, seed, os.path.join(state_dir, "cmp"),
        chunk_steps, comparison_spec)

    fleet = ServeFleet(n_workers=workers, config=worker_config,
                       state_dir=os.path.join(state_dir, "scen"),
                       outstanding_limit=4096,
                       wal_limit=65536)
    await fleet.start(recover=False)
    exporter = None
    if metrics_jsonl is not None:
        exporter = TimeSeriesExporter(fleet.metrics_snapshot,
                                      interval_ms=250,
                                      jsonl_path=metrics_jsonl)
        exporter.start()
    try:
        # Calibrate scenario rates against the *fleet's* own capacity
        # (closed-loop probe) so "steady" really is under the knee and
        # "overload" really is past it.
        probe_rep = await run_closed_loop(
            fleet, model(1000.0, min(slice_s, 1.0), tag=99), window=64)
        fleet_capacity = max(probe_rep["achieved_rps"], 500.0)
        steady_rate = 0.6 * fleet_capacity
        overload_rate = 3.0 * fleet_capacity
        section["fleet_capacity_rps"] = round(fleet_capacity, 1)

        steady = await run_open_loop(
            fleet, model(steady_rate, slice_s, tag=2))
        section["scenarios"]["steady"] = _loadgen_summary(steady)

        overload = await run_open_loop(
            fleet, model(overload_rate, slice_s, tag=3,
                         arrival="bursty"))
        section["scenarios"]["overload"] = _loadgen_summary(overload)

        # Rebalance under load: resize mid-run; admission pauses show
        # up as retry-after, never as lost requests.
        resize_task = None

        async def _resize_mid_run() -> Dict[str, int]:
            await asyncio.sleep(slice_s / 3.0)
            return await fleet.resize(workers + 1)

        resize_task = asyncio.ensure_future(_resize_mid_run())
        rebalance = await run_open_loop(
            fleet, model(steady_rate, slice_s, tag=4))
        moves = await resize_task
        summary = _loadgen_summary(rebalance)
        summary["resize"] = moves
        section["scenarios"]["rebalance"] = summary

        # Kill-a-worker chaos under load: recovery replays the WAL and
        # every accepted request still gets its answer (lost == 0).
        async def _kill_mid_run() -> str:
            await asyncio.sleep(slice_s / 3.0)
            victim = fleet.worker_names[0]
            await fleet.kill_worker(victim)
            return victim

        kill_task = asyncio.ensure_future(_kill_mid_run())
        chaos = await run_open_loop(
            fleet, model(steady_rate, slice_s, tag=5))
        victim = await kill_task
        await fleet.wait_all_live()
        summary = _loadgen_summary(chaos)
        summary["killed_worker"] = victim
        section["scenarios"]["chaos_kill"] = summary

        section["fleet_stats"] = fleet.stats()["totals"]
    finally:
        if exporter is not None:
            exporter.stop()
        await fleet.stop()

    section["aggregate_rps"] = section["comparison"]["fleet"][
        "achieved_rps"]
    section["aggregate_steps_rps"] = section["comparison"][
        "aggregate_steps_rps"]
    section["speedup_vs_single_process"] = section["comparison"][
        "speedup_vs_single_process"]
    return section


def run_fleet_bench(workers: int = 4, seconds: float = 10.0,
                    clients: int = 64, spec_kind: str = "hmp.gshare",
                    spec_params=(("history", 7),),
                    n_shards: int = 2, max_batch: int = 4096,
                    max_delay_us: int = 2000, seed: int = 2024,
                    state_dir: Optional[str] = None,
                    metrics_jsonl: Optional[str] = None,
                    chunk_steps: int = 512,
                    comparison_spec: str = "hmp.hybrid"
                    ) -> Dict[str, object]:
    """The schema-3 ``fleet`` section: the acceptance comparison plus
    open-loop scenarios against an N-worker
    :class:`~repro.serve.fleet.ServeFleet`.

    Two workloads, deliberately different:

    * The **comparison** (``comparison_spec``/``chunk_steps``) offers
      trace windows — ``replay`` requests of ``chunk_steps``
      consecutive steps — to both the single-process scalar
      per-request service and the fleet, and reports the steps/s
      speedup.  It defaults to the bench's headline ``hmp.hybrid``
      spec, whose scalar step is expensive and whose kernel amortises
      hard, because that is the serving regime the fleet exists for.
    * The **scenarios** (``spec_kind``/``spec_params``) stress routing
      and recovery: a Zipf model over a million nameable sessions,
      per-step requests, steady/overload/rebalance/kill-a-worker.
      The default spec is a *compact* hit-miss gshare (~4 KB of
      pickled state per session, vs ~100 KB for ``hmp.hybrid``): the
      model touches tens of thousands of sessions per slice and
      snapshot/rebalance cost scales with state size, so per-session
      compactness is part of the scenario, not a shortcut.

    ``seconds`` is split across the probes, the comparison arms and
    the four scenarios."""
    return asyncio.run(_run_fleet_section(
        workers, seconds, clients, spec_kind, tuple(spec_params),
        n_shards, max_batch, max_delay_us, seed, state_dir,
        metrics_jsonl, chunk_steps=chunk_steps,
        comparison_spec=comparison_spec))


# --------------------------------------------------------------------------
# The hottrace section (schema 4)
# --------------------------------------------------------------------------


async def _hottrace_arm_round(fleet, model) -> float:
    """One measured slice against one arm; returns steps/s."""
    from repro.serve.loadgen import run_closed_loop
    rep = await run_closed_loop(fleet, model, window=8)
    return rep["achieved_steps_rps"]


async def _run_hottrace_profile(name: str, workers: int,
                                slice_s: float, clients: int,
                                n_shards: int, seed: int,
                                state_dir: str, phase_windows: int,
                                rounds: int,
                                warmup_rounds: int = 1
                                ) -> Dict[str, object]:
    """One workload profile, hottrace on vs off.

    Both arms run ``backend="reference"`` — the hot-trace layer's
    question is *speculative replay vs actually executing the window*,
    so the off arm is the scalar interpreter the memo short-circuits
    (``sides.vectorized`` already covers kernel-vs-scalar).  Arms are
    measured in ABBA-paired rounds against two persistent fleets so
    machine drift hits both equally and the on arm's captured traces
    stay warm across rounds, like a long-lived deployment.

    The churn profile (``phase_windows=0``) reseeds its schedule every
    round: the closed loop laps its schedule and the rounds would
    otherwise re-offer last round's "fresh" windows, which is exactly
    the recurrence churn exists to exclude."""
    import dataclasses

    from repro.serve.fleet import ServeFleet
    from repro.serve.loadgen import LoadModel

    chunk = 2048
    base_model = LoadModel(
        n_sessions=32, zipf_s=1.3, spec_kind="binary.gshare",
        spec_params=(("history", 8),), arrival="poisson",
        rate_rps=600.0 if phase_windows else 4000.0,
        seconds=slice_s, clients=min(clients, 16),
        seed=seed, pc_space=48, chunk_steps=chunk,
        phase_windows=phase_windows)

    def model(tag: int) -> "LoadModel":
        if phase_windows:
            # Recurring banks: the same schedule every round *is* the
            # workload (sessions re-running their phase repertoire).
            return base_model
        return dataclasses.replace(base_model, seed=seed + 100 + tag)

    arms: Dict[str, Dict[str, object]] = {}
    policies = {
        "off": REFERENCE,
        "on": ExecutionPolicy(backend="reference", hottrace=True,
                              hot_threshold=2),
    }
    fleets = {}
    try:
        for arm, policy in policies.items():
            fleet = ServeFleet(
                n_workers=workers,
                config=ServeConfig(n_shards=n_shards, max_batch=1024,
                                   max_delay_us=1000, queue_depth=65536,
                                   policy=policy),
                state_dir=os.path.join(state_dir, f"{name}-{arm}"),
                outstanding_limit=4096, wal_limit=400_000)
            await fleet.start(recover=False)
            fleets[arm] = fleet
            # Unrecorded warmup laps: predictor tables fill, the on
            # arm's hot windows cross the heat threshold, capture, and
            # converge to their steady pre-state fixed points.
            for w in range(warmup_rounds):
                await _hottrace_arm_round(fleet, model(-1 - w))
        per_round: List[Dict[str, float]] = []
        for i in range(rounds):
            order = ("on", "off") if i % 2 == 0 else ("off", "on")
            rps = {}
            for arm in order:
                rps[arm] = await _hottrace_arm_round(fleets[arm],
                                                     model(i))
            per_round.append(rps)
        for arm, fleet in fleets.items():
            await fleet.poll_stats()
            totals = fleet.stats()["totals"]
            arms[arm] = {
                "steps_rps": round(statistics.median(
                    r[arm] for r in per_round), 1),
                "degraded": totals["degraded"],
            }
            if "hottrace" in totals:
                arms[arm]["hottrace"] = totals["hottrace"]
    finally:
        for fleet in fleets.values():
            await fleet.stop()
    ht = arms["on"].get("hottrace", {})
    windows = max(int(ht.get("windows", 0)), 1)
    off_rps = max(arms["off"]["steps_rps"], 1e-9)
    return {
        "phase_windows": phase_windows,
        "chunk_steps": chunk,
        "model": {"n_sessions": base_model.n_sessions,
                  "zipf_s": base_model.zipf_s,
                  "spec": spec_for(base_model.spec_kind,
                                   **dict(base_model.spec_params))
                          .to_json_dict()},
        "rounds": len(per_round),
        "per_round": [{a: round(r[a], 1) for a in r}
                      for r in per_round],
        "arms": arms,
        "hit_rate": round(int(ht.get("hits", 0)) / windows, 4),
        "steps_saved": int(ht.get("steps_saved", 0)),
        "aborts": int(ht.get("aborts", 0)),
        "abort_mismatch": int(ht.get("abort_mismatch", 0)),
        "speedup": round(arms["on"]["steps_rps"] / off_rps, 3),
    }


async def _run_hottrace_section(workers: int, seconds: float,
                                clients: int, n_shards: int, seed: int,
                                state_dir: Optional[str]
                                ) -> Dict[str, object]:
    import tempfile
    state_dir = state_dir or tempfile.mkdtemp(prefix="bench-hottrace-")
    slice_s = max(seconds / 12.0, 0.6)
    section: Dict[str, object] = {
        "workers": workers,
        "backend": "reference",
        "note": ("hot-trace guarded replay on vs off, identical "
                 "closed-loop Zipf trace-window workload per arm; "
                 "steady_zipf cycles a per-session bank of recurring "
                 "windows (the regime speculation targets), churn "
                 "draws every window fresh (the adversarial bound on "
                 "speculation overhead — hit rate stays 0)"),
        "profiles": {},
    }
    section["profiles"]["steady_zipf"] = await _run_hottrace_profile(
        "steady", workers, slice_s, clients, n_shards, seed + 11,
        state_dir, phase_windows=3, rounds=3, warmup_rounds=3)
    section["profiles"]["churn"] = await _run_hottrace_profile(
        "churn", workers, slice_s, clients, n_shards, seed + 12,
        state_dir, phase_windows=0, rounds=2)
    steady = section["profiles"]["steady_zipf"]
    section["speedup"] = steady["speedup"]
    section["hit_rate"] = steady["hit_rate"]
    section["abort_mismatch"] = (
        steady["abort_mismatch"]
        + section["profiles"]["churn"]["abort_mismatch"])
    section["churn_overhead_frac"] = round(
        1.0 - section["profiles"]["churn"]["speedup"], 3)
    return section


def run_hottrace_bench(workers: int = 2, seconds: float = 8.0,
                       clients: int = 32, n_shards: int = 2,
                       seed: int = 2024,
                       state_dir: Optional[str] = None
                       ) -> Dict[str, object]:
    """The schema-4 ``hottrace`` section: guarded hot-trace replay
    measured on/off over two fleet workload profiles.

    * **steady_zipf** — sessions re-run a small bank of phase windows
      (``phase_windows=4``) under Zipf popularity: the recurrence the
      recorder speculates on.  Headline ``speedup`` (steps/s, on/off)
      and ``hit_rate`` come from here.
    * **churn** — every window is drawn fresh, so nothing ever gets
      hot: hit rate pins at 0 and the profile's inverted speedup is
      the *overhead bound* of heat bookkeeping on the miss path.

    ``abort_mismatch`` aggregates the zero-tolerance counter (a
    speculative commit whose shadow re-execution disagreed) across
    both profiles — any nonzero value is a correctness bug, and the
    CI gate treats it as such."""
    return asyncio.run(_run_hottrace_section(
        workers, seconds, clients, n_shards, seed, state_dir))


def write_report(report: Dict[str, object],
                 path: str = "BENCH_serve.json") -> str:
    """Write the bench report as sorted, indented JSON; return *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

"""Serve workloads: an in-process service and a two-worker fleet.

``serve_phased``  ``PredictionService`` with ``hmp.hybrid`` sessions;
                  every request is a 256-step ``replay`` window and each
                  session cycles through 8 recurring windows.  Long runs
                  of one session's steps keep the batch kernels busy
                  with no process hop.
``fleet_steps``   ``ServeFleet(n_workers=2)`` with ``hmp.gshare
                  (history=7)`` sessions and single fresh ``step``
                  requests: the per-request path (router, write-ahead
                  log, pipe, worker) dominates and the kernels rarely
                  run.

A run sets the system up five times (service or fleet start plus every
session open; ``setup_s`` is the median) and measures the last one.
After an untimed warm-up at the nominal rate it runs rounds (16 in a
20 s run), each a short untimed settle at the nominal rate, a timed
open-loop slice and a closed-loop capacity probe.  Latency comes from
all timed slices together and capacity from all probes together, so a
slow stretch of the host moves a few rounds rather than a whole phase.
A probe waits for its last answer before the next settle starts, so no
timed request queues behind probe work.  Probes are a fixed number of
requests, so for a given seed the request stream, and with it the
points where fleet workers snapshot, is the same on a fast host and a
slow one.  A host-speed probe (``measure.probe_s``) runs before each
round and after each of its two timed parts, while the system is idle;
the probes on either side of a timed part scale it to the reference
host (``Shape.scale_latency`` says whether that applies to latency).

The fleet keeps every default, ``wal_limit`` (8,192 records per
worker) included, so its workers snapshot as a deployed fleet does.
Each snapshot holds up the fleet for about 0.8 ms per open session; the
closed-loop probes fill a worker's log within a second, so snapshots
take a steady share of probe time and show in the fleet's capacity.
Sessions are few (256) so each stall is short and that share stays
even from run to run.

Correctness: the requests to eight sampled sessions are logged in
admission order with their responses and replayed afterwards through a
fresh ``build_predictor(spec)`` with ``repro.serve.batch.scalar_steps``
(``replay_digest`` for windows).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from benchmarks.e2e import load, measure


@dataclass(frozen=True)
class Shape:
    """Traffic and system of one serve workload."""

    prefix: str
    sessions: int
    kind: str
    params: tuple
    rate: float          # open-loop requests per second
    window: int          # predictor steps per request
    bank: int            # recurring windows per session (0: fresh steps)
    inflight: int        # closed-loop probe depth
    #: Requests per second that size the probes: about the closed-loop
    #: capacity on the development VM, so probes fill their share of
    #: the run there.
    probe_rate: float
    #: Scale latencies by the host-speed probes.  Only where the
    #: service's own CPU work sets the latency: the fleet's is mostly
    #: waiting (batch delay, pipes, wake-ups), which the probe loop
    #: does not measure.
    scale_latency: bool


SHAPES: Dict[str, Shape] = {
    # 100 req/s is 25.6k steps/s; the service then works about a
    # quarter of the time, so latency is mostly service time.  Queueing
    # grows faster than linearly with load and so with host speed: over
    # five seeds the p50 spread 6 % at 100 req/s, 10 % at 150 and the
    # p95 15 % and 28 %.  100 sessions keep the predictor tables near
    # 24 MB: with 500 (120 MB) the cost of a window moved ±12 % between
    # consecutive probes, with 50 ±5 %.
    "serve_phased": Shape("p", 100, "hmp.hybrid", (), 100.0, 256, 8, 64,
                          500.0, True),
    "fleet_steps": Shape("f", 256, "hmp.gshare", (("history", 7),), 800.0,
                         1, 0, 256, 20_000.0, False),
}
#: The tail percentile; slices of the timed requests keep ≥ 10 samples
#: past it and ``tail_ms`` is their median.
TAIL_Q = 0.95
FLEET_WORKERS = 2
ZIPF_S = 1.1
SAMPLED_SESSIONS = 8
#: Predictor steps replayed per sampled session (scalar replay cost).
CHECK_STEPS = 10_000
#: Run length per round: a 20 s run has 16 rounds, so a probe comes
#: about every 1.25 s and holds 2-3 of ``serve_phased``'s batches.
ROUND_S = 1.25
#: Shares of the run length: the warm-up before the first round, then,
#: summed over all rounds, the settles before the others, the timed
#: open-loop slices, the probes' untimed ramps and their timed parts
#: (the probes' at ``probe_rate``).
WARM_SHARE, SETTLE_SHARE, TIMED_SHARE, RAMP_SHARE, PROBE_SHARE = (
    0.1, 0.05, 0.5, 0.05, 0.3)
#: Host-speed probe loops timed at each round boundary (the median).
BOUNDARY_PROBES = 3


def shadow_predictor(spec):
    """The predictor sampled sessions are replayed through."""
    from repro.api import build_predictor
    return build_predictor(spec)


def check_sessions(watch: load.Watch, spec) -> List[str]:
    """Replay each sampled session's admitted requests through a fresh
    predictor; returns one message per mismatching request."""
    from repro.serve.batch import replay_digest, scalar_steps
    problems = []
    for sid, log in watch.logs.items():
        predictor = shadow_predictor(spec)
        for request, response in log:
            if response is None or not response.ok:
                break  # counted as a failed request; state is unknown
            if request.op == "replay":
                expect = replay_digest(scalar_steps(
                    spec.family, predictor, request.pcs, request.outcomes))
            else:
                expect = scalar_steps(spec.family, predictor, [request.pc],
                                      [request.outcome])[0]
            if response.result != expect:
                problems.append(f"{sid}#{request.seq}: served "
                                f"{response.result}, replay {expect}")
    return problems


async def _start(workload: str, ids: List[str], spec, state_root: str,
                 traced: bool):
    """Start the system under test and open every session.  A traced
    service traces every request rather than one in 64, so the stage
    quantiles have enough samples."""
    from repro.api import ExecutionPolicy
    from repro.serve import PredictionService, ServeConfig, ServeFleet
    policy = ExecutionPolicy(backend="vectorized")
    if workload == "fleet_steps":
        handle = ServeFleet(n_workers=FLEET_WORKERS,
                            config=ServeConfig(policy=policy),
                            state_dir=tempfile.mkdtemp(dir=state_root))
    elif traced:
        handle = PredictionService(ServeConfig(policy=policy,
                                               trace_sample_shift=0))
    else:
        handle = PredictionService(ServeConfig(policy=policy))
    await handle.start()
    for start in range(0, len(ids), 256):
        await asyncio.gather(*(handle.open_session(sid, spec)
                               for sid in ids[start:start + 256]))
    return handle


class _TimedWindow:
    """What the timed slices add up to, for the per-layer metrics: the
    service's batch counters, this process's CPU and, on a traced run,
    the wrapped calls and the service's request-span histograms (an
    instance-attribute swap on its ``RequestTracer``)."""

    def __init__(self, handle, fleet, tracer) -> None:
        self.handle, self.fleet, self.tracer = handle, fleet, tracer
        self.counts = {"served": 0, "batches": 0, "kernel_batches": 0}
        self.cpu_s = 0.0
        #: Outside a timed slice: the timed histograms; inside: the rest.
        self._stage_hists: Dict[str, object] = {}
        self._stages = (tracer is not None
                        and getattr(handle, "tracer", None) is not None)
        self._before: Dict[str, int] = {}
        self._cpu0 = 0.0

    def _swap_stage_hists(self) -> None:
        spans = self.handle.tracer
        spans.stage_hists, self._stage_hists = (self._stage_hists,
                                                spans.stage_hists)

    async def _counters(self) -> Dict[str, int]:
        if self.fleet is None:
            return dict(self.handle.stats()["totals"])
        await self.fleet.poll_stats()
        totals = dict.fromkeys(self.counts, 0)
        for worker in self.fleet.workers.values():
            for key in totals:
                totals[key] += int((worker.live_stats or {}).get(key, 0))
        return totals

    async def open(self) -> None:
        self._before = await self._counters()
        if self.tracer is not None:
            self.tracer.active = True
        if self._stages:
            self._swap_stage_hists()
        self._cpu0 = time.process_time()

    async def close(self) -> None:
        self.cpu_s += time.process_time() - self._cpu0
        if self.tracer is not None:
            self.tracer.active = False
        if self._stages:
            self._swap_stage_hists()
        after = await self._counters()
        for key in self.counts:
            self.counts[key] += after[key] - self._before[key]

    def stage_quantiles(self) -> Dict[str, float]:
        """Timed-slice stage quantiles, read through the service's
        ``metrics_registry()`` with the timed histograms mounted."""
        if not self._stages:
            return {}
        self._swap_stage_hists()
        try:
            stages = self.handle.metrics_registry().snapshot()
        finally:
            self._swap_stage_hists()
        return {f"serve.{stage}_us_{q}": stages.get(
                    f"trace.stage_us.{stage}.{q}", 0.0)
                for stage, q in (("queue", "p50"), ("queue", "p99"),
                                 ("batch", "p50"), ("kernel", "p50"),
                                 ("kernel", "p99"), ("predict", "p50"))}


def _service_layers(window: _TimedWindow, timed: load.OpenLoopResult) -> dict:
    """Per-layer numbers of the in-process service's timed slices."""
    batches = max(1, window.counts["batches"])
    steps = sum(s for s, ok in zip(timed.steps, timed.ok) if ok)
    out = {
        "serve.kernel_batch_frac": window.counts["kernel_batches"] / batches,
        "serve.mean_batch": len(timed.ok) / batches,
        "serve.cpu_us_per_step": window.cpu_s / max(1, steps) * 1e6,
        "serve.window_repeat_frac": timed.repeats / max(1, len(timed.ok)),
    }
    if window.tracer is not None:
        out.update(window.stage_quantiles())
        out["serve.submit_us_p50"] = window.tracer.layer(
            "serve.submit").us_quantile(0.5)
    return out


def _fleet_layers(window: _TimedWindow, timed: load.OpenLoopResult) -> dict:
    """Per-layer numbers of the fleet's timed slices."""
    batches = max(1, window.counts["batches"])
    answered = [i for i, ok in enumerate(timed.ok) if ok]
    out = {
        "fleet.router_cpu_us_per_req": (window.cpu_s / max(1, len(timed.ok))
                                        * 1e6),
        # Admission returned -> response: pipe, worker and reply path.
        "fleet.unattributed_us_p50": measure.quantile(
            [(timed.done[i] - timed.admitted[i]) * 1e6 for i in answered],
            0.5),
        "fleet.worker_mean_batch": window.counts["served"] / batches,
        "fleet.worker_kernel_batch_frac": (window.counts["kernel_batches"]
                                           / batches),
    }
    if window.tracer is not None:
        wal = window.tracer.layer("fleet.wal_append")
        snapshot = window.tracer.layer("fleet.snapshot")
        out.update({
            "fleet.submit_us_p50": window.tracer.layer(
                "fleet.submit").us_quantile(0.5),
            "fleet.wal_appends": wal.calls,
            "fleet.wal_append_us_p50": wal.us_quantile(0.5),
            "fleet.snapshots": snapshot.calls,
            "fleet.snapshot_s": snapshot.us_quantile(0.5) / 1e6,
        })
    return out


class Measured:
    """What the measured part of a serve run produced.  ``timed_scales``
    holds one host-speed factor per timed request, ``probe_scales`` one
    per capacity probe."""

    def __init__(self, shape: Shape) -> None:
        self.shape = shape
        self.untimed = load.OpenLoopResult()
        self.timed = load.OpenLoopResult()
        self.probes: List[load.ClosedLoopResult] = []
        self.timed_scales: List[float] = []
        self.probe_scales: List[float] = []
        self.host_probes: List[float] = []
        self.layers: dict = {}
        #: Peak RSS of this process, then of each fleet worker.
        self.rss_mb: List[float] = []

    def latencies_ms(self) -> List[float]:
        """Timed latencies, scaled to the reference host where the
        shape says so."""
        if not self.shape.scale_latency:
            return self.timed.latencies_ms()
        return [latency * scale for latency, scale
                in zip(self.timed.latencies_ms(), self.timed_scales)]

    def steps_per_s(self) -> float:
        """Capacity over every probe together, by Little's law (see
        ``load.ClosedLoopResult``) on reference-host response times."""
        steps = sum(s for probe in self.probes for _, s in probe.timed)
        busy = sum(latency * scale
                   for probe, scale in zip(self.probes, self.probe_scales)
                   for latency, _ in probe.timed)
        return (self.probes[0].inflight * steps / busy) if busy > 0 else 0.0


async def _measure(workload: str, shape: Shape, handle, traffic, watch,
                   seconds: float,
                   tracer: Optional[measure.Tracer]) -> Measured:
    """Warm-up, then rounds of settle, timed open-loop slice and
    capacity probe on a set-up system."""
    fleet = handle if workload == "fleet_steps" else None
    children_cpu0 = measure.children_cpu_s()
    if tracer is not None:
        tracer.wrap(handle, "submit",
                    "fleet.submit" if fleet is not None else "serve.submit",
                    keep_durations=True, ident=lambda args: args[0].seq)
        if fleet is not None:
            import repro.serve.fleet as fleet_module
            for worker in fleet.workers.values():
                tracer.wrap(worker.wal, "append", "fleet.wal_append",
                            keep_durations=True)
            # Snapshots fall mostly in the probes: count them all.
            tracer.wrap(fleet_module, "save_snapshot", "fleet.snapshot",
                        keep_durations=True, gated=False)
        tracer.active = False
    window = _TimedWindow(handle, fleet, tracer)
    out = Measured(shape)

    rounds = max(1, int(seconds / ROUND_S))

    def offsets(phase: int, share: float) -> List[float]:
        return load.poisson_offsets(traffic.seed, phase, shape.rate,
                                    seconds * share)

    def requests(share: float) -> int:
        return max(1, round(shape.probe_rate * seconds * share / rounds))

    def host_scale() -> float:
        """Probe the host now; the factor for the phase since the last
        probe."""
        out.host_probes.append(measure.probe_s(BOUNDARY_PROBES))
        return measure.host_scale(*out.host_probes[-2:])

    out.host_probes.append(measure.probe_s(BOUNDARY_PROBES))
    for index in range(rounds):
        settle = offsets(2 * index, WARM_SHARE if index == 0
                         else SETTLE_SHARE / rounds)
        await load.open_loop(handle.submit, traffic, settle, watch,
                             out.untimed)
        await window.open()
        first = len(out.timed.ok)
        await load.open_loop(handle.submit, traffic,
                             offsets(2 * index + 1, TIMED_SHARE / rounds),
                             watch, out.timed)
        await window.close()
        out.timed_scales += [host_scale()] * (len(out.timed.ok) - first)
        out.probes.append(await load.closed_loop(
            handle.submit, traffic, watch, shape.inflight,
            requests(RAMP_SHARE), requests(PROBE_SHARE)))
        out.probe_scales.append(host_scale())
    if fleet is not None:
        layers = _fleet_layers(window, out.timed)
    else:
        layers = _service_layers(window, out.timed)
    out.rss_mb = [measure.self_peak_rss_mb()]
    if fleet is not None:
        stats = fleet.stats()
        out.rss_mb += [measure.vm_hwm_mb(w["pid"])
                       for w in stats["workers"].values() if w["pid"]]
        await fleet.stop()  # reaps the workers, so their CPU is counted
        layers["fleet.worker_cpu_us_per_req"] = (
            (measure.children_cpu_s() - children_cpu0)
            / max(1, stats["totals"]["served"]) * 1e6)
    out.layers = layers
    return out


async def _run(workload: str, seed: int, seconds: float, scale: float,
               tracer: Optional[measure.Tracer], state_root: str) -> dict:
    from repro.api import spec_for
    shape = SHAPES[workload]
    spec = spec_for(shape.kind, **dict(shape.params))
    traffic = load.Traffic(seed, max(16, round(shape.sessions * scale)),
                           ZIPF_S, shape.prefix, shape.window, shape.bank)
    watch = load.Watch(traffic.sample_sessions(SAMPLED_SESSIONS),
                       CHECK_STEPS)
    os.makedirs(state_root, exist_ok=True)
    state_root = tempfile.mkdtemp(dir=state_root)
    setups, host_probes = [], []
    handle = None
    try:
        for _ in range(measure.SETUP_REPEATS):
            if handle is not None:
                await handle.stop()
                handle = None
            before = measure.probe_s(BOUNDARY_PROBES)
            t0 = time.perf_counter()
            handle = await _start(workload, traffic.ids, spec, state_root,
                                  tracer is not None)
            elapsed = time.perf_counter() - t0
            host_probes.append(measure.probe_s(BOUNDARY_PROBES))
            setups.append(elapsed * measure.host_scale(before,
                                                       host_probes[-1]))
        run = await _measure(workload, shape, handle, traffic, watch,
                             seconds, tracer)
    finally:
        if handle is not None:
            await handle.stop()
        shutil.rmtree(state_root, ignore_errors=True)

    problems = check_sessions(watch, spec)
    timed, untimed, probes = run.timed, run.untimed, run.probes
    latencies = run.latencies_ms()
    late_ms = [(s - d) * 1e3 for s, d in zip(timed.sent, timed.scheduled)]
    layers = run.layers
    layers["gen.late_ms_p99"] = measure.quantile(late_ms, 0.99)
    layers["host.canary_ms"] = measure.median(host_probes
                                              + run.host_probes) * 1e3
    metrics = {
        "ops_per_s": run.steps_per_s(),
        "p50_ms": measure.quantile(latencies, 0.50),
        "tail_ms": measure.sliced_quantile(latencies, TAIL_Q),
        "setup_s": measure.median(setups),
        "peak_rss_mb": sum(run.rss_mb),
    }
    probe_failed = sum(probe.failed for probe in probes)
    return {
        "metrics": metrics, "layers": layers,
        "attempted": (len(untimed.ok) + len(timed.ok)
                      + sum(probe.sent for probe in probes)),
        "failed": (untimed.failed + timed.failed + probe_failed
                   + len(problems)),
        "errors": (problems + untimed.errors + timed.errors
                   + [e for probe in probes for e in probe.errors])[:20],
        "info": {"sessions": len(traffic.ids), "rate_rps": shape.rate,
                 "timed_requests": len(timed.ok),
                 "probe_requests": sum(probe.sent for probe in probes),
                 "probe_steps_per_s": [p.steps_per_s() for p in probes],
                 "host_scale": run.probe_scales,
                 "rss_mb": run.rss_mb,
                 "raw_p50_ms": measure.quantile(timed.latencies_ms(), 0.5),
                 "setup_s": setups,
                 "sampled_requests": sum(len(log) for log
                                         in watch.logs.values())},
    }


def run(workload: str, seed: int, seconds: float, scale: float,
        tracer: Optional[measure.Tracer], state_root: str) -> dict:
    return asyncio.run(_run(workload, seed, seconds, scale, tracer,
                            state_root))

"""Realistic load generation for the serve stack.

The closed-loop bench (:mod:`repro.serve.bench`) measures *capacity*:
clients pipeline a window and send the next request when an answer
comes back, so offered load self-throttles to whatever the service can
absorb and latency under overload is invisible.  This module adds the
other half — a *load model* with knobs real traffic has:

Session popularity
    Zipf(s): session ranks are drawn from a Zipf CDF, so a handful of
    hot sessions dominate while a long tail stays almost cold.  The
    model scales to millions of *nameable* sessions because nothing is
    materialised per session until the schedule actually touches it —
    a ``n_sessions=1_000_000`` model opens only the few thousand
    sessions its arrivals hit.

Arrival process
    ``poisson`` (exponential gaps), ``uniform`` (fixed gaps), or
    ``bursty`` (poisson modulated by an on/off square wave — bursts of
    ``burst_factor`` × the base rate for ``burst_fraction`` of each
    period), all at a configured ``rate_rps``.

Loop discipline
    :func:`run_open_loop` submits at the *scheduled* arrival times no
    matter how the service is doing, the way external traffic does.
    Latency is measured from the scheduled arrival (not the submit
    call), so queueing delay when the generator falls behind is
    charged to the service — the coordinated-omission-safe measure.
    Overload therefore shows up honestly: as fat p99/p999 and
    ``retry-after`` rejections (counted, never retried — the loop can
    never deadlock on a saturated service).  :func:`run_closed_loop`
    is the windowed capacity probe, for calibration.

Both loops drive anything with the :class:`~repro.serve.service.
PredictionService` duck type — the single-process service or a
:class:`~repro.serve.fleet.ServeFleet` — which is how the fleet bench
compares the two under identical offered load.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import asyncio

import numpy as np

from repro.api import spec_for
from repro.common.stats import StreamingHistogram
from repro.serve.protocol import ERR_RETRY, PredictRequest

#: Arrival processes the model understands.
ARRIVALS = ("poisson", "uniform", "bursty")


@dataclass(frozen=True)
class LoadModel:
    """One reproducible traffic description.

    ``n_sessions`` bounds the session *id space*; ``zipf_s`` shapes
    popularity (1.0–1.3 are web-like; higher = hotter head).  The
    request stream per arrival is a deterministic function of
    ``seed``, so two runs of the same model offer byte-identical
    traffic — the fleet differential tests depend on this.
    """

    n_sessions: int = 1000
    zipf_s: float = 1.1
    spec_kind: str = "binary.gshare"
    #: Extra PredictorSpec params as (name, value) pairs — a
    #: million-session model wants compact per-session state (e.g.
    #: ``(("history", 7),)`` shrinks a gshare table 16×).
    spec_params: Tuple[Tuple[str, object], ...] = ()
    arrival: str = "poisson"
    rate_rps: float = 5000.0
    seconds: float = 1.0
    clients: int = 8
    seed: int = 0
    burst_factor: float = 8.0
    burst_fraction: float = 0.1
    burst_period_s: float = 0.25
    pc_space: int = 64
    #: Steps per arrival.  1 = each arrival is one ``step`` request;
    #: >1 = each arrival is one ``replay`` request carrying a trace
    #: window of that many consecutive steps (``rate_rps`` stays the
    #: *request* arrival rate, so the offered step rate is
    #: ``rate_rps × chunk_steps``).
    chunk_steps: int = 1

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}")
        if self.rate_rps <= 0 or self.seconds <= 0:
            raise ValueError("rate_rps and seconds must be positive")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.chunk_steps < 1:
            raise ValueError("chunk_steps must be >= 1")


@dataclass
class Schedule:
    """A fully materialised arrival schedule (times + request params).

    With ``chunk_steps == 1``, ``pcs``/``outcomes`` are 1-D (one step
    per arrival); with a window they are ``(arrivals, chunk_steps)``
    and each row is one ``replay`` request's trace window.
    """

    times_s: "np.ndarray"        # scheduled arrival offsets, sorted
    session_ranks: "np.ndarray"  # Zipf rank per arrival (0 = hottest)
    pcs: "np.ndarray"
    outcomes: "np.ndarray"
    chunk_steps: int = 1

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def touched_sessions(self) -> int:
        return int(len(np.unique(self.session_ranks)))

    def request_for(self, i: int, seq: int) -> PredictRequest:
        """The request arrival ``i`` offers (step or replay window)."""
        sid = _session_id(int(self.session_ranks[i]))
        if self.chunk_steps == 1:
            return PredictRequest(sid, op="step", pc=int(self.pcs[i]),
                                  outcome=int(self.outcomes[i]), seq=seq)
        return PredictRequest(
            sid, op="replay", seq=seq,
            pcs=tuple(int(p) for p in self.pcs[i]),
            outcomes=tuple(int(o) for o in self.outcomes[i]))


def _zipf_cdf(n: int, s: float) -> "np.ndarray":
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _arrival_times(model: LoadModel, rng: "np.random.Generator",
                   count_hint: int) -> "np.ndarray":
    """Arrival offsets in [0, seconds) for the model's process."""
    if model.arrival == "uniform":
        gap = 1.0 / model.rate_rps
        return np.arange(0.0, model.seconds, gap, dtype=np.float64)
    # Poisson: exponential gaps, over-draw then trim.
    draw = max(16, int(count_hint * 1.5) + 64)
    gaps = rng.exponential(1.0 / model.rate_rps, size=draw)
    times = np.cumsum(gaps)
    while times[-1] < model.seconds:  # pragma: no cover - rare
        more = rng.exponential(1.0 / model.rate_rps, size=draw)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    times = times[times < model.seconds]
    if model.arrival == "bursty":
        # Thin the poisson stream outside bursts: keep everything in
        # the burst window, keep 1/burst_factor of the rest, so the
        # burst's *instantaneous* rate is burst_factor × the trough.
        phase = np.mod(times, model.burst_period_s) / model.burst_period_s
        in_burst = phase < model.burst_fraction
        keep = in_burst | (rng.random(len(times)) < 1.0 / model.burst_factor)
        times = times[keep]
    return times


def build_schedule(model: LoadModel) -> Schedule:
    """Materialise the model into a deterministic arrival schedule."""
    rng = np.random.default_rng(model.seed)
    count_hint = int(model.rate_rps * model.seconds)
    times = _arrival_times(model, rng, count_hint)
    n = len(times)
    cdf = _zipf_cdf(model.n_sessions, model.zipf_s)
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    shape = (n,) if model.chunk_steps == 1 else (n, model.chunk_steps)
    pcs = 0x400 + (rng.integers(0, model.pc_space, size=shape) * 4)
    outcomes = rng.integers(0, 2, size=shape)
    return Schedule(times_s=times, session_ranks=ranks.astype(np.int64),
                    pcs=pcs.astype(np.int64),
                    outcomes=outcomes.astype(np.int64),
                    chunk_steps=model.chunk_steps)


def _session_id(rank: int) -> str:
    return f"z{rank:07d}"


async def open_touched_sessions(service, model: LoadModel,
                                schedule: Schedule,
                                concurrency: int = 256) -> int:
    """Open every session the schedule will touch (setup phase, not
    part of the timed run).  Opens are pipelined ``concurrency`` at a
    time — with tens of thousands of touched sessions, one awaited
    round trip each would dominate the setup."""
    spec = spec_for(model.spec_kind, **dict(model.spec_params))
    ranks = np.unique(schedule.session_ranks).tolist()
    for start in range(0, len(ranks), concurrency):
        await asyncio.gather(*(
            service.open_session(_session_id(rank), spec)
            for rank in ranks[start:start + concurrency]))
    return len(ranks)


def _summarise(hist: StreamingHistogram) -> Dict[str, float]:
    if not hist.count:
        return {"count": 0}
    qs = hist.quantiles((0.50, 0.90, 0.99, 0.999))
    return {"count": hist.count, "mean": hist.mean(), "max": hist.max,
            "p50": qs[0.50], "p90": qs[0.90], "p99": qs[0.99],
            "p999": qs[0.999]}


class _Tally:
    """Shared accounting across client coroutines."""

    def __init__(self) -> None:
        self.submitted = 0
        self.ok = 0
        self.rejected = 0
        self.errors = 0
        self.latency_us = StreamingHistogram("latency_us")

    def settle(self, response, sched_t: float, t0: float) -> None:
        if response.ok:
            self.ok += 1
            self.latency_us.record(
                (time.perf_counter() - (t0 + sched_t)) * 1e6)
        elif response.error == ERR_RETRY:
            self.rejected += 1
        else:
            self.errors += 1


async def run_open_loop(service, model: LoadModel,
                        schedule: Optional[Schedule] = None,
                        open_sessions: bool = True,
                        settle_timeout_s: float = 60.0
                        ) -> Dict[str, object]:
    """Offer the schedule at its scheduled times, come what may.

    Returns a report dict (see module docstring for the measurement
    discipline).  ``service`` is anything with the PredictionService
    duck type; pass ``open_sessions=False`` when the touched sessions
    are already open.  ``lost`` in the report counts accepted requests
    whose future never resolved within ``settle_timeout_s`` of the last
    arrival — the zero-lost invariant the chaos scenarios assert.
    """
    if schedule is None:
        schedule = build_schedule(model)
    touched = schedule.touched_sessions
    if open_sessions:
        await open_touched_sessions(service, model, schedule)
    times = schedule.times_s
    tally = _Tally()
    n = len(schedule)

    async def client(which: int) -> None:
        # Client `which` owns every (i % clients == which) arrival, so
        # the interleaved schedule is split without reordering.
        loop_t0 = t0
        for i in range(which, n, model.clients):
            sched_t = float(times[i])
            ahead = (loop_t0 + sched_t) - time.perf_counter()
            if ahead > 0.0005:
                await asyncio.sleep(ahead)
            request = schedule.request_for(i, seq=i)
            tally.submitted += 1
            future = service.submit(request)
            future.add_done_callback(
                lambda f, s=sched_t: tally.settle(f.result(), s, loop_t0))
            # Open loop: do NOT await the future; yield so the service
            # and the response path get the loop between submits.
            if i % 64 == which % 64:
                await asyncio.sleep(0)

    t0 = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(model.clients)))
    # Arrivals are all offered; wait for in-flight answers (bounded —
    # a lost future must surface as `lost`, not a hang).
    settle_deadline = time.perf_counter() + settle_timeout_s
    while (tally.ok + tally.rejected + tally.errors < tally.submitted
           and time.perf_counter() < settle_deadline):
        await asyncio.sleep(0.002)
    duration = time.perf_counter() - t0
    return {
        "loop": "open",
        "model": asdict(model),
        "arrivals": n,
        "sessions_touched": touched,
        "submitted": tally.submitted,
        "ok": tally.ok,
        "rejected": tally.rejected,
        "errors": tally.errors,
        "lost": tally.submitted - (tally.ok + tally.rejected
                                   + tally.errors),
        "duration_s": duration,
        "offered_rps": n / model.seconds,
        "achieved_rps": tally.ok / duration if duration > 0 else 0.0,
        "chunk_steps": model.chunk_steps,
        "achieved_steps_rps": (tally.ok * model.chunk_steps / duration
                               if duration > 0 else 0.0),
        "latency_us": _summarise(tally.latency_us),
    }


async def run_closed_loop(service, model: LoadModel, window: int = 32,
                          open_sessions: bool = True) -> Dict[str, object]:
    """Windowed capacity probe: each client keeps ``window`` requests
    pipelined for ``model.seconds`` (rate_rps is ignored; the point is
    to find the ceiling)."""
    schedule = build_schedule(model)
    if open_sessions:
        await open_touched_sessions(service, model, schedule)
    n = max(1, len(schedule))
    tally = _Tally()
    deadline = time.perf_counter() + model.seconds
    seq_base = [0]

    async def client(which: int) -> None:
        cursor = which
        while time.perf_counter() < deadline:
            futures = []
            start = time.perf_counter()
            for _ in range(window):
                i = cursor % n
                cursor += model.clients
                seq = seq_base[0]
                seq_base[0] += 1
                request = schedule.request_for(i, seq=seq)
                tally.submitted += 1
                futures.append(service.submit(request))
            for future in futures:
                response = await future
                if response.ok:
                    tally.ok += 1
                    tally.latency_us.record(
                        (time.perf_counter() - start) * 1e6)
                elif response.error == ERR_RETRY:
                    tally.rejected += 1
                    await asyncio.sleep(
                        (response.retry_after_us or 1000) / 1e6)
                else:
                    tally.errors += 1

    t0 = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(model.clients)))
    duration = time.perf_counter() - t0
    return {
        "loop": "closed",
        "model": asdict(model),
        "window": window,
        "sessions_touched": schedule.touched_sessions,
        "submitted": tally.submitted,
        "ok": tally.ok,
        "rejected": tally.rejected,
        "errors": tally.errors,
        "duration_s": duration,
        "achieved_rps": tally.ok / duration if duration > 0 else 0.0,
        "chunk_steps": model.chunk_steps,
        "achieved_steps_rps": (tally.ok * model.chunk_steps / duration
                               if duration > 0 else 0.0),
        "latency_us": _summarise(tally.latency_us),
    }

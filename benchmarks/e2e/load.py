"""The benchmark's own load driver.

Kept apart from ``repro.serve.loadgen`` so a change to the program's
load generator cannot move this yardstick.  Everything runs on the
caller's event loop: the open loop is one coroutine, the closed loop is
driven by completion callbacks plus one waiting coroutine, and no
thread is started.

``Traffic`` is the seeded request stream: a Zipf choice of session per
request and, per session, either fresh single steps or a cycle through
a fixed bank of ``replay`` windows (the recurring-window property hot
paths speculate on).  The same seed gives the same stream whatever the
phase boundaries are.

The open loop sends request *i* at its scheduled offset and times it
from that offset, so a stall is charged to every request it delays;
``sent - scheduled`` is kept as the generator's lateness.  The closed
loop sends a fixed number of requests, keeping a fixed number in flight
and sending a new one as each completes, and reports completed steps
per second.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Load PCs are drawn from this many distinct values; the int objects
#: are shared so large window banks cost one pointer per step.
PC_SPACE = 64
#: Share of steps whose outcome is a hit.
HIT_RATE = 0.9


class Traffic:
    """Seeded request stream over ``n_sessions`` Zipf-ranked sessions."""

    def __init__(self, seed: int, n_sessions: int, zipf_s: float,
                 prefix: str, window: int = 1, bank: int = 0) -> None:
        self.seed = seed
        self.window = window
        self.bank = bank
        self.rng = np.random.default_rng((seed, 1))
        weights = 1.0 / np.power(np.arange(1, n_sessions + 1,
                                           dtype=np.float64), zipf_s)
        self.cdf = np.cumsum(weights)
        self.cdf /= self.cdf[-1]
        self.ids = [f"{prefix}{rank:05d}" for rank in range(n_sessions)]
        self.pcs = [0x400 + 4 * k for k in range(PC_SPACE)]
        self._ranks: List[int] = []
        self._banks: Dict[int, list] = {}
        self._visits: Dict[int, int] = {}
        self.seq = 0

    def sample_sessions(self, count: int) -> List[str]:
        """``count`` distinct sessions drawn by popularity (seeded), so
        the sampled ones see traffic."""
        rng = np.random.default_rng((self.seed, 2))
        chosen: List[int] = []
        while len(chosen) < min(count, len(self.ids)):
            rank = int(np.searchsorted(self.cdf, rng.random(), "right"))
            if rank not in chosen:
                chosen.append(rank)
        return [self.ids[rank] for rank in chosen]

    def _next_rank(self) -> int:
        if not self._ranks:
            draws = np.searchsorted(self.cdf, self.rng.random(4096), "right")
            self._ranks = draws.tolist()[::-1]
        return self._ranks.pop()

    def _window(self, rank: int, index: int) -> Tuple[tuple, tuple]:
        bank = self._banks.get(rank)
        if bank is None:
            rng = np.random.default_rng((self.seed, 3, rank))
            pcs = self.pcs
            bank = self._banks[rank] = [
                (tuple(pcs[k] for k in rng.integers(0, PC_SPACE,
                                                    self.window).tolist()),
                 tuple((rng.random(self.window) < HIT_RATE).astype(int)
                       .tolist()))
                for _ in range(self.bank)]
        return bank[index]

    def next(self):
        """``(request, steps, repeat)``: the stream's next request, how
        many predictor steps it carries, and whether the same session
        was offered the same window before."""
        from repro.serve import PredictRequest
        rank = self._next_rank()
        self.seq += 1
        sid = self.ids[rank]
        if self.window == 1:
            pc = self.pcs[int(self.rng.integers(0, PC_SPACE))]
            outcome = int(self.rng.random() < HIT_RATE)
            return (PredictRequest(sid, op="step", pc=pc, outcome=outcome,
                                   seq=self.seq), 1, False)
        visit = self._visits.get(rank, 0)
        self._visits[rank] = visit + 1
        pcs, outcomes = self._window(rank, visit % self.bank)
        return (PredictRequest(sid, op="replay", pcs=pcs, outcomes=outcomes,
                               seq=self.seq), self.window, visit >= self.bank)


def poisson_offsets(seed: int, phase: int, rate: float,
                    seconds: float) -> List[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)``."""
    rng = np.random.default_rng((seed, 4, phase))
    count = int(rate * seconds * 1.3) + 64
    offsets = np.cumsum(rng.exponential(1.0 / rate, count))
    while offsets[-1] < seconds:
        more = np.cumsum(rng.exponential(1.0 / rate, count))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < seconds].tolist()


class Watch:
    """Admission-order log of the requests to a few sampled sessions,
    with their responses, for the post-run correctness replay.

    Each session's log stops after ``max_steps`` predictor steps: the
    replay is scalar Python, and a prefix of a session's stream checks
    exactly the state evolution it covers."""

    def __init__(self, session_ids: Sequence[str], max_steps: int) -> None:
        self.logs: Dict[str, List[list]] = {sid: [] for sid in session_ids}
        self.max_steps = max_steps
        self._steps: Dict[str, int] = dict.fromkeys(session_ids, 0)

    def admit(self, request, steps: int) -> Optional[list]:
        sid = request.session_id
        logged = self._steps.get(sid)
        if logged is None or logged >= self.max_steps:
            return None
        self._steps[sid] = logged + steps
        entry = [request, None]
        self.logs[sid].append(entry)
        return entry


class OpenLoopResult:
    """Per-request timestamps (perf_counter s) of the open-loop phases
    appended to it, in send order."""

    def __init__(self) -> None:
        self.scheduled: List[float] = []
        self.sent: List[float] = []
        self.admitted: List[float] = []
        self.done: List[float] = []
        self.ok: List[bool] = []
        self.steps: List[int] = []
        self.repeats = 0
        self.errors: List[str] = []

    def latencies_ms(self) -> List[float]:
        """Scheduled arrival to response; ``inf`` for a refused, failed
        or lost request."""
        return [(done - sched) * 1e3 if ok else math.inf
                for sched, done, ok in zip(self.scheduled, self.done,
                                           self.ok)]

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)


async def open_loop(submit: Callable, traffic: Traffic,
                    offsets: Sequence[float], watch: Watch,
                    out: OpenLoopResult, settle_s: float = 30.0) -> None:
    """Send one request per offset at its scheduled time (module
    docstring) and append them to ``out``; waits up to ``settle_s`` for
    the last answers, after which the rest count as lost."""
    clock = time.perf_counter
    first = len(out.ok)
    n = len(offsets)
    out.scheduled += [0.0] * n
    out.sent += [0.0] * n
    out.admitted += [0.0] * n
    out.done += [math.nan] * n
    out.ok += [False] * n
    out.steps += [0] * n
    pending = set()
    closed = [False]

    def settle(index: int, entry: Optional[list], future) -> None:
        if closed[0]:
            return
        out.done[index] = clock()
        pending.discard(future)
        if future.cancelled():
            return
        response = future.result()
        out.ok[index] = bool(response.ok)
        if not response.ok and len(out.errors) < 20:
            out.errors.append(f"{response.session_id}#{response.seq}: "
                              f"{response.error}")
        if entry is not None:
            entry[1] = response

    t0 = clock()
    for index, offset in enumerate(offsets, first):
        due = t0 + offset
        ahead = due - clock()
        if ahead > 0:
            await asyncio.sleep(ahead)
        request, steps, repeat = traffic.next()
        entry = watch.admit(request, steps)
        out.scheduled[index] = due
        out.sent[index] = clock()
        future = submit(request)
        out.admitted[index] = clock()
        out.steps[index] = steps
        out.repeats += repeat
        pending.add(future)
        future.add_done_callback(
            lambda f, i=index, e=entry: settle(i, e, f))
    if pending:
        await asyncio.wait(set(pending), timeout=settle_s)
    closed[0] = True


class ClosedLoopResult:
    def __init__(self, inflight: int) -> None:
        self.inflight = inflight
        self.sent = 0
        self.ok = 0
        #: ``(response time, steps)`` of each answered request sent
        #: after the ramp.
        self.timed: List[Tuple[float, int]] = []
        self.errors: List[str] = []

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    def steps_per_s(self) -> float:
        """Completed steps per second by Little's law: requests in
        flight × steps per request ÷ mean response time.  Unlike
        counting completions in a window it does not depend on where
        batch-sized bursts of completions fall."""
        busy = sum(latency for latency, _ in self.timed)
        return (self.inflight * sum(steps for _, steps in self.timed) / busy
                if busy > 0 else 0.0)


async def closed_loop(submit: Callable, traffic: Traffic, watch: Watch,
                      inflight: int, ramp: int, count: int,
                      timeout_s: float = 30.0) -> ClosedLoopResult:
    """Send ``ramp + count`` requests, keeping ``inflight`` outstanding
    and sending a new one as each completes, then wait for the last
    ones; after ``timeout_s`` the unanswered ones count as lost.  The
    last ``count`` requests sent are timed.  A fixed number of requests,
    not a fixed time, keeps the request stream the same for a given
    seed on a fast host and a slow one."""
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    out = ClosedLoopResult(inflight)
    finished = loop.create_future()
    outstanding = [0]
    total = ramp + count

    def issue() -> None:
        request, steps, _ = traffic.next()
        entry = watch.admit(request, steps)
        timed = out.sent >= ramp
        out.sent += 1
        outstanding[0] += 1
        sent = clock()
        submit(request).add_done_callback(
            lambda f: complete(f, sent, steps, entry, timed))

    def complete(future, sent: float, steps: int, entry: Optional[list],
                 timed: bool) -> None:
        now = clock()
        outstanding[0] -= 1
        response = None if future.cancelled() else future.result()
        if entry is not None:
            entry[1] = response
        if response is not None and response.ok:
            out.ok += 1
            if timed:
                out.timed.append((now - sent, steps))
        elif len(out.errors) < 20:
            out.errors.append(f"request {getattr(response, 'seq', '?')}: "
                              f"{getattr(response, 'error', 'cancelled')}")
        if out.sent < total:
            issue()
        elif outstanding[0] == 0 and not finished.done():
            finished.set_result(None)

    for _ in range(min(inflight, total)):
        issue()
    try:
        await asyncio.wait_for(finished, timeout_s)
    except asyncio.TimeoutError:
        pass  # lost requests: sent - ok counts them
    return out

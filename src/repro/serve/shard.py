"""A single-writer worker shard: bounded queue → micro-batches.

Each shard owns the sessions hashed onto it and is the only task that
ever touches their predictor tables — the lock-free invariant the
sharding exists for.  Its loop:

1. block on the first queued item;
2. coalesce more items until ``max_batch`` or ``max_delay_us`` after
   the first item (the flush policy);
3. execute the batch: controls are barriers, data requests group by
   session with per-session order preserved, maximal ``step`` runs go
   to the fast-path kernels (:mod:`repro.serve.batch`);
4. resolve each item's future with its :class:`PredictResponse`.

Admission happens on the *caller's* side (:meth:`Shard.try_submit`):
a full queue returns a ``retry-after`` rejection instead of blocking,
which is the whole backpressure story — nothing in the service ever
buffers unboundedly.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from typing import Dict, List, Optional

from repro.common.stats import StreamingHistogram
from repro.fastpath.hottrace import HotTraceEngine
from repro.obs.events import EventKind
from repro.serve.batch import (
    VIA_HOTTRACE,
    VIA_KERNEL,
    apply_predict,
    apply_update,
    execute_replay_ex,
    execute_steps_ex,
)
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_UNKNOWN_SESSION,
    PredictRequest,
    PredictResponse,
)
from repro.serve.session import Session


def _now_us() -> int:
    return time.monotonic_ns() // 1000


class _Item:
    """One queued request with its response future and (optional)
    trace span — the span rides the queue with the request so every
    stage mark lands on the right timeline."""

    __slots__ = ("request", "future", "span")

    def __init__(self, request: PredictRequest,
                 future: "asyncio.Future[PredictResponse]",
                 span=None) -> None:
        self.request = request
        self.future = future
        self.span = span


class _Control:
    """A barrier op executed by the shard task (open/close/snapshot/
    restore/drain).  ``payload`` is op-specific; the future resolves
    with the op's result."""

    __slots__ = ("op", "payload", "future")

    def __init__(self, op: str, payload: object,
                 future: "asyncio.Future") -> None:
        self.op = op
        self.payload = payload
        self.future = future


class Shard:
    """One worker shard (see module docstring)."""

    def __init__(self, index: int, config: ServeConfig, obs=None,
                 tracer=None) -> None:
        self.index = index
        self.config = config
        self.obs = obs
        self.tracer = tracer
        #: Micro-batch size distribution (one record per flush) for the
        #: live dashboard; bounded memory whatever the flush rate.
        self.batch_sizes = StreamingHistogram("batch_size")
        self.sessions: Dict[str, Session] = {}
        #: Created in :meth:`start`, inside the running loop — keeps
        #: construction loop-agnostic on every supported Python.
        self.queue: Optional["asyncio.Queue"] = None
        self.task: Optional["asyncio.Task"] = None
        self.served = 0
        self.batches = 0
        self.kernel_batches = 0
        self.rejected = 0
        self.max_batch_seen = 0
        #: The execution policy all runs on this shard follow.
        self.policy = config.policy
        #: Guarded memoized replay of recurring step windows.
        self.hottrace = HotTraceEngine()
        #: Vectorized-eligible runs that landed on the scalar loop
        #: (satellite of docs/serving.md: capacity numbers must not be
        #: quietly off).  The obs event fires once per (session,
        #: reason); the counter counts every degraded run.
        self.degraded = 0
        self._degrade_announced: set = set()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.task is None:
            self.queue = asyncio.Queue(maxsize=self.config.queue_depth)
            self.task = asyncio.get_running_loop().create_task(
                self._run(), name=f"repro-serve-shard-{self.index}")

    async def drain(self) -> None:
        """Process everything already admitted, then stop the task."""
        if self.task is None:
            return
        future = asyncio.get_running_loop().create_future()
        await self.queue.put(_Control("drain", None, future))
        await future
        await self.task
        self.task = None
        if self.obs is not None:
            self.obs.emit(EventKind.SERVE_DRAIN, _now_us(),
                          shard=self.index, served=self.served)

    # -- admission (runs on the caller's task) ------------------------------

    def try_submit(self, request: PredictRequest,
                   future: "asyncio.Future[PredictResponse]",
                   span=None) -> bool:
        """Admit a data request, or reject with ``retry-after``."""
        try:
            self.queue.put_nowait(_Item(request, future, span))
        except asyncio.QueueFull:
            self.rejected += 1
            if self.obs is not None:
                self.obs.emit(EventKind.SERVE_REJECT, _now_us(),
                              shard=self.index, depth=self.queue.qsize())
            return False
        if self.obs is not None:
            self.obs.emit(EventKind.SERVE_ENQUEUE, _now_us(),
                          shard=self.index, depth=self.queue.qsize())
        return True

    async def control(self, op: str, payload: object = None) -> object:
        """Enqueue a barrier op and await its result.

        Controls use a (briefly) blocking put: they are rare,
        client-serialised, and must not be lost to backpressure.
        """
        future = asyncio.get_running_loop().create_future()
        await self.queue.put(_Control(op, payload, future))
        return await future

    # -- the single-writer loop ---------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        delay_s = self.config.max_delay_us / 1e6
        draining = False
        batch: List[object] = []
        try:
            while not draining:
                batch = [await self.queue.get()]
                if delay_s > 0 and self.config.max_batch > 1:
                    deadline = loop.time() + delay_s
                    while len(batch) < self.config.max_batch:
                        try:
                            batch.append(self.queue.get_nowait())
                            continue
                        except asyncio.QueueEmpty:
                            pass
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            break
                        try:
                            batch.append(await asyncio.wait_for(
                                self.queue.get(), remaining))
                        except asyncio.TimeoutError:
                            break
                draining = self._execute(batch)
                batch = []
            # Drain residue: everything admitted before the barrier.
            residue: List[object] = []
            while True:
                try:
                    residue.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            if residue:
                self._execute(residue)
        except asyncio.CancelledError:
            # Hard cancellation (no drain barrier): every admitted
            # request — mid-coalesce or still queued — must still get
            # an answer, or its submitter awaits a future that can
            # never resolve.  Fail them all, then propagate.
            self._abort_pending(batch)
            raise

    def _abort_pending(self, batch: List[object]) -> None:
        """Resolve every in-flight future after a hard cancellation:
        data items get an in-band internal error, control barriers are
        cancelled so their awaiters see the cancellation."""
        pending = list(batch)
        if self.queue is not None:
            while True:
                try:
                    pending.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
        for entry in pending:
            if isinstance(entry, _Item):
                if not entry.future.done():
                    entry.future.set_result(PredictResponse(
                        session_id=entry.request.session_id,
                        seq=entry.request.seq, ok=False,
                        error=f"{ERR_INTERNAL}: shard cancelled"))
                self._finish_span(entry)
            elif not entry.future.done():
                entry.future.cancel()

    def _execute(self, batch: List[object]) -> bool:
        """Run one flushed batch; returns True when draining started."""
        self.batches += 1
        self.max_batch_seen = max(self.max_batch_seen, len(batch))
        self.batch_sizes.record(len(batch))
        # Coalescing is over: the queue stage of every traced request
        # in this flush ends here.
        for entry in batch:
            if isinstance(entry, _Item) and entry.span is not None:
                entry.span.mark("queue")
        draining = False
        used_kernel = False
        # Controls are barriers: flush accumulated data groups first.
        pending: List[_Item] = []
        for entry in batch:
            if isinstance(entry, _Item):
                pending.append(entry)
                continue
            used_kernel |= self._execute_data(pending)
            pending = []
            if entry.op == "drain":
                draining = True
                entry.future.set_result(None)
            else:
                self._execute_control(entry)
        used_kernel |= self._execute_data(pending)
        if used_kernel:
            self.kernel_batches += 1
        if self.obs is not None:
            self.obs.emit(EventKind.SERVE_FLUSH, _now_us(),
                          shard=self.index, batch=len(batch),
                          depth=self.queue.qsize(),
                          vectorized=used_kernel)
        return draining

    # -- data requests -------------------------------------------------------

    def _execute_data(self, items: List[_Item]) -> bool:
        """Group by session, execute, resolve futures.  Returns True
        when any group went through a fast-path kernel."""
        if not items:
            return False
        by_session: Dict[str, List[_Item]] = {}
        for item in items:
            by_session.setdefault(item.request.session_id, []).append(item)
        used_kernel = False
        # Resolved once per batch, the way Machine.run resolves per run.
        backend = self.policy.resolved_backend()
        check = self.policy.invariants_active()
        for session_id, group in by_session.items():
            session = self.sessions.get(session_id)
            if session is None:
                for item in group:
                    item.future.set_result(PredictResponse(
                        session_id=session_id, seq=item.request.seq,
                        ok=False, error=ERR_UNKNOWN_SESSION))
                    self._finish_span(item)
                continue
            used_kernel |= self._execute_session(session, group, backend,
                                                 check)
        return used_kernel

    def _note_degrade(self, session: Session,
                      reason: Optional[str]) -> None:
        """Account a long-enough run that fell off the vectorized path,
        as the executor reported it (counter always, obs event once per
        (session, reason))."""
        if reason is None:
            return
        self.degraded += 1
        key = (session.session_id, reason)
        if self.obs is not None and key not in self._degrade_announced:
            self._degrade_announced.add(key)
            self.obs.emit(EventKind.SERVE_DEGRADE, _now_us(),
                          shard=self.index, session=session.session_id,
                          reason=reason)

    def _note_hottrace(self) -> None:
        """Surface hot-trace guard aborts as obs events (the counters
        themselves live on the engine and flow out via stats).  The
        engine records one ``(session_id, guard)`` entry per abort, so
        every abort gets its own event, attributed to the session that
        actually aborted — not the session executing at drain time."""
        for session_id, guard in self.hottrace.drain_abort_events():
            if self.obs is not None:
                self.obs.emit(EventKind.HOTTRACE_ABORT, _now_us(),
                              shard=self.index, session=session_id,
                              guard=guard)

    def _execute_session(self, session: Session, group: List[_Item],
                         backend: str, check: bool) -> bool:
        """Execute one session's slice of the batch, in arrival order,
        splitting maximal ``step`` runs out for the kernels."""
        used_kernel = False
        run: List[_Item] = []
        try:
            for item in group:
                if item.request.op == "step":
                    run.append(item)
                    continue
                used_kernel |= self._flush_run(session, run, backend,
                                               check)
                run = []
                if item.request.op == "replay":
                    used_kernel |= self._apply_replay(session, item,
                                                      backend, check)
                else:
                    self._apply_single(session, item)
            used_kernel |= self._flush_run(session, run, backend, check)
        except asyncio.CancelledError:
            # Never convert a cancellation into an in-band error: the
            # task-level handler resolves the outstanding futures and
            # the cancellation must keep propagating.
            raise
        except Exception as exc:  # surface, don't kill the shard
            detail = f"{type(exc).__name__}: {exc}"
            cause = exc.__cause__
            if cause is not None:
                # The in-band error string is all the client ever
                # sees — keep the causal chain instead of dropping it.
                detail += f" (caused by {type(cause).__name__}: {cause})"
            for item in group:
                if not item.future.done():
                    item.future.set_result(PredictResponse(
                        session_id=session.session_id,
                        seq=item.request.seq, ok=False,
                        error=f"{ERR_INTERNAL}: {detail}"))
                self._finish_span(item)
        return used_kernel

    def _finish_span(self, item: _Item) -> None:
        """Close a traced request's timeline (idempotent)."""
        if item.span is not None and not item.span.done:
            item.span.mark("reply")
            if self.tracer is not None:
                self.tracer.finish(item.span)

    def _flush_run(self, session: Session, run: List[_Item],
                   backend: str, check: bool) -> bool:
        if not run:
            return False
        spans = [item.span for item in run if item.span is not None]
        for span in spans:
            span.mark("batch")
        results, via, degrade = execute_steps_ex(
            session, [item.request for item in run], backend,
            self.config.min_kernel_run, self.hottrace, check)
        used_kernel = via == VIA_KERNEL
        self._note_degrade(session, degrade)
        self._note_hottrace()
        stage = ("kernel" if used_kernel
                 else "hottrace" if via == VIA_HOTTRACE else "predict")
        for span in spans:
            span.mark(stage)
        session.served += len(run)
        self.served += len(run)
        sid = session.session_id
        for item, result in zip(run, results):
            item.future.set_result(PredictResponse(
                session_id=sid, seq=item.request.seq, result=result))
            self._finish_span(item)
        return used_kernel

    def _apply_single(self, session: Session, item: _Item) -> None:
        request = item.request
        if item.span is not None:
            item.span.mark("batch")
        if request.op == "predict":
            result: Optional[int] = apply_predict(
                session.family, session.predictor, request.pc)
        elif request.op == "update":
            if request.outcome is None:
                item.future.set_result(PredictResponse(
                    session_id=session.session_id, seq=request.seq,
                    ok=False,
                    error=f"{ERR_BAD_REQUEST}: update requires outcome"))
                self._finish_span(item)
                return
            apply_update(session.family, session.predictor, request.pc,
                         int(request.outcome), distance=request.distance,
                         address=request.address)
            # Out-of-band mutation: break the hot-trace digest chain so
            # stale captures can never guard-pass.
            HotTraceEngine.note_mutation(session)
            result = None
        else:  # pragma: no cover - op validation happens at decode
            item.future.set_result(PredictResponse(
                session_id=session.session_id, seq=request.seq, ok=False,
                error=f"{ERR_BAD_REQUEST}: unexpected op {request.op!r}"))
            self._finish_span(item)
            return
        if item.span is not None:
            item.span.mark("predict")
        session.served += 1
        self.served += 1
        item.future.set_result(PredictResponse(
            session_id=session.session_id, seq=request.seq, result=result))
        self._finish_span(item)

    def _apply_replay(self, session: Session, item: _Item,
                      backend: str, check: bool) -> bool:
        """One trace-window request: the whole window executes as a
        single run (kernel rules of :func:`~repro.serve.batch.
        execute_replay_ex`); ``served`` counts its steps."""
        if item.span is not None:
            item.span.mark("batch")
        digest, n_steps, via, degrade = execute_replay_ex(
            session, item.request, backend,
            self.config.min_kernel_run, self.hottrace, check)
        used_kernel = via == VIA_KERNEL
        self._note_degrade(session, degrade)
        self._note_hottrace()
        if item.span is not None:
            item.span.mark("kernel" if used_kernel
                           else "hottrace" if via == VIA_HOTTRACE
                           else "predict")
        session.served += n_steps
        self.served += n_steps
        item.future.set_result(PredictResponse(
            session_id=session.session_id, seq=item.request.seq,
            result=digest))
        self._finish_span(item)
        return used_kernel

    # -- control ops ---------------------------------------------------------

    def _execute_control(self, entry: _Control) -> None:
        try:
            if entry.op == "open":
                session_id, spec = entry.payload
                existing = self.sessions.get(session_id)
                if existing is not None and existing.spec != spec:
                    raise ValueError(
                        f"session {session_id!r} already open with a "
                        f"different spec ({existing.spec.kind})")
                if existing is None:
                    self.sessions[session_id] = Session(session_id, spec)
                entry.future.set_result(None)
            elif entry.op == "close":
                session = self.sessions.pop(entry.payload, None)
                entry.future.set_result(
                    session.served if session is not None else None)
            elif entry.op == "snapshot":
                # Encoded here, at the barrier, exactly once: the blob
                # is this instant's state, shares nothing with the live
                # predictor, and travels opaque until a restore.
                entry.future.set_result({
                    session_id: pickle.dumps(session.state_dict(),
                                             protocol=pickle.HIGHEST_PROTOCOL)
                    for session_id, session in self.sessions.items()})
            elif entry.op == "restore":
                for session_id, blob in entry.payload.items():
                    self.sessions[session_id] = Session.from_state_dict(
                        session_id, pickle.loads(blob))
                entry.future.set_result(None)
            else:
                raise ValueError(f"unknown control op {entry.op!r}")
        except asyncio.CancelledError:
            raise  # cancellation is the task's to handle, not a result
        except Exception as exc:
            # set_exception keeps the full traceback chain for the
            # awaiter (unlike stringified in-band errors).
            entry.future.set_exception(exc)

    def stats(self) -> Dict[str, object]:
        return {
            "sessions": len(self.sessions), "served": self.served,
            "batches": self.batches,
            "kernel_batches": self.kernel_batches,
            "rejected": self.rejected,
            "max_batch": self.max_batch_seen,
            "degraded": self.degraded,
            "depth": self.queue.qsize() if self.queue else 0,
            "hottrace": self.hottrace.counters.as_dict()}

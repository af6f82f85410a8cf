"""Serial and pooled job execution with deterministic merging.

``run_jobs(jobs)`` is the one entry point: it executes every job —
in-process, or fanned out over a ``multiprocessing`` pool — and returns
their results *in submission order*.  Completion order never leaks into
results, so a grid run with ``workers=N`` is bit-identical to the
serial run.

Execution is configured by an ambient :class:`ExecutionPlan` (installed
with the :func:`execution` context manager, usually by the CLI) so the
experiment modules never thread worker/cache knobs through their
signatures; calling ``run_jobs`` outside any context runs serially with
no cache — exactly the pre-parallel behaviour.

Failure semantics:

* A job that raises aborts the grid with :class:`JobFailure`, carrying
  the job and its original traceback.  It is not retried: jobs are pure
  functions of their parameters, so it would raise the same way again.
* A worker-pool death (a worker segfaulted, was OOM-killed, or a chaos
  plan ``os._exit``-ed it) loses *no finished work*: done results are
  harvested, the pool is rebuilt, and unfinished jobs are resubmitted —
  up to :data:`MAX_POOL_REBUILDS` times, after which the remaining jobs
  fall back to serial in-process execution (where chaos kills never
  fire, by construction).  Both are counted on the :class:`RunReport`.

``KeyboardInterrupt`` terminates worker processes (no orphans), drops
queued jobs, and propagates.
"""

from __future__ import annotations

import contextlib
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.cache import ResultCache
from repro.parallel.jobs import SimJob
from repro.parallel.worker import (
    ensure_runners_registered,
    execute_one,
    pool_initializer,
    run_job_payload,
)

#: Worker-pool deaths tolerated (rebuild + resubmit) in one grid before
#: the remaining jobs fall back to serial execution.
MAX_POOL_REBUILDS = 2


@dataclass(frozen=True)
class ExecutionPlan:
    """How a grid of jobs should be executed.

    ``workers <= 1`` runs serially in-process; ``cache_dir=None`` or
    ``use_cache=False`` disables the disk cache.  ``fault_plan`` is an
    optional :class:`repro.robust.faults.FaultPlan` shipped to the pool
    workers — the chaos-testing hook; its kills only ever fire inside
    pool workers.
    """

    workers: int = 0
    cache_dir: Optional[str] = None
    use_cache: bool = True
    fault_plan: Optional[object] = None

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    @property
    def effective_cache_dir(self) -> Optional[str]:
        return self.cache_dir if self.use_cache else None


SERIAL_PLAN = ExecutionPlan()


class JobFailure(RuntimeError):
    """A job raised; carries the original context."""

    def __init__(self, job: SimJob, detail: str, attempts: int = 1) -> None:
        super().__init__(
            f"simulation job {job.describe()} failed "
            f"after {attempts} attempt(s):\n{detail}")
        self.job = job
        self.detail = detail
        self.attempts = attempts


@dataclass
class JobRecord:
    """Bookkeeping for one executed job (manifests, timing breakdowns)."""

    kind: str
    key: Tuple[object, ...]
    wall_seconds: float
    cache_hit: bool
    worker: str  # "serial" or the worker pid
    figure: str = ""
    attempts: int = 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "key": list(self.key),
            "wall_seconds": self.wall_seconds,
            "cache_hit": self.cache_hit,
            "worker": self.worker,
            "figure": self.figure,
            "attempts": self.attempts,
        }


@dataclass
class RunReport:
    """Accumulated job records for one :func:`execution` context."""

    records: List[JobRecord] = field(default_factory=list)
    workers: int = 0
    cache_dir: Optional[str] = None
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    failures: List[Dict[str, object]] = field(default_factory=list)

    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def n_cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def cache_hit_rate(self) -> float:
        return self.n_cache_hits / self.n_jobs if self.records else 0.0

    @property
    def sim_seconds(self) -> float:
        """Total in-job wall clock (summed across workers)."""
        return sum(r.wall_seconds for r in self.records)

    @property
    def degraded(self) -> bool:
        """Did any figure fail (partial results)?  The CLI records one
        entry in ``failures`` per figure lost to a :class:`JobFailure`."""
        return bool(self.failures)

    def worker_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-worker job counts and in-job wall clock."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            slot = out.setdefault(record.worker,
                                  {"jobs": 0, "wall_seconds": 0.0,
                                   "cache_hits": 0})
            slot["jobs"] += 1
            slot["wall_seconds"] += record.wall_seconds
            slot["cache_hits"] += 1 if record.cache_hit else 0
        return out

    def tag(self, figure: str) -> None:
        """Label all still-untagged records with ``figure``."""
        for record in self.records:
            if not record.figure:
                record.figure = figure

    def extend(self, other: "RunReport") -> None:
        """Fold another report (e.g. one figure's) into this one."""
        self.records.extend(other.records)
        self.pool_rebuilds += other.pool_rebuilds
        self.serial_fallbacks += other.serial_fallbacks
        self.failures.extend(other.failures)

    def healing_summary(self) -> Dict[str, object]:
        """The manifest's ``healing`` section: every self-healing
        action taken and every figure lost."""
        return {
            "degraded": self.degraded,
            "pool_rebuilds": self.pool_rebuilds,
            "serial_fallbacks": self.serial_fallbacks,
            "failures": list(self.failures),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "n_jobs": self.n_jobs,
            "n_cache_hits": self.n_cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "sim_seconds": self.sim_seconds,
            "worker_breakdown": self.worker_breakdown(),
            "healing": self.healing_summary(),
            "jobs": [r.as_dict() for r in self.records],
        }


# Ambient plan/report stack.  A stack (not a single slot) so nested
# contexts — e.g. a test wrapping CLI code that installs its own plan —
# restore correctly.
_ACTIVE: List[Tuple[ExecutionPlan, RunReport]] = []


@contextlib.contextmanager
def execution(plan: ExecutionPlan):
    """Install ``plan`` as the ambient execution plan.

    Yields the :class:`RunReport` that ``run_jobs`` calls inside the
    context will append to.
    """
    report = RunReport(workers=plan.workers,
                       cache_dir=plan.effective_cache_dir)
    _ACTIVE.append((plan, report))
    try:
        yield report
    finally:
        _ACTIVE.pop()


def active_plan() -> ExecutionPlan:
    """The innermost installed plan (:data:`SERIAL_PLAN` outside any
    :func:`execution` context)."""
    return _ACTIVE[-1][0] if _ACTIVE else SERIAL_PLAN


def active_report() -> Optional[RunReport]:
    """The innermost context's report, or ``None`` outside any."""
    return _ACTIVE[-1][1] if _ACTIVE else None


def run_jobs(jobs: Sequence[SimJob], settings=None,
             plan: Optional[ExecutionPlan] = None) -> List[object]:
    """Execute ``jobs`` under ``plan`` (default: the ambient plan).

    Returns one result per job, **in the order of ``jobs``** regardless
    of completion order.  ``settings`` is folded into every cache key so
    results computed under different experiment settings never alias.
    Raises :class:`JobFailure` on the first job that raises.
    """
    if plan is None:
        plan = active_plan()
    report = active_report()
    jobs = list(jobs)
    if not jobs:
        return []
    ensure_runners_registered()
    stats = RunReport(workers=plan.workers,
                      cache_dir=plan.effective_cache_dir)
    if plan.parallel and len(jobs) > 1:
        outcomes = _run_pooled(jobs, settings, plan, stats)
    else:
        cache = _open_cache(plan)
        outcomes = [_run_one_serial(job, settings, cache)
                    for job in jobs]
    if report is not None:
        report.records.extend(record for _, record in outcomes)
        report.pool_rebuilds += stats.pool_rebuilds
        report.serial_fallbacks += stats.serial_fallbacks
    return [result for result, _ in outcomes]


Outcome = Tuple[object, JobRecord]


def _open_cache(plan: ExecutionPlan) -> Optional[ResultCache]:
    cache_dir = plan.effective_cache_dir
    return ResultCache(cache_dir) if cache_dir else None


def _run_one_serial(job: SimJob, settings, cache: Optional[ResultCache],
                    attempts: int = 1) -> Outcome:
    """One job in-process — the serial path, and the safe harbour the
    pool falls back to: chaos kills never fire here."""
    try:
        result, wall, hit = execute_one(job, settings, cache)
    except Exception:
        raise JobFailure(job, traceback.format_exc(), attempts)
    return result, JobRecord(kind=job.kind, key=job.key,
                             wall_seconds=wall, cache_hit=hit,
                             worker="serial", attempts=attempts)


def _run_pooled(jobs: Sequence[SimJob], settings, plan: ExecutionPlan,
                stats: RunReport) -> List[Outcome]:
    n_workers = min(plan.workers, len(jobs), (os.cpu_count() or 1) * 2)
    slots: List[Optional[Outcome]] = [None] * len(jobs)
    #: attempts handed to a worker so far, per job (pool rebuilds
    #: resubmit unfinished jobs)
    attempts = [0] * len(jobs)
    unfinished = set(range(len(jobs)))
    executor = _make_executor(n_workers, plan)
    in_flight: Dict[Future, int] = {}

    def submit(index: int) -> None:
        attempts[index] += 1
        payload = (index, jobs[index], settings, attempts[index])
        in_flight[executor.submit(run_job_payload, payload)] = index

    def settle(index: int, payload: Dict[str, object]) -> None:
        job = jobs[index]
        slots[index] = (payload["result"], JobRecord(
            kind=job.kind, key=job.key, wall_seconds=payload["wall"],
            cache_hit=payload["cache_hit"],
            worker=str(payload["worker"]), attempts=attempts[index]))
        unfinished.discard(index)

    def harvest_dead_pool() -> None:
        """Keep every result that finished before the pool died, then
        make sure the pool's processes are gone."""
        for future, index in in_flight.items():
            if (index in unfinished and future.done()
                    and not future.cancelled()):
                try:
                    payload = future.result()
                except BaseException:
                    continue  # died with the pool; will resubmit
                if payload.get("ok"):
                    settle(index, payload)
        in_flight.clear()
        _shutdown(executor, kill=True)

    try:
        for index in range(len(jobs)):
            submit(index)
        while unfinished:
            try:
                done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    index = in_flight.pop(future)
                    if index not in unfinished or future.cancelled():
                        continue
                    payload = future.result()
                    if not payload["ok"]:
                        raise JobFailure(jobs[index], payload["traceback"],
                                         attempts[index])
                    settle(index, payload)
            except BrokenProcessPool:
                # A worker died mid-grid (chaos kill, segfault, OOM).
                # Nobody can tell which job killed it; the rebuild
                # budget bounds the loop, then the remaining jobs go
                # serial — the safe harbour where chaos kills never fire.
                harvest_dead_pool()
                if stats.pool_rebuilds >= MAX_POOL_REBUILDS:
                    break
                stats.pool_rebuilds += 1
                if unfinished:
                    executor = _make_executor(
                        min(n_workers, len(unfinished)), plan)
                    for index in sorted(unfinished):
                        submit(index)
    except (JobFailure, KeyboardInterrupt):
        # Abort the rest of the grid: terminate workers (no orphans),
        # drop queued jobs, then re-raise with the original context.
        _shutdown(executor, kill=True)
        raise
    executor.shutdown(wait=True)
    if unfinished:
        stats.serial_fallbacks += 1
        cache = _open_cache(plan)
        for index in sorted(unfinished):
            slots[index] = _run_one_serial(jobs[index], settings, cache,
                                           attempts[index] + 1)
    if plan.effective_cache_dir:
        ResultCache(plan.effective_cache_dir).sweep_stale_tmp()
    assert all(slot is not None for slot in slots)
    return slots  # type: ignore[return-value]


def _make_executor(n_workers: int,
                   plan: ExecutionPlan) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=max(1, n_workers),
        initializer=pool_initializer,
        initargs=(plan.effective_cache_dir, plan.fault_plan))


def _shutdown(executor: ProcessPoolExecutor, kill: bool = False) -> None:
    if kill:
        # Terminate live workers so a cancelled grid leaves no orphan
        # processes burning CPU on jobs nobody will collect.
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - racing process exit
                pass
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except TypeError:  # pragma: no cover - pre-3.9 signature
        executor.shutdown(wait=True)

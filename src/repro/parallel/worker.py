"""Code that runs inside pool worker processes.

Kept separate from :mod:`repro.parallel.runner` so the pieces a child
process needs are importable without dragging in pool management, and so
the ``spawn`` start method (which re-imports modules rather than
inheriting the parent's) finds everything it needs: the pool initializer
re-imports :mod:`repro.experiments`, whose import registers every
experiment job kind.

Chaos support: the initializer also receives the plan's optional
:class:`repro.robust.faults.FaultPlan`; each job consults it immediately
before execution, which is where seeded worker kills (``os._exit``)
fire.  Kills *only* exist on this side of the fork — the runner's
serial path never applies them.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Dict, Optional, Tuple

from repro.parallel.cache import ResultCache, cache_key
from repro.parallel.jobs import SimJob

#: Per-process cache handle, set up once by :func:`pool_initializer`.
_WORKER_CACHE: Optional[ResultCache] = None

#: Per-process chaos plan (``None`` outside chaos runs).
_WORKER_FAULTS = None


def ensure_runners_registered() -> None:
    """Import the modules whose import registers the standard job kinds."""
    import repro.experiments  # noqa: F401


def pool_initializer(cache_dir: Optional[str],
                     fault_plan=None) -> None:
    """Run once in each worker: register runners, open the cache,
    install the chaos plan (if any)."""
    global _WORKER_CACHE, _WORKER_FAULTS
    ensure_runners_registered()
    _WORKER_CACHE = ResultCache(cache_dir) if cache_dir else None
    _WORKER_FAULTS = fault_plan


def execute_one(job: SimJob, settings,
                cache: Optional[ResultCache]
                ) -> Tuple[object, float, bool]:
    """Run one job (cache-aware): ``(result, wall_seconds, cache_hit)``."""
    if cache is not None:
        key, material = cache_key(job, settings)
        hit, payload = cache.load(key, material)
        if hit:
            return payload, 0.0, True
    start = time.perf_counter()
    result = job.run()
    wall = time.perf_counter() - start
    if cache is not None:
        cache.store(key, material, result)
    return result, wall, False


def run_job_payload(payload: Tuple[int, SimJob, object, int]
                    ) -> Dict[str, object]:
    """Pool entry point: execute one job, never raise.

    ``payload`` is ``(index, job, settings, attempt)`` — the attempt
    number (1-based) lets a seeded kill fault fire on the first attempt
    and spare the resubmission after the pool rebuild, the
    self-healing happy path.

    Failures are returned as data (original traceback text + job key)
    so the parent can abort with full context instead of hanging on a
    dead future.  ``KeyboardInterrupt`` propagates: the parent owns
    cancellation.
    """
    index, job, settings, attempt = payload
    base = {"index": index, "worker": os.getpid(), "attempt": attempt}
    if _WORKER_FAULTS is not None:
        # May os._exit: the parent sees a dead pool.
        _WORKER_FAULTS.pre_job_fault(job, attempt)
    try:
        result, wall, hit = execute_one(job, settings, _WORKER_CACHE)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        return {**base, "ok": False, "error": repr(exc),
                "traceback": traceback.format_exc()}
    return {**base, "ok": True, "result": result, "wall": wall,
            "cache_hit": hit}

"""Sharded, disk-cached experiment execution.

The experiment grids of :mod:`repro.experiments` — (scheme x profile x
trace x seed) sweeps — decompose into independent simulation *jobs*.
This package fans those jobs out over a ``multiprocessing`` worker pool
and memoises each job's result in a content-addressed on-disk cache, so
regenerating the figure suite scales with core count and repeated runs
cost (almost) nothing.

Layers
------

:mod:`repro.parallel.jobs`
    The job model: :class:`SimJob` (a picklable work unit addressed by
    a registered runner name plus a stable key) and the runner
    registry.
:mod:`repro.parallel.cache`
    The content-addressed result/trace cache.  Keys hash the full job
    identity — trace profile, seed, uop budget, machine configuration —
    plus the experiment settings and a code-version tag, so stale
    entries *miss* instead of loading.
:mod:`repro.parallel.runner`
    Serial and pooled execution: deterministic merge (result order is
    fixed by job submission order, never completion order), failure
    propagation with the original worker traceback, and per-job /
    per-worker timing records — plus self-healing after worker deaths:
    pool rebuilds, then serial fallback.  See ``docs/robustness.md``.
:mod:`repro.parallel.worker`
    The functions that actually run inside pool workers.

Determinism contract: a grid run with ``workers=N`` returns exactly the
same results (bit-for-bit, including float values) as the serial run,
because every job is a pure function of its parameters and merge order
is the submission order.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cache_key,
    canonical,
    key_material,
    load_or_build_trace,
)
from repro.parallel.jobs import SimJob, derive_seed, registered_kinds, sim_job
from repro.parallel.runner import (
    ExecutionPlan,
    JobFailure,
    JobRecord,
    RunReport,
    SERIAL_PLAN,
    active_plan,
    active_report,
    execution,
    run_jobs,
)

__all__ = [
    "CACHE_SCHEMA",
    "ExecutionPlan",
    "JobFailure",
    "JobRecord",
    "ResultCache",
    "RunReport",
    "SERIAL_PLAN",
    "SimJob",
    "active_plan",
    "active_report",
    "cache_key",
    "canonical",
    "derive_seed",
    "execution",
    "key_material",
    "load_or_build_trace",
    "registered_kinds",
    "run_jobs",
    "sim_job",
]

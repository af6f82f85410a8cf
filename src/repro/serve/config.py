"""Service tuning knobs, in one picklable value object."""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.policy import ExecutionPolicy


@dataclass(frozen=True)
class ServeConfig:
    """Sharding, batching and backpressure parameters.

    Attributes
    ----------
    n_shards:
        Number of single-writer worker shards.  Sessions are pinned to
        ``shard = stable_hash(session_id) % n_shards``, so predictor
        tables are only ever touched from their shard's task and need
        no locks.
    max_batch / max_delay_us:
        The micro-batch flush policy: a shard flushes as soon as it has
        coalesced ``max_batch`` requests, or ``max_delay_us``
        microseconds after the first request of the batch arrived —
        whichever comes first.  ``max_batch=1`` disables coalescing
        (the scalar per-request baseline of ``bench``).
    queue_depth:
        Bound of each shard's admission queue.  A full queue rejects
        with ``retry-after`` (backpressure) instead of buffering
        without limit.
    retry_after_us:
        The backoff hint attached to a rejection.
    policy:
        The :class:`repro.api.ExecutionPolicy` every shard executes
        under — backend choice, hot-trace thresholds, invariant mode.
        Picklable, so it travels verbatim to fleet workers.  The
        default (``backend="auto"``) follows the process default chain
        of :mod:`repro.fastpath.backend`.
    min_kernel_run:
        Shortest same-session step run worth dispatching to a numpy
        kernel; shorter runs replay through the scalar reference loop
        (kernel setup costs more than it saves).
    telemetry:
        Whether the service mints per-request spans
        (:class:`repro.obs.trace.RequestTracer`).  Untraced requests
        cost one integer increment; the acceptance budget for default
        sampling is <= 5% bench throughput (see ``docs/
        observability.md``).
    trace_sample_shift:
        Trace 1 request in ``2**trace_sample_shift`` (0 = every
        request).  The default (6 -> 1/64) keeps tracing overhead in
        the noise at bench rates while still filling the per-stage
        histograms within a second.
    trace_keep:
        Finished spans retained in the tracer ring for export.
    """

    n_shards: int = 4
    max_batch: int = 256
    max_delay_us: int = 500
    queue_depth: int = 8192
    retry_after_us: int = 1000
    min_kernel_run: int = 8
    telemetry: bool = True
    trace_sample_shift: int = 6
    trace_keep: int = 4096
    policy: ExecutionPolicy = ExecutionPolicy()

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("need at least one shard")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_delay_us < 0 or self.retry_after_us < 0:
            raise ValueError("delays must be non-negative")
        if self.trace_sample_shift < 0:
            raise ValueError("trace_sample_shift must be >= 0")

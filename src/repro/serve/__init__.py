"""repro.serve — async micro-batching prediction service.

An asyncio front end over the predictor families: sessions are sharded
across single-writer workers (no locks), requests coalesce into
micro-batches executed on the :mod:`repro.fastpath` kernels with a
scalar reference fallback, bounded queues reject with ``retry-after``
under load, and session state snapshots/restores through the
:mod:`repro.parallel.cache` envelope machinery.

Past one process, :class:`ServeFleet` consistent-hashes sessions onto
N worker subprocesses (each a full ``PredictionService``) behind a
router with a write-ahead log: worker death recovers by snapshot +
WAL replay, ``resize`` migrates only the sessions whose ring owner
changes, and :mod:`repro.serve.loadgen` offers Zipf/Poisson open-loop
traffic to either topology.

Entry points::

    from repro.serve import PredictionService, ServeConfig
    from repro.serve import PredictRequest, PredictResponse

    async with PredictionService(ServeConfig(n_shards=4)) as svc:
        await svc.open_session("s", spec_for("hmp.hybrid"))
        r = await svc.request(PredictRequest("s", op="step",
                                             pc=0x40, outcome=1))

or from a shell: ``python -m repro.serve serve`` / ``bench``.
"""

from repro.serve.batch import ServeInvariantViolation
from repro.serve.config import ServeConfig
from repro.serve.fleet import FleetError, ServeFleet
from repro.serve.handle import (
    JsonlHandle,
    ServeHandle,
    as_handle,
    close_handle,
    connect_handle,
)
from repro.serve.loadgen import (
    LoadModel,
    build_schedule,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.net import serve_stdio, serve_tcp
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_CLOSED,
    ERR_INTERNAL,
    ERR_RETRY,
    ERR_UNKNOWN_SESSION,
    PredictRequest,
    PredictResponse,
    ProtocolError,
    RetryAfter,
)
from repro.serve.ring import HashRing
from repro.serve.service import PredictionService, stable_shard_hash
from repro.serve.snapshot import load_snapshot, save_snapshot, snapshot_key
from repro.serve.wal import WriteAheadLog

__all__ = [
    "ERR_BAD_REQUEST",
    "ERR_CLOSED",
    "ERR_INTERNAL",
    "ERR_RETRY",
    "ERR_UNKNOWN_SESSION",
    "FleetError",
    "HashRing",
    "JsonlHandle",
    "LoadModel",
    "ServeHandle",
    "as_handle",
    "close_handle",
    "connect_handle",
    "PredictRequest",
    "PredictResponse",
    "PredictionService",
    "ProtocolError",
    "RetryAfter",
    "ServeConfig",
    "ServeFleet",
    "ServeInvariantViolation",
    "WriteAheadLog",
    "build_schedule",
    "run_closed_loop",
    "run_open_loop",
    "load_snapshot",
    "save_snapshot",
    "serve_stdio",
    "serve_tcp",
    "snapshot_key",
    "stable_shard_hash",
]

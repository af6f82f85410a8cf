"""repro.serve — async micro-batching prediction service.

An asyncio front end over the predictor families: sessions are sharded
across single-writer workers (no locks), requests coalesce into
micro-batches executed on the :mod:`repro.fastpath` kernels with a
scalar reference fallback, bounded queues reject with ``retry-after``
under load, and session state snapshots/restores through the
:mod:`repro.parallel.cache` envelope machinery.

Past one process, :class:`ServeFleet` consistent-hashes sessions onto
N worker subprocesses (each executing the router's frames in place on
one shard) behind a router with a write-ahead log: worker death
recovers by snapshot + WAL replay, and ``resize`` migrates only the
sessions whose ring owner changes.  :class:`JsonlHandle` is the pipelined TCP client for a
``python -m repro.serve serve`` endpoint.

Entry points::

    from repro.serve import PredictionService, ServeConfig
    from repro.serve import PredictRequest, PredictResponse

    async with PredictionService(ServeConfig(n_shards=4)) as svc:
        await svc.open_session("s", spec_for("hmp.hybrid"))
        r = await svc.request(PredictRequest("s", op="step",
                                             pc=0x40, outcome=1))

or from a shell: ``python -m repro.serve serve`` / ``top``.

The serve tier's performance is measured end to end by the declared
benchmark, ``benchmarks/e2e`` (workloads ``serve_phased`` and
``fleet_steps``).
"""

from repro.serve.config import ServeConfig
from repro.serve.fleet import FleetError, ServeFleet
from repro.serve.handle import JsonlHandle
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
    "PredictRequest",
    "PredictResponse",
    "PredictionService",
    "ProtocolError",
    "RetryAfter",
    "ServeConfig",
    "ServeFleet",
    "WriteAheadLog",
    "load_snapshot",
    "save_snapshot",
    "serve_stdio",
    "serve_tcp",
    "snapshot_key",
    "stable_shard_hash",
]

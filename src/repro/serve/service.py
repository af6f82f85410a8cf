"""The asyncio front end: sessions in, responses out.

:class:`PredictionService` owns ``n_shards`` single-writer worker
shards and routes every request to ``stable_hash(session_id) %
n_shards`` — the same session always lands on the same shard, so its
predictor state has exactly one writer and the per-session request
order is the admission order.  The hash is SHA-256-based (not
``hash()``, which is salted per process) so a snapshot taken under one
shard count restores correctly under another.

Usage::

    service = PredictionService(ServeConfig(n_shards=4))
    await service.start()
    await service.open_session("alice", spec_for("hmp.hybrid"))
    r = await service.request(PredictRequest("alice", op="step",
                                             pc=0x40, outcome=1))
    await service.stop()

``submit`` is the non-blocking half: it returns a future (already
resolved with a ``retry-after`` rejection when the shard queue is
full), which is what pipelined clients and the bench loop build on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import asyncio

from repro.api import PredictorSpec
from repro.common.stats import StreamingHistogram
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import RequestTracer
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    ERR_CLOSED,
    PredictRequest,
    PredictResponse,
)
from repro.serve.shard import Shard
from repro.serve.snapshot import SNAPSHOT_SCHEMA


def stable_shard_hash(session_id: str) -> int:
    """Process-independent 64-bit hash of a session id."""
    digest = hashlib.sha256(session_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def aggregate_hottrace(per_shard: List[Dict[str, object]]
                       ) -> Optional[Dict[str, int]]:
    """Sum the ``hottrace`` counter blocks of shard/worker stats
    (None when no contributor ran a hot-trace engine)."""
    blocks = [s["hottrace"] for s in per_shard if "hottrace" in s]
    if not blocks:
        return None
    out: Dict[str, int] = {}
    for block in blocks:
        for key, value in block.items():
            out[key] = out.get(key, 0) + int(value)
    return out


class PredictionService:
    """Sharded, micro-batching prediction service (module docstring)."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 obs=None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.obs = obs
        #: Per-request span tracer (``None`` when telemetry is off).
        #: Spans are minted here for in-process callers and at protocol
        #: decode by the transports (:mod:`repro.serve.net`).
        self.tracer: Optional[RequestTracer] = (
            RequestTracer(sample_shift=self.config.trace_sample_shift,
                          keep=self.config.trace_keep)
            if self.config.telemetry else None)
        self.shards: List[Shard] = [Shard(i, self.config, obs,
                                          tracer=self.tracer)
                                    for i in range(self.config.n_shards)]
        #: session_id → shard, memoised (SHA-256 per submit is real
        #: money on the hot path; routing is deterministic, so caching
        #: is safe for the life of this service instance).
        self._shard_cache: Dict[str, Shard] = {}
        self._accepting = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "PredictionService":
        for shard in self.shards:
            shard.start()
        self._accepting = True
        return self

    async def stop(self) -> None:
        """Graceful drain: stop admitting, flush every queue, join the
        shard tasks."""
        self._accepting = False
        await asyncio.gather(*(shard.drain() for shard in self.shards))

    async def __aenter__(self) -> "PredictionService":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    @property
    def accepting(self) -> bool:
        return self._accepting

    # -- routing ------------------------------------------------------------

    def shard_of(self, session_id: str) -> Shard:
        shard = self._shard_cache.get(session_id)
        if shard is None:
            shard = self.shards[stable_shard_hash(session_id)
                                % len(self.shards)]
            self._shard_cache[session_id] = shard
        return shard

    # -- session management --------------------------------------------------

    async def open_session(self, session_id: str,
                           spec: PredictorSpec) -> None:
        """Create (idempotently) the session's predictor on its shard."""
        if not self._accepting:
            raise RuntimeError("service is not accepting requests")
        await self.shard_of(session_id).control("open", (session_id, spec))

    async def close_session(self, session_id: str) -> Optional[int]:
        """Tear the session down; returns its served count (None if it
        never existed)."""
        shard = self.shard_of(session_id)
        self._shard_cache.pop(session_id, None)
        return await shard.control("close", session_id)

    # -- the data path -------------------------------------------------------

    def submit(self, request: PredictRequest, span=None
               ) -> "asyncio.Future[PredictResponse]":
        """Admit one request; never blocks.

        The returned future resolves with the response.  Rejections
        (service closed, shard queue full) resolve it immediately —
        callers distinguish them by ``response.error``.

        ``span`` is the request's trace span when the transport minted
        one at protocol decode; in-process callers leave it ``None``
        and sampling happens here (with a zero-length ``decode`` stage,
        so every span carries the same stage vocabulary).
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[PredictResponse]" = loop.create_future()
        tracer = self.tracer
        if span is None and tracer is not None and self._accepting:
            span = tracer.start(request.session_id, request.seq)
            if span is not None:
                span.mark("decode")
        if not self._accepting:
            future.set_result(PredictResponse(
                session_id=request.session_id, seq=request.seq, ok=False,
                error=ERR_CLOSED))
            self._finish_rejected(span)
            return future
        shard = self.shard_of(request.session_id)
        if not shard.try_submit(request, future, span):
            future.set_result(PredictResponse(
                session_id=request.session_id, seq=request.seq, ok=False,
                error="retry-after",
                retry_after_us=self.config.retry_after_us))
            self._finish_rejected(span)
        return future

    def _finish_rejected(self, span) -> None:
        """A rejected request's span ends at the admission edge."""
        if span is not None and self.tracer is not None:
            span.mark("reply")
            self.tracer.finish(span)

    async def request(self, request: PredictRequest,
                      span=None) -> PredictResponse:
        """Submit and await one request."""
        return await self.submit(request, span=span)

    # -- snapshot / restore ---------------------------------------------------

    async def snapshot_payload(self) -> Dict[str, object]:
        """Quiesced state of every session, as opaque per-session blobs
        (:mod:`repro.serve.snapshot` describes the payload).

        Each shard encodes its sessions from inside its own loop
        iteration (the control is a barrier), so the payload reflects a
        per-session consistent point: all requests admitted before the
        snapshot call are included, none after.  The blobs are bytes,
        so the payload never changes after it was taken and never
        shares a predictor with this service.
        """
        sessions: Dict[str, bytes] = {}
        for shard_sessions in await asyncio.gather(
                *(shard.control("snapshot") for shard in self.shards)):
            sessions.update(shard_sessions)
        return {"schema": SNAPSHOT_SCHEMA, "sessions": sessions}

    async def restore_payload(self, payload: Dict[str, object]) -> int:
        """Load sessions from :meth:`snapshot_payload` output, routing
        each to its (possibly different) home shard.  Returns the
        number of sessions restored."""
        if payload.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"snapshot schema {payload.get('schema')!r} is not "
                f"{SNAPSHOT_SCHEMA}; this service reads no other")
        sessions = payload["sessions"]
        by_shard: Dict[int, Dict[str, bytes]] = {}
        for session_id, blob in sessions.items():
            index = stable_shard_hash(session_id) % len(self.shards)
            by_shard.setdefault(index, {})[session_id] = blob
        await asyncio.gather(
            *(self.shards[index].control("restore", chunk)
              for index, chunk in by_shard.items()))
        return len(sessions)

    # -- observability --------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        per_shard = [shard.stats() for shard in self.shards]
        totals = {key: sum(s[key] for s in per_shard)
                  for key in ("sessions", "served", "batches",
                              "kernel_batches", "rejected", "degraded")}
        totals["max_batch"] = max((s["max_batch"] for s in per_shard),
                                  default=0)
        hot = aggregate_hottrace(per_shard)
        if hot is not None:
            totals["hottrace"] = hot
        return {"config": {
                    "n_shards": self.config.n_shards,
                    "max_batch": self.config.max_batch,
                    "max_delay_us": self.config.max_delay_us,
                    "queue_depth": self.config.queue_depth,
                    "backend": self.config.policy.resolved_backend(),
                    "policy": self.config.policy.to_json_dict(),
                },
                "totals": totals, "shards": per_shard}

    def metrics_registry(self) -> MetricsRegistry:
        """A :class:`MetricsRegistry` view of the live service.

        Served/batch/reject totals and queue depths as gauges, the
        merged batch-size distribution and — when telemetry is on —
        the per-stage request-latency histograms as mounted streaming
        histograms, so registry snapshot/diff/merge (and the
        time-series exporter built on them) see the service like any
        other instrumented subsystem.
        """
        reg = MetricsRegistry("serve")
        stats = self.stats()
        for key, value in stats["totals"].items():
            if isinstance(value, dict):  # hottrace counter block
                for sub, subvalue in value.items():
                    reg.set(f"serve.{key}.{sub}", subvalue)
            else:
                reg.set(f"serve.{key}", value)
        reg.set("serve.queue_depth",
                sum(s["depth"] for s in stats["shards"]))
        for i, shard_stats in enumerate(stats["shards"]):
            reg.set(f"serve.shards.{i}.depth", shard_stats["depth"])
            reg.set(f"serve.shards.{i}.served", shard_stats["served"])
        batch_sizes = StreamingHistogram("batch_size")
        for shard in self.shards:
            batch_sizes.merge(shard.batch_sizes)
        if batch_sizes.count:
            reg.mount("serve.batch_size", batch_sizes)
        if self.tracer is not None:
            for key, value in self.tracer.counters().items():
                reg.set(f"trace.{key}", value)
            for stage, hist in self.tracer.stage_hists.items():
                reg.mount(f"trace.stage_us.{stage}", hist)
            if self.tracer.total_hist.count:
                reg.mount("trace.total_us", self.tracer.total_hist)
        return reg

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat snapshot — the time-series exporter's source."""
        return self.metrics_registry().snapshot()

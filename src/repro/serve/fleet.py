"""Multi-process serve fleet: a router over worker subprocesses.

:class:`ServeFleet` scales the single-process
:class:`~repro.serve.service.PredictionService` past one interpreter
by running N worker subprocesses (:mod:`repro.serve.worker`) and
routing sessions onto them with a consistent-hash
:class:`~repro.serve.ring.HashRing`.  The router coalesces each event
loop turn's admissions to a worker into one frame; the worker executes
that frame in place on one :class:`~repro.serve.shard.Shard`, the
same execution core as the single service, with no second queue.  The
router keeps the whole external contract of the single service —
``submit`` / ``request`` / ``open_session`` / ``close_session`` /
``stats`` / ``metrics_snapshot`` and the async context manager — so
the JSONL transports (:mod:`repro.serve.net`), the tests and the
declared benchmark (``benchmarks/e2e``) all run unchanged against
either.

Durability: the write-ahead rule
--------------------------------
Every accepted record (session open/close, data request) is appended
to the target worker's :class:`~repro.serve.wal.WriteAheadLog`
*before* its frame is written to the socket.  A worker's predictor
state is therefore always ``last persisted snapshot + WAL suffix``:

* **Worker death** (EOF on the link): the router spawns a replacement,
  restores the last snapshot, then replays the WAL suffix in admission
  order — chasing the tail, because requests accepted *during*
  recovery also land in the WAL — and flips the worker live when
  replay catches up.  Responses produced by replay resolve the futures
  still pending from before the crash; responses to records that were
  already answered are recognised by sequence number and dropped, so
  every accepted request is answered exactly once and no predictor
  update is ever applied twice.
* **Router restart**: ``start()`` finds the fleet manifest in
  ``state_dir`` and rebuilds every worker the same way (no futures
  pending — every replay response is a drop).

The WAL is *bounded* by snapshotting, not by discarding: when a log
passes ``wal_limit`` records the router takes a snapshot at a barrier
mark, persists it (:mod:`repro.serve.snapshot` envelopes) and
truncates the log to the mark.  Snapshot state is per-session blobs
the worker's shard encoded at the barrier; the router persists,
moves and restores them by session id without ever decoding one.

Rebalance / elastic resize
--------------------------
``resize(n)`` pauses admission (submits resolve ``retry-after``, the
open-loop contract), quiesces outstanding work, snapshots every
worker, recomputes the ring, spawns/retires workers, and moves *only*
the sessions whose ring owner changed (``restore`` chunks to the new
owner, ``evict`` to the old — consistent hashing keeps that to
``~moved/n``), then persists fresh snapshots and resumes.

Correlation contract: per-session ``seq`` values must be unique (the
transports already do this); replay
deduplication tells "already answered" from "still pending" by
comparing a response's ``seq`` against the session's FIFO of pending
admissions.
"""

from __future__ import annotations

import json
import os
import secrets
import subprocess
import sys
import tempfile
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

import asyncio

import repro
from repro.api import PredictorSpec
from repro.obs.registry import MetricsRegistry
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_CLOSED,
    ERR_RETRY,
    PredictRequest,
    PredictResponse,
    ProtocolError,
    encode_frame,
    read_frame,
    request_to_wire,
)
from repro.serve.ring import HashRing
from repro.serve.snapshot import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    save_snapshot,
    snapshot_path,
)
from repro.serve.wal import WriteAheadLog

_MANIFEST = "fleet.json"


class FleetError(RuntimeError):
    """A fleet-level operational failure (spawn, handshake, drain)."""


class _Worker:
    """Router-side handle of one worker subprocess."""

    def __init__(self, name: str, index: int, wal_path: str) -> None:
        self.name = name
        self.index = index
        self.proc: Optional[subprocess.Popen] = None
        self.reader: Optional["asyncio.StreamReader"] = None
        self.writer: Optional["asyncio.StreamWriter"] = None
        self.reader_task: Optional["asyncio.Task"] = None
        self.wal = WriteAheadLog(wal_path)
        #: Absolute count of records ever appended to this worker's WAL
        #: (monotonic; truncation does not rewind it).  ``appended -
        #: wal.records`` is the absolute index of the WAL's first
        #: surviving record.
        self.appended = self.wal.records
        #: Admitted-but-unflushed records (only ``("req", …)`` — control
        #: records flush the buffer and append directly).
        self.buffer: List[Tuple] = []
        self.flush_scheduled = False
        #: Pending admissions: session -> {seq -> future}.  Responses
        #: resolve by exact (session, seq) — batches complete out of
        #: order across sessions, and replay re-answers (seq no longer
        #: pending) must drop, so positional matching can't work.
        self.pending: Dict[str, Dict[int, "asyncio.Future"]] = {}
        self.outstanding = 0
        #: Ack FIFO of in-flight controls: ``(abs_index | None, future)``.
        self.ctl_fifo: Deque[Tuple[Optional[int], "asyncio.Future"]] = deque()
        #: Crash re-attachment map: WAL abs index -> caller future for
        #: controls not yet acked (survives the link, unlike the FIFO).
        self.ctl_by_index: Dict[int, "asyncio.Future"] = {}
        self.snapshot_waiters: Dict[int, "asyncio.Future"] = {}
        #: Partial snapshot state arriving in snap_part chunks.
        self.snap_parts: Dict[int, Dict[str, object]] = {}
        self.live = asyncio.Event()
        self.retired = False
        self.snapshotting = False
        self.deaths = 0
        self.served = 0
        self.replay_drops = 0
        self.session_count = 0
        self.final_stats: Optional[Dict] = None
        #: Last ``("stats",)`` poll result (service totals) — refreshed
        #: by :meth:`ServeFleet.poll_stats`, superseded by
        #: ``final_stats`` once the worker says bye.
        self.live_stats: Optional[Dict] = None
        self.log_handle = None

    @property
    def alive(self) -> bool:
        return self.live.is_set()

    @property
    def wal_base(self) -> int:
        """Absolute index of the first surviving WAL record."""
        return self.appended - self.wal.records

    def write_frame(self, payload: object) -> None:
        """Synchronous ordered frame write (StreamWriter buffers)."""
        assert self.writer is not None
        self.writer.write(encode_frame(payload))


class ServeFleet:
    """N-process prediction fleet behind one router (module docstring).

    Drop-in async peer of :class:`~repro.serve.service.
    PredictionService`: ``async with ServeFleet(...) as fleet`` then
    ``submit``/``request`` away.
    """

    def __init__(self, n_workers: int = 2,
                 config: Optional[ServeConfig] = None,
                 state_dir: Optional[str] = None,
                 wal_limit: int = 8192,
                 outstanding_limit: int = 1024,
                 fault_plan=None,
                 hello_timeout_s: float = 60.0) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if wal_limit < 1 or outstanding_limit < 1:
            raise ValueError("wal_limit / outstanding_limit must be >= 1")
        self.config = config if config is not None else ServeConfig()
        self.n_workers = n_workers
        self.state_dir = state_dir or tempfile.mkdtemp(prefix="fleet-")
        os.makedirs(self.state_dir, exist_ok=True)
        self.wal_limit = wal_limit
        self.outstanding_limit = outstanding_limit
        self.fault_plan = fault_plan
        self.hello_timeout_s = hello_timeout_s
        #: Duck-typing peer of PredictionService.tracer: neither the
        #: router nor its workers mint spans.
        self.tracer = None
        self.ring = HashRing()
        self.workers: Dict[str, _Worker] = {}
        self._sessions: Dict[str, bool] = {}
        self._owner_cache: Dict[str, _Worker] = {}
        self._server: Optional["asyncio.base_events.Server"] = None
        self._port: Optional[int] = None
        self._token = secrets.token_hex(16)
        self._hello_waiters: Dict[str, "asyncio.Future"] = {}
        self._accepting = False
        self._paused = False
        self._pause_gate = asyncio.Event()
        self._pause_gate.set()
        self._closed = False
        self._snapshot_seq = 0
        self._next_index = 0
        self._resize_lock = asyncio.Lock()
        # Counters surfaced via stats()/metrics.
        self._served = 0
        self._rejected = 0
        self._worker_deaths = 0
        self._recoveries = 0
        self._rebalances = 0
        self._sessions_moved = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self, recover: bool = True) -> "ServeFleet":
        """Bring the fleet up.

        With ``recover=True`` (default) and a manifest in
        ``state_dir``, the previous topology is adopted and every
        worker is rebuilt as snapshot + full WAL replay — the router
        restart path.  Otherwise a fresh fleet of ``n_workers`` spawns.
        """
        manifest = self._read_manifest() if recover else None
        names = (manifest["workers"] if manifest
                 else [f"w{i}" for i in range(self.n_workers)])
        recovering = manifest is not None
        # Read (and schema-check) every snapshot before spawning
        # anything, so a refused state_dir leaves no process behind.
        snaps = ({name: self._stored_snapshot(name) for name in names}
                 if recovering else {})
        self._server = await asyncio.start_server(
            self._on_worker_connect, host="127.0.0.1", port=0)
        self._port = self._server.sockets[0].getsockname()[1]
        self._next_index = 1 + max(
            (int(n[1:]) for n in names if n[1:].isdigit()),
            default=len(names) - 1)
        await asyncio.gather(*(
            self._bring_up(name, index, recover=recovering,
                           snap=snaps.get(name))
            for index, name in enumerate(names)))
        for name in names:
            self.ring.add_node(name)
        if recovering:
            self._rebuild_session_book(snaps)
        self._write_manifest()
        self._accepting = True
        return self

    async def stop(self) -> None:
        """Graceful shutdown: drain every live worker, keep all state
        on disk (a later ``start()`` recovers it)."""
        if self._closed:
            return
        self._accepting = False
        self._closed = True
        for worker in self.workers.values():
            self._flush_now(worker)
        await asyncio.gather(*(self._drain_worker(w)
                               for w in self.workers.values()),
                             return_exceptions=True)
        for worker in self.workers.values():
            self._reap(worker)
            worker.wal.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def __aenter__(self) -> "ServeFleet":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    @property
    def accepting(self) -> bool:
        return self._accepting and not self._paused

    @property
    def worker_names(self) -> Tuple[str, ...]:
        return self.ring.nodes

    # -- spawn / handshake --------------------------------------------------

    def _spawn_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src if not extra
                             else src + os.pathsep + extra)
        # Hygiene: workers import from src/ but must not scatter
        # __pycache__ into the tree (satellite: stale-bytecode guard).
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    async def _on_worker_connect(self, reader, writer) -> None:
        try:
            frame = await asyncio.wait_for(read_frame(reader),
                                           self.hello_timeout_s)
        except Exception:
            writer.close()
            return
        if (not isinstance(frame, tuple) or len(frame) != 4
                or frame[0] != "hello" or frame[1] != self._token):
            writer.close()
            return
        _, _, name, _pid = frame
        waiter = self._hello_waiters.pop(name, None)
        if waiter is None or waiter.done():
            writer.close()
            return
        waiter.set_result((reader, writer))

    async def _spawn_process(self, worker: _Worker) -> None:
        """Popen + hello handshake + config frame; leaves the worker
        connected but not yet live."""
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        self._hello_waiters[worker.name] = waiter
        if worker.log_handle is None:
            worker.log_handle = open(
                os.path.join(self.state_dir, f"{worker.name}.log"), "ab")
        worker.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.worker",
             "--connect", f"127.0.0.1:{self._port}",
             "--token", self._token, "--name", worker.name],
            stdout=worker.log_handle, stderr=worker.log_handle,
            env=self._spawn_env())
        try:
            reader, writer = await asyncio.wait_for(
                waiter, self.hello_timeout_s)
        except asyncio.TimeoutError:
            self._hello_waiters.pop(worker.name, None)
            worker.proc.kill()
            raise FleetError(f"worker {worker.name} never said hello "
                             f"(see {worker.name}.log in {self.state_dir})")
        worker.reader, worker.writer = reader, writer
        # A fault-plan death fires once per worker: the replacement
        # process must not inherit the doom, or it re-dies at the same
        # served count while replaying the very WAL suffix its
        # predecessor's death created — a crash loop, never a recovery.
        plan = self.fault_plan if worker.deaths == 0 else None
        worker.write_frame(("config", self.config, plan, worker.index))
        worker.reader_task = asyncio.ensure_future(
            self._reader_loop(worker))

    async def _bring_up(self, name: str, index: int, recover: bool,
                        snap: Optional[Dict] = None) -> None:
        """Spawn one worker; with ``recover``, rebuild it as ``snap``
        (its stored snapshot, if any) plus a full WAL replay."""
        worker = _Worker(name, index,
                         os.path.join(self.state_dir, f"wal-{name}.log"))
        self.workers[name] = worker
        await self._spawn_process(worker)
        if recover:
            if snap is not None:
                await self._send_restore(worker, snap["sessions"])
            await self._replay(worker)
        else:
            worker.live.set()

    def _reap(self, worker: _Worker) -> None:
        if worker.proc is not None:
            if worker.proc.poll() is None:
                worker.proc.kill()
            worker.proc.wait()
        if worker.log_handle is not None:
            worker.log_handle.close()
            worker.log_handle = None

    # -- manifest -----------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.state_dir, _MANIFEST)

    def _read_manifest(self) -> Optional[Dict]:
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if manifest.get("schema") != 1 or "workers" not in manifest:
            return None
        return manifest

    def _write_manifest(self) -> None:
        payload = {"schema": 1, "workers": list(self.ring.nodes)}
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, self._manifest_path())

    def _stored_snapshot(self, name: str) -> Optional[Dict]:
        """Worker ``name``'s persisted snapshot (None if there is none).

        A payload of another schema is refused, not skipped: its WAL
        prefix is already truncated, so recovering without it would
        silently drop sessions."""
        snap = load_snapshot(self.state_dir, f"snap-{name}")
        if snap is not None and snap.get("schema") != SNAPSHOT_SCHEMA:
            raise FleetError(
                f"snapshot {snapshot_path(self.state_dir, f'snap-{name}')}"
                f" has schema {snap.get('schema')!r}; this router reads "
                f"schema {SNAPSHOT_SCHEMA} only")
        return snap

    def _rebuild_session_book(self, snaps: Dict[str, Optional[Dict]]
                              ) -> None:
        """After router-restart recovery: sessions = snapshot keys ∪
        WAL opens − WAL closes, per worker."""
        self._sessions.clear()
        for worker in self.workers.values():
            present: Set[str] = set()
            snap = snaps.get(worker.name)
            if snap is not None:
                present.update(snap["sessions"].keys())
            for record in worker.wal.replay():
                if record[0] == "open":
                    present.add(record[1])
                elif record[0] == "close":
                    present.discard(record[1])
            worker.session_count = len(present)
            for session_id in present:
                self._sessions[session_id] = True

    # -- routing ------------------------------------------------------------

    def owner_of(self, session_id: str) -> str:
        """The (name of the) worker owning ``session_id`` now."""
        return self._owner(session_id).name

    def _owner(self, session_id: str) -> _Worker:
        worker = self._owner_cache.get(session_id)
        if worker is None:
            worker = self.workers[self.ring.node_for(session_id)]
            self._owner_cache[session_id] = worker
        return worker

    # -- the data path ------------------------------------------------------

    def submit(self, request: PredictRequest, span=None
               ) -> "asyncio.Future[PredictResponse]":
        """Admit one request; never blocks (PredictionService
        contract).  Accepted means WAL-recorded: the future resolves
        even across a worker crash, via replay."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[PredictResponse]" = loop.create_future()
        if self._closed or not self._accepting:
            future.set_result(PredictResponse(
                session_id=request.session_id, seq=request.seq,
                ok=False, error=ERR_CLOSED))
            return future
        if self._paused:
            self._rejected += 1
            future.set_result(self._retry_response(request))
            return future
        worker = self._owner(request.session_id)
        if worker.outstanding >= self.outstanding_limit:
            self._rejected += 1
            future.set_result(self._retry_response(request))
            return future
        by_seq = worker.pending.get(request.session_id)
        if by_seq is None:
            by_seq = worker.pending[request.session_id] = {}
        if request.seq in by_seq:
            # Correlation ids must be unique while in flight — replay
            # dedup depends on it (module docstring).
            future.set_result(PredictResponse(
                session_id=request.session_id, seq=request.seq,
                ok=False, error=ERR_BAD_REQUEST))
            return future
        by_seq[request.seq] = future
        worker.outstanding += 1
        record = ("req", request_to_wire(request))
        if worker.alive:
            worker.buffer.append(record)
            self._schedule_flush(worker)
        else:
            # Recovering: straight to the WAL; the replay tail-chase
            # delivers it (and answers the future) in order.
            worker.wal.append([record])
            worker.appended += 1
        return future

    def _retry_response(self, request: PredictRequest) -> PredictResponse:
        return PredictResponse(
            session_id=request.session_id, seq=request.seq, ok=False,
            error=ERR_RETRY,
            retry_after_us=self.config.retry_after_us)

    async def request(self, request: PredictRequest,
                      span=None) -> PredictResponse:
        return await self.submit(request, span=span)

    def _schedule_flush(self, worker: _Worker) -> None:
        if not worker.flush_scheduled:
            worker.flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_cb, worker)

    def _flush_cb(self, worker: _Worker) -> None:
        worker.flush_scheduled = False
        self._flush_now(worker)
        self._maybe_snapshot(worker)

    def _flush_now(self, worker: _Worker) -> None:
        """WAL-then-forward one admission batch (synchronous: callers
        rely on no interleaved admissions)."""
        if not worker.buffer:
            return
        records = worker.buffer
        worker.buffer = []
        worker.wal.append(records)
        worker.appended += len(records)
        if worker.alive:
            worker.write_frame(("batch", [wire for _, wire in records]))

    # -- session controls ---------------------------------------------------

    async def open_session(self, session_id: str,
                           spec: PredictorSpec) -> None:
        if not self._accepting:
            raise RuntimeError("fleet is not accepting requests")
        await self._unpaused()
        spec_dict = spec.to_json_dict()
        worker = self._owner(session_id)
        result = await self._walled_control(
            worker, ("open", session_id, spec_dict),
            ("open", session_id, spec_dict))
        if isinstance(result, Exception):
            raise result
        if session_id not in self._sessions:
            self._sessions[session_id] = True
            worker.session_count += 1

    async def close_session(self, session_id: str) -> Optional[int]:
        await self._unpaused()
        worker = self._owner(session_id)
        result = await self._walled_control(
            worker, ("close", session_id), ("close", session_id))
        if self._sessions.pop(session_id, None):
            worker.session_count -= 1
        self._owner_cache.pop(session_id, None)
        if isinstance(result, Exception):
            raise result
        return result

    async def _unpaused(self) -> None:
        """Hold session controls while a resize is rebalancing: a
        control admitted mid-pause would land its WAL record on the
        *old* ring owner and then route to the new one after the swap
        — an unknown-session hole the pause gate closes."""
        while self._paused:
            await self._pause_gate.wait()

    async def _walled_control(self, worker: _Worker, record: Tuple,
                              frame: Tuple):
        """Send one WAL-backed control and await its ack.  Survives a
        worker crash: the record replays, and the pending future is
        re-attached by absolute WAL index."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._flush_now(worker)
        index = worker.appended
        worker.wal.append([record])
        worker.appended += 1
        worker.ctl_by_index[index] = future
        if worker.alive:
            worker.ctl_fifo.append((index, future))
            worker.write_frame(frame)
        return await future

    async def _transient_control(self, worker: _Worker, frame: Tuple):
        """A control that is *not* WAL-backed (recovery restore,
        rebalance evict/restore) — FIFO-matched only."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        worker.ctl_fifo.append((None, future))
        worker.write_frame(frame)
        result = await future
        if isinstance(result, Exception):
            raise result
        return result

    #: Sessions per restore control — bounds restore frames the same
    #: way snap_part bounds snapshot frames.
    RESTORE_CHUNK = 1024

    async def _send_restore(self, worker: _Worker,
                            sessions: Dict[str, bytes]) -> int:
        """Ship session blobs to a worker in bounded chunks (restore
        controls are additive per session)."""
        items = list(sessions.items())
        total = 0
        for i in range(0, len(items), self.RESTORE_CHUNK):
            chunk = dict(items[i:i + self.RESTORE_CHUNK])
            total += await self._transient_control(worker,
                                                   ("restore", chunk))
        return total

    # -- the reader loop ----------------------------------------------------

    async def _reader_loop(self, worker: _Worker) -> None:
        reader = worker.reader
        assert reader is not None
        try:
            while True:
                frame = await read_frame(reader)
                kind = frame[0]
                if kind == "results":
                    for wire in frame[1]:
                        self._resolve(worker, wire)
                elif kind == "ctl" or kind == "ctl_err":
                    index, future = worker.ctl_fifo.popleft()
                    if index is not None:
                        worker.ctl_by_index.pop(index, None)
                    value = (frame[1] if kind == "ctl"
                             else FleetError(frame[1]))
                    if not future.done():
                        future.set_result(value)
                elif kind == "snap_part":
                    worker.snap_parts.setdefault(
                        frame[1], {}).update(frame[2])
                elif kind == "snap_done":
                    sessions = worker.snap_parts.pop(frame[1], {})
                    waiter = worker.snapshot_waiters.pop(frame[1], None)
                    if waiter is not None and not waiter.done():
                        waiter.set_result({"schema": frame[2],
                                           "sessions": sessions})
                elif kind == "bye":
                    worker.final_stats = frame[1]
                elif kind == "pong":
                    pass
                else:  # pragma: no cover - protocol future-proofing
                    raise FleetError(f"unknown worker frame {kind!r}")
        except (asyncio.IncompleteReadError, ConnectionError,
                ProtocolError):
            # A desynced/corrupt stream is indistinguishable from a
            # garbled worker: drop the link and let recovery rebuild
            # it from the WAL.
            pass
        finally:
            if not self._closed and not worker.retired:
                asyncio.ensure_future(self._recover(worker))

    def _resolve(self, worker: _Worker, wire: Tuple) -> None:
        session_id, seq = wire[0], wire[1]
        by_seq = worker.pending.get(session_id)
        future = by_seq.pop(seq, None) if by_seq else None
        if future is None:
            # A replay re-answer of an already-answered request (or a
            # response for a router generation that no longer waits).
            worker.replay_drops += 1
            return
        if by_seq is not None and not by_seq:
            del worker.pending[session_id]
        worker.outstanding -= 1
        worker.served += 1
        self._served += 1
        if not future.done():
            ok = wire[2]
            future.set_result(PredictResponse(
                session_id=session_id, seq=seq, ok=ok,
                result=wire[3], error=wire[4], retry_after_us=wire[5]))

    # -- crash recovery -----------------------------------------------------

    async def _recover(self, worker: _Worker) -> None:
        """Rebuild one dead worker: respawn, restore last snapshot,
        replay the WAL suffix (chasing admissions that arrive while we
        replay), then flip live."""
        if self._closed or worker.retired:
            return
        worker.live.clear()
        worker.deaths += 1
        self._worker_deaths += 1
        self._reap(worker)
        # Records admitted but not yet flushed still belong to the
        # durable suffix — WAL them now, forward via replay.
        if worker.buffer:
            records = worker.buffer
            worker.buffer = []
            worker.wal.append(records)
            worker.appended += len(records)
        # In-flight snapshot can never complete; its truncate must not
        # happen (replay needs the full suffix).
        for waiter in worker.snapshot_waiters.values():
            if not waiter.done():
                waiter.set_result(FleetError("worker died mid-snapshot"))
        worker.snapshot_waiters.clear()
        worker.snap_parts.clear()
        # Unacked controls stay registered in ctl_by_index and ride the
        # replay; the dead link's FIFO is meaningless now.
        worker.ctl_fifo.clear()
        await self._spawn_process(worker)
        snap = self._stored_snapshot(worker.name)
        if snap is not None:
            await self._send_restore(worker, snap["sessions"])
        await self._replay(worker)
        self._recoveries += 1

    async def _replay(self, worker: _Worker) -> None:
        """Forward the WAL suffix in order; on return the worker is
        live and byte-for-byte caught up with every accepted record."""
        sent = 0
        while True:
            records = worker.wal.replay()
            if sent >= len(records):
                break
            base = worker.wal_base
            batch: List[Tuple] = []
            chunk = records[sent:]
            start = sent
            sent = len(records)
            for offset, record in enumerate(chunk):
                if record[0] == "req":
                    batch.append(record[1])
                    continue
                if batch:
                    worker.write_frame(("batch", batch))
                    batch = []
                index = base + start + offset
                await self._replay_control(worker, index, record)
            if batch:
                worker.write_frame(("batch", batch))
        worker.live.set()
        # Anything admitted after the final replay() went through the
        # not-alive path directly into the WAL *before* live was set —
        # no gap — but the live buffer path owns delivery from here on.

    async def _replay_control(self, worker: _Worker, index: int,
                              record: Tuple) -> None:
        if record[0] == "open":
            frame: Tuple = ("open", record[1], record[2])
        else:
            frame = ("close", record[1])
        future = worker.ctl_by_index.get(index)
        if future is None:
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            worker.ctl_by_index[index] = future
        worker.ctl_fifo.append((index, future))
        worker.write_frame(frame)
        await future

    async def kill_worker(self, name: str) -> None:
        """Chaos helper: hard-kill one worker process (SIGKILL); the
        reader loop notices EOF and recovery takes over."""
        worker = self.workers[name]
        if worker.proc is not None and worker.proc.poll() is None:
            worker.proc.kill()

    async def wait_all_live(self) -> None:
        """Block until every worker finished any in-flight recovery."""
        await asyncio.gather(*(w.live.wait()
                               for w in self.workers.values()))

    # -- snapshot bounding --------------------------------------------------

    def _maybe_snapshot(self, worker: _Worker) -> None:
        if (worker.wal.records >= self.wal_limit and worker.alive
                and not worker.snapshotting):
            worker.snapshotting = True
            asyncio.ensure_future(self._snapshot_and_truncate(worker))

    async def _snapshot_and_truncate(self, worker: _Worker) -> None:
        try:
            payload, mark = await self._snapshot_barrier(worker)
            if isinstance(payload, Exception):
                return  # worker died mid-snapshot; replay covers it
            save_snapshot(self.state_dir, f"snap-{worker.name}", payload)
            worker.wal.truncate(mark - worker.wal_base)
        finally:
            worker.snapshotting = False

    async def _snapshot_barrier(self, worker: _Worker):
        """Flush, mark, and request a snapshot with *no await* between
        — so the mark is exact: records ≤ mark are in the payload,
        records > mark are not."""
        self._flush_now(worker)
        mark = worker.appended
        self._snapshot_seq += 1
        token = self._snapshot_seq
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        worker.snapshot_waiters[token] = waiter
        worker.write_frame(("snapshot", token))
        payload = await waiter
        return payload, mark

    # -- rebalance / elastic resize -----------------------------------------

    async def resize(self, n_workers: int) -> Dict[str, int]:
        """Grow or shrink the fleet to ``n_workers``, migrating only
        the sessions whose ring owner changes.  Returns movement
        stats.  Admission pauses (``retry-after``) for the duration —
        open-loop clients see latency, not errors-after-accept."""
        if n_workers < 1:
            raise ValueError("need at least one worker")
        async with self._resize_lock:
            if not self._accepting:
                raise RuntimeError("fleet is not running")
            self._paused = True
            self._pause_gate.clear()
            try:
                return await self._resize_locked(n_workers)
            finally:
                self._paused = False
                self._pause_gate.set()

    async def _resize_locked(self, n_workers: int) -> Dict[str, int]:
        await self._quiesce()
        await self.wait_all_live()
        # Snapshot every current worker at the quiesced barrier.
        payloads: Dict[str, Dict] = {}
        for name in self.ring.nodes:
            worker = self.workers[name]
            payload, mark = await self._snapshot_barrier(worker)
            if isinstance(payload, Exception):
                raise FleetError(f"snapshot of {name} failed: {payload}")
            payloads[name] = payload
            save_snapshot(self.state_dir, f"snap-{name}", payload)
            worker.wal.truncate(mark - worker.wal_base)
        old_names = list(self.ring.nodes)
        new_ring = HashRing(replicas=self.ring.replicas)
        keep = old_names[:n_workers]
        retire = old_names[n_workers:]
        added: List[str] = []
        for name in keep:
            new_ring.add_node(name)
        while len(new_ring) < n_workers:
            name = f"w{self._next_index}"
            self._next_index += 1
            added.append(name)
            new_ring.add_node(name)
        for name in added:
            await self._bring_up(name, len(self.workers), recover=False)
        # Compute moves under the new ring.
        moves: Dict[str, Dict[str, Dict]] = {}
        moved = 0
        for old_name in old_names:
            sessions = payloads[old_name]["sessions"]
            for session_id, blob in sessions.items():
                new_name = new_ring.node_for(session_id)
                if new_name != old_name:
                    bundle = moves.setdefault(
                        new_name, {"sessions": {}, "from": []})
                    bundle["sessions"][session_id] = blob
                    bundle["from"].append((old_name, session_id))
                    moved += 1
        # Restore moved sessions on their new owners, evict from old.
        evictions: Dict[str, List[str]] = {}
        for new_name, bundle in moves.items():
            await self._send_restore(self.workers[new_name],
                                     bundle["sessions"])
            for old_name, session_id in bundle["from"]:
                evictions.setdefault(old_name, []).append(session_id)
        for old_name, session_ids in evictions.items():
            if old_name in retire:
                continue  # whole process retires below
            await self._transient_control(self.workers[old_name],
                                          ("evict", session_ids))
        self.ring = new_ring
        self._owner_cache.clear()
        # Retire shrunk-away workers: drain, reap, drop their state.
        for name in retire:
            worker = self.workers.pop(name)
            worker.retired = True
            await self._drain_worker(worker)
            self._reap(worker)
            worker.wal.close()
            try:
                os.remove(worker.wal.path)
            except OSError:
                pass
        # Fresh snapshots reflecting the new placement (so a router
        # restart right now recovers the new topology).
        for name in self.ring.nodes:
            worker = self.workers[name]
            payload, mark = await self._snapshot_barrier(worker)
            if isinstance(payload, Exception):
                raise FleetError(f"post-move snapshot of {name} failed")
            save_snapshot(self.state_dir, f"snap-{name}", payload)
            worker.wal.truncate(mark - worker.wal_base)
            worker.session_count = len(payload["sessions"])
        self._write_manifest()
        self._rebalances += 1
        self._sessions_moved += moved
        return {"workers": len(self.ring), "sessions_moved": moved,
                "retired": len(retire), "added": len(added)}

    async def _quiesce(self) -> None:
        """Wait out all outstanding requests (admission is paused or
        closed by the caller)."""
        while any(w.outstanding for w in self.workers.values()):
            for worker in self.workers.values():
                self._flush_now(worker)
            await asyncio.sleep(0.002)

    async def _drain_worker(self, worker: _Worker) -> None:
        if worker.writer is None or not worker.alive:
            return
        try:
            worker.write_frame(("drain",))
            await asyncio.wait_for(worker.writer.drain(), 10.0)
            if worker.proc is not None:
                await asyncio.wait_for(
                    asyncio.get_running_loop().run_in_executor(
                        None, worker.proc.wait), 30.0)
        except (ConnectionError, asyncio.TimeoutError, RuntimeError):
            pass

    # -- observability ------------------------------------------------------

    async def poll_stats(self) -> None:
        """Refresh each live worker's shard counters over the link.

        Worker-side counters (hot-trace hit/abort, backend degrades,
        batches) otherwise only reach the router in the
        ``bye`` frame at drain; call this (the declared benchmark
        does) so :meth:`stats` reflects a *running* fleet."""
        for worker in list(self.workers.values()):
            if not worker.alive:
                continue
            try:
                worker.live_stats = await self._transient_control(
                    worker, ("stats",))
            except (FleetError, ConnectionError, RuntimeError):
                pass  # mid-death poll: recovery owns this worker now

    def stats(self) -> Dict[str, object]:
        per_worker = {}
        for name in sorted(self.workers):
            worker = self.workers[name]
            per_worker[name] = {
                "index": worker.index,
                "alive": worker.alive,
                "pid": worker.proc.pid if worker.proc else None,
                "served": worker.served,
                "outstanding": worker.outstanding,
                "sessions": worker.session_count,
                "deaths": worker.deaths,
                "wal_records": worker.wal.records,
                "replay_drops": worker.replay_drops,
            }
        totals = {
            "workers": len(self.workers),
            "workers_alive": sum(1 for w in self.workers.values()
                                 if w.alive),
            "sessions": len(self._sessions),
            "served": self._served,
            "rejected": self._rejected,
            "outstanding": sum(w.outstanding
                               for w in self.workers.values()),
            "worker_deaths": self._worker_deaths,
            "recoveries": self._recoveries,
            "rebalances": self._rebalances,
            "sessions_moved": self._sessions_moved,
            "wal_records": sum(w.wal.records
                               for w in self.workers.values()),
            "replay_drops": sum(w.replay_drops
                                for w in self.workers.values()),
        }
        # Worker shard counters (freshest of live poll vs bye frame):
        # degrade and hot-trace totals.
        from repro.serve.service import aggregate_hottrace
        reports = [w.final_stats or w.live_stats
                   for w in self.workers.values()]
        reports = [r for r in reports if r is not None]
        totals["degraded"] = sum(int(r.get("degraded", 0))
                                 for r in reports)
        totals["hottrace"] = aggregate_hottrace(reports)
        return {"config": {
                    "n_workers": len(self.workers),
                    "wal_limit": self.wal_limit,
                    "outstanding_limit": self.outstanding_limit,
                    "serve": {"backend":
                                  self.config.policy.resolved_backend(),
                              "policy": self.config.policy.to_json_dict()},
                },
                "totals": totals, "workers": per_worker}

    def metrics_registry(self) -> MetricsRegistry:
        """``fleet.*`` metrics for the time-series exporter, the perf
        gate and ``serve top``'s per-worker rows."""
        reg = MetricsRegistry("fleet")
        stats = self.stats()
        for key, value in stats["totals"].items():
            if isinstance(value, dict):
                for sub, subval in value.items():
                    reg.set(f"fleet.{key}.{sub}", subval)
            else:
                reg.set(f"fleet.{key}", value)
        for name, wstats in stats["workers"].items():
            prefix = f"fleet.workers.{wstats['index']}"
            reg.set(f"{prefix}.alive", int(wstats["alive"]))
            for key in ("served", "outstanding", "sessions", "deaths",
                        "wal_records"):
                reg.set(f"{prefix}.{key}", wstats[key])
        return reg

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat snapshot — the time-series exporter's source."""
        return self.metrics_registry().snapshot()

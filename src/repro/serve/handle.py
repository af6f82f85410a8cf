"""ServeHandle: one client interface for every deployment topology.

:class:`ServeHandle` is the one client surface, shared by in-process
submission against a :class:`~repro.serve.service.PredictionService` /
:class:`~repro.serve.fleet.ServeFleet` object and the JSONL TCP
transport.  It is a protocol (structural, ``runtime_checkable``):
anything that can open sessions, submit data requests as futures, and
await responses.  The service and the fleet already satisfy it natively;
:class:`JsonlHandle` lifts the JSONL TCP transport to the same shape
(pipelined, futures correlated by ``(session_id, seq)``), so
:func:`repro.serve.loadgen.run_open_loop` — and anything else written
against the duck type — drives a remote server exactly like a local
object.

::

    handle = await connect_handle("127.0.0.1", 7073)   # remote
    handle = as_handle(service_or_fleet)               # local (no-op)
    report = await run_open_loop(handle, model)
    await close_handle(handle)
"""

from __future__ import annotations

from typing import Deque, Dict, Optional, Protocol, Tuple, runtime_checkable

import asyncio
from collections import deque

from repro.api import PredictorSpec
from repro.serve.protocol import (
    ERR_INTERNAL,
    PredictRequest,
    PredictResponse,
)


@runtime_checkable
class ServeHandle(Protocol):
    """The client surface bench/loadgen/tests target.

    :class:`~repro.serve.service.PredictionService` and
    :class:`~repro.serve.fleet.ServeFleet` conform as-is (``submit``
    returns an already-routed future; rejections resolve it in-band);
    :class:`JsonlHandle` conforms over a socket.
    """

    async def open_session(self, session_id: str,
                           spec: PredictorSpec) -> None: ...

    async def close_session(self, session_id: str) -> Optional[int]: ...

    def submit(self, request: PredictRequest
               ) -> "asyncio.Future[PredictResponse]": ...

    async def request(self, request: PredictRequest) -> PredictResponse: ...


class JsonlHandle:
    """A pipelined JSONL TCP client speaking the :class:`ServeHandle`
    protocol.

    The handle keeps any number of requests in flight: responses
    come back in completion order and are matched to their futures by ``(session_id, seq)`` —
    per-key FIFO, matching the service's per-session admission-order
    guarantee.
    """

    def __init__(self, reader: "asyncio.StreamReader",
                 writer: "asyncio.StreamWriter") -> None:
        self.reader = reader
        self.writer = writer
        self._pending: Dict[Tuple[str, int],
                            Deque["asyncio.Future[PredictResponse]"]] = {}
        #: Responses whose (session_id, seq) matched no pending future
        #: (duplicate or misaddressed server replies).  They are
        #: counted, not silently dropped, and never touch the in-flight
        #: accounting — which is derived from the pending map so it
        #: cannot drift.
        self.unmatched = 0
        self._pump: Optional["asyncio.Task"] = None
        self._drainer: Optional["asyncio.Task"] = None
        self._closed = False

    @classmethod
    async def connect(cls, host: str, port: int) -> "JsonlHandle":
        reader, writer = await asyncio.open_connection(host, port)
        handle = cls(reader, writer)
        handle._pump = asyncio.get_running_loop().create_task(
            handle._read_loop(), name="repro-serve-handle-pump")
        return handle

    # -- the ServeHandle surface ----------------------------------------

    def submit(self, request: PredictRequest
               ) -> "asyncio.Future[PredictResponse]":
        """Send one data request; never blocks.  The returned future
        resolves with the response (or an in-band transport error)."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[PredictResponse]" = loop.create_future()
        if self._closed:
            future.set_result(PredictResponse(
                session_id=request.session_id, seq=request.seq, ok=False,
                error=f"{ERR_INTERNAL}: handle closed"))
            return future
        key = (request.session_id, request.seq)
        self._pending.setdefault(key, deque()).append(future)
        self.writer.write((request.to_json() + "\n").encode("utf-8"))
        if self._drainer is None or self._drainer.done():
            # Backpressure without blocking submit: one lazy drainer
            # task flushes the socket buffer behind the pipeline.
            self._drainer = loop.create_task(self._drain())
        return future

    async def request(self, request: PredictRequest) -> PredictResponse:
        return await self.submit(request)

    async def open_session(self, session_id: str,
                           spec: PredictorSpec) -> None:
        response = await self.request(PredictRequest(
            session_id, op="open", spec=spec.to_json_dict()))
        if not response.ok:
            raise RuntimeError(
                f"open {session_id!r} failed: {response.error}")

    async def close_session(self, session_id: str) -> Optional[int]:
        response = await self.request(
            PredictRequest(session_id, op="close"))
        if not response.ok:
            raise RuntimeError(
                f"close {session_id!r} failed: {response.error}")
        return response.result

    async def ping(self) -> None:
        await self.request(PredictRequest("?", op="ping"))

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet answered — derived from the
        pending map, so no reply (matched, duplicate or misaddressed)
        can ever skew it."""
        return sum(len(queue) for queue in self._pending.values())

    # -- plumbing --------------------------------------------------------

    async def _drain(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass

    async def _read_loop(self) -> None:
        error = "server closed the connection"
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                response = PredictResponse.from_json(
                    line.decode("utf-8"))
                queue = self._pending.get(
                    (response.session_id, response.seq))
                if queue:
                    future = queue.popleft()
                    if not queue:
                        del self._pending[(response.session_id,
                                           response.seq)]
                    if not future.done():
                        future.set_result(response)
                else:
                    self.unmatched += 1
        except asyncio.CancelledError:
            error = "handle closed"
        except Exception as exc:  # pragma: no cover - transport fault
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self._fail_pending(error)

    def _fail_pending(self, error: str) -> None:
        """Resolve every in-flight future in-band on teardown: a lost
        connection must never strand an awaiter."""
        self._closed = True
        for (session_id, seq), queue in self._pending.items():
            for future in queue:
                if not future.done():
                    future.set_result(PredictResponse(
                        session_id=session_id, seq=seq, ok=False,
                        error=f"{ERR_INTERNAL}: {error}"))
        self._pending.clear()

    async def aclose(self) -> None:
        self._closed = True
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
        if self._drainer is not None and not self._drainer.done():
            self._drainer.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass


def as_handle(target) -> ServeHandle:
    """Adapt ``target`` to a :class:`ServeHandle`.

    Services, fleets and :class:`JsonlHandle` instances pass through
    unchanged (they already conform); anything else is a type error —
    loudly, at adaptation time, not deep inside a load loop.
    """
    if isinstance(target, ServeHandle):
        return target
    raise TypeError(
        f"{type(target).__name__} does not provide the ServeHandle "
        f"surface (open_session/close_session/submit/request)")


async def connect_handle(host: str, port: int) -> JsonlHandle:
    """Open a :class:`JsonlHandle` to a ``repro.serve serve`` TCP
    endpoint."""
    return await JsonlHandle.connect(host, port)


async def close_handle(handle: ServeHandle) -> None:
    """Release a handle's client-side resources (no-op for local
    service/fleet objects, which own their lifecycle)."""
    aclose = getattr(handle, "aclose", None)
    if aclose is not None:
        await aclose()

"""JsonlHandle: the pipelined TCP client for ``repro.serve serve``.

:class:`JsonlHandle` speaks the JSONL transport with the same surface
as in-process submission against a
:class:`~repro.serve.service.PredictionService` or
:class:`~repro.serve.fleet.ServeFleet`: ``open_session``,
``close_session``, ``submit`` (returns a future) and ``request``.
Any number of requests stay in flight, and each reply resolves the
future its ``(session_id, seq)`` names.

::

    handle = await JsonlHandle.connect("127.0.0.1", 7199)
    await handle.open_session("s", spec_for("hmp.hybrid"))
    response = await handle.submit(PredictRequest("s", op="step",
                                                  pc=0x40, outcome=1))
    await handle.aclose()
"""

from __future__ import annotations

from typing import Deque, Dict, Optional, Tuple

import asyncio
from collections import deque

from repro.api import PredictorSpec
from repro.serve.protocol import (
    ERR_INTERNAL,
    PredictRequest,
    PredictResponse,
)


class JsonlHandle:
    """A pipelined JSONL TCP client.

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

    # -- the client surface ----------------------------------------------

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


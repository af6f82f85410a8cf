"""JSONL transport: the service over TCP sockets or stdio.

One JSON request per line in, one JSON response per line out (see
:mod:`repro.serve.protocol`).  Responses to pipelined requests come
back in completion order — clients correlate by ``seq`` — except that
per-session ordering is still the service's admission order.

The transport is deliberately thin: framing, decode errors in-band,
``open``'s spec parsing.  Everything interesting (batching,
backpressure, sharding) lives behind
:class:`~repro.serve.service.PredictionService`.
"""

from __future__ import annotations

import sys
from typing import Optional

import asyncio

from repro.api import PredictorSpec
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    PredictRequest,
    PredictResponse,
    ProtocolError,
)
from repro.serve.service import PredictionService


def _decode_span(service: PredictionService, request: PredictRequest):
    """Mint the request's span at protocol decode (or ``None`` when
    telemetry is off / this request is not sampled)."""
    tracer = service.tracer
    if tracer is None:
        return None
    span = tracer.start(request.session_id, request.seq)
    if span is not None:
        span.mark("decode")
    return span


async def _dispatch(service: PredictionService, request: PredictRequest,
                    span=None) -> PredictResponse:
    """Map one decoded request onto the service API."""
    sid = request.session_id
    try:
        if request.op == "ping":
            response = PredictResponse(session_id=sid, seq=request.seq)
        elif request.op == "open":
            if request.spec is None:
                response = PredictResponse(
                    session_id=sid, seq=request.seq, ok=False,
                    error=f"{ERR_BAD_REQUEST}: open requires spec")
            else:
                spec = PredictorSpec.from_json_dict(request.spec)
                await service.open_session(sid, spec)
                response = PredictResponse(session_id=sid,
                                           seq=request.seq)
        elif request.op == "close":
            served = await service.close_session(sid)
            response = PredictResponse(session_id=sid, seq=request.seq,
                                       result=served)
        else:
            # Data path: the span rides the queue with the request and
            # the owning shard closes it at reply time.
            return await service.request(request, span=span)
    except asyncio.CancelledError:
        # Connection teardown mid-request: propagate — turning the
        # cancellation into an in-band error would both hide it from
        # the handler task and write to a dying socket.
        raise
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        cause = exc.__cause__
        if cause is not None:
            detail += f" (caused by {type(cause).__name__}: {cause})"
        response = PredictResponse(
            session_id=sid, seq=request.seq, ok=False,
            error=f"{ERR_BAD_REQUEST}: {detail}")
    # Control ops never reach a shard; close their spans here.
    if span is not None and service.tracer is not None:
        span.mark("reply")
        service.tracer.finish(span)
    return response


async def handle_connection(service: PredictionService,
                            reader: "asyncio.StreamReader",
                            writer: "asyncio.StreamWriter") -> None:
    """Serve one JSONL peer until EOF."""
    write_lock = asyncio.Lock()
    pending = set()

    async def _respond(request: PredictRequest, span=None) -> None:
        response = await _dispatch(service, request, span=span)
        async with write_lock:
            writer.write((response.to_json() + "\n").encode("utf-8"))
            await writer.drain()

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                request = PredictRequest.from_json(text)
            except ProtocolError as exc:
                async with write_lock:
                    writer.write((PredictResponse(
                        session_id="?", ok=False,
                        error=f"{ERR_BAD_REQUEST}: {exc}").to_json()
                        + "\n").encode("utf-8"))
                    await writer.drain()
                continue
            # Pipelining: don't await the response before reading the
            # next line, or a single slow batch would stall the socket.
            task = asyncio.ensure_future(
                _respond(request, _decode_span(service, request)))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass


async def serve_tcp(service: PredictionService, host: str,
                    port: int) -> "asyncio.AbstractServer":
    """Start (and return) a TCP server bound to ``host:port``."""

    async def _handler(reader, writer):
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(_handler, host, port)


async def serve_stdio(service: PredictionService,
                      stdin=None, stdout=None) -> None:
    """Serve JSONL over stdin/stdout until EOF (for pipes/tests)."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, stdin.readline)
        if not line:
            break
        text = line.strip()
        if not text:
            continue
        try:
            request = PredictRequest.from_json(text)
            response = await _dispatch(service, request,
                                       span=_decode_span(service,
                                                         request))
        except ProtocolError as exc:
            response = PredictResponse(session_id="?", ok=False,
                                       error=f"{ERR_BAD_REQUEST}: {exc}")
        stdout.write(response.to_json() + "\n")
        stdout.flush()


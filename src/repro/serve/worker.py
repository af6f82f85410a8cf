"""One fleet worker process: one inline Shard behind a frame link.

Spawned by :class:`repro.serve.fleet.ServeFleet` as ``python -m
repro.serve.worker --connect HOST:PORT --token T --name wN``, the
worker dials back to the router's loopback listener, authenticates
with the spawn token, receives its :class:`~repro.serve.config.
ServeConfig` (and optional :class:`~repro.robust.faults.
FleetFaultPlan`) over the link, and then serves frames
(:func:`repro.serve.protocol.read_frame` framing, module docstring of
:mod:`repro.serve.wal` for the record vocabulary):

====================  =====================================================
router → worker        worker → router
====================  =====================================================
``("batch", wires)``   ``("results", wires)``, one response per request,
                       in frame order
``("open", sid, spec)`` ``("ctl", None)`` / ``("ctl_err", message)``
``("close", sid)``     ``("ctl", served_count)``
``("evict", sids)``    ``("ctl", n_closed)`` (rebalance handoff)
``("restore", blobs)`` ``("ctl", n_sessions)`` — ``blobs`` maps session
                       id to its snapshot blob, decoded here
``("snapshot", tok)``  ``("snap_part", tok, blobs)``… then
                       ``("snap_done", tok, schema)`` — ``blobs`` maps
                       session id to the bytes the shard encoded at the
                       barrier (:mod:`repro.serve.snapshot`), shipped
                       as is in bounded chunks of ~1k sessions
``("ping",)``          ``("pong",)``
``("stats",)``         ``("ctl", totals)`` — the shard's live counters (the
                       hottrace / degrade counters ``fleet.stats`` and
                       ``serve top`` surface without waiting for drain)
``("drain",)``         ``("bye", totals)`` then a clean exit
====================  =====================================================

Ordering contract: the reader task executes each frame in place
before it reads the next one.  A ``batch`` frame is decoded, executed
by :meth:`repro.serve.shard.Shard.execute_now` in frame order and
answered with one ``results`` frame; a control runs through
:meth:`~repro.serve.shard.Shard.control_now` the same way.  So
per-session admission order at the router *is* per-session execution
order here, and every control is a barrier without a queue.  The
router already coalesced each frame, so the worker batches nothing
again: the config's ``n_shards``, ``max_batch``, ``max_delay_us``,
``queue_depth`` and tracing fields do not apply here, and the worker
mints no spans.

The fault plan runs here, deliberately in the middle of that loop: a
doomed worker ``os._exit``\\ s at the first request past its
``kill_after_served`` point, after decoding that request's frame and
before executing any of it — the whole frame unanswered — which is
precisely the crash the router's WAL replay must make unobservable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import asyncio

from repro.api import PredictorSpec
from repro.robust.faults import KILL_EXIT_CODE
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    encode_frame,
    read_frame,
    request_from_wire,
    response_to_wire,
)
from repro.serve.shard import Shard
from repro.serve.snapshot import SNAPSHOT_SCHEMA

#: Sessions per snapshot chunk frame.  Bounds any single frame well
#: under MAX_FRAME_BYTES however many sessions a worker holds (the
#: million-session load model makes "all of them in one frame" a
#: non-starter).
SNAP_CHUNK_SESSIONS = 1024


class _Doom:
    """Evaluates the fault plan on the worker's hot path."""

    def __init__(self, plan, index: int) -> None:
        self.kill_point: Optional[int] = (
            plan.kill_point(index) if plan is not None else None)
        self.stall_s: float = (plan.stall_seconds(index)
                               if plan is not None else 0.0)
        self.submitted = 0

    def tick(self) -> None:
        """One request is about to execute; die on schedule."""
        self.submitted += 1
        if self.kill_point is not None and self.submitted > self.kill_point:
            # A mid-frame hard death: no drain, no flush, no goodbye.
            os._exit(KILL_EXIT_CODE)


#: Frames answered ``("ctl", value)``, or ``("ctl_err", message)``
#: when the control raises.
_CONTROLS = ("open", "close", "evict", "restore")


def _control(shard: Shard, frame: tuple) -> object:
    """The ``ctl`` value of one :data:`_CONTROLS` frame."""
    kind = frame[0]
    if kind == "open":
        _, session_id, spec_dict = frame
        return shard.control_now(
            "open", (session_id, PredictorSpec.from_json_dict(spec_dict)))
    if kind == "evict":
        return sum(shard.control_now("close", session_id) is not None
                   for session_id in frame[1])
    if kind == "restore":
        shard.control_now("restore", frame[1])
        return len(frame[1])
    return shard.control_now("close", frame[1])


async def _worker(host: str, port: int, token: str, name: str) -> int:
    reader, writer = await asyncio.open_connection(host, port)

    async def send(payload: object) -> None:
        writer.write(encode_frame(payload))
        await writer.drain()

    await send(("hello", token, name, os.getpid()))
    kind, *rest = await read_frame(reader)
    if kind != "config":
        raise RuntimeError(f"expected config frame, got {kind!r}")
    config, plan, index = rest
    assert isinstance(config, ServeConfig)
    doom = _Doom(plan, index)
    shard = Shard(0, config)
    try:
        while True:
            try:
                frame = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break  # router gone: nothing to answer to
            kind = frame[0]
            if kind == "batch":
                if doom.stall_s:
                    await asyncio.sleep(doom.stall_s)
                requests = [request_from_wire(w) for w in frame[1]]
                for _ in requests:
                    doom.tick()
                await send(("results", [response_to_wire(r) for r
                                        in shard.execute_now(requests)]))
            elif kind == "snapshot":
                items = list(shard.control_now("snapshot").items())
                token = frame[1]
                for i in range(0, len(items), SNAP_CHUNK_SESSIONS):
                    chunk = dict(items[i:i + SNAP_CHUNK_SESSIONS])
                    await send(("snap_part", token, chunk))
                await send(("snap_done", token, SNAPSHOT_SCHEMA))
            elif kind == "ping":
                await send(("pong",))
            elif kind == "stats":
                await send(("ctl", shard.stats()))
            elif kind == "drain":
                await send(("bye", shard.stats()))
                break
            elif kind in _CONTROLS:
                try:
                    value = _control(shard, frame)
                except Exception as exc:
                    await send(("ctl_err", f"{type(exc).__name__}: {exc}"))
                else:
                    await send(("ctl", value))
            else:
                raise RuntimeError(f"unknown frame kind {kind!r}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass
    return 0


def main(argv=None) -> int:
    """Entry point for ``python -m repro.serve.worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="Fleet worker process (spawned by repro.serve.fleet)")
    parser.add_argument("--connect", required=True,
                        help="router listener as HOST:PORT")
    parser.add_argument("--token", required=True,
                        help="spawn token expected by the router")
    parser.add_argument("--name", required=True, help="worker name")
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    return asyncio.run(_worker(host, int(port), args.token, args.name))


if __name__ == "__main__":
    sys.exit(main())

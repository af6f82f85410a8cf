"""Bounded write-ahead log of accepted fleet requests.

The router (:mod:`repro.serve.fleet`) appends every accepted record —
session opens/closes and data requests — to its target worker's WAL
*before* forwarding it.  That single ordering rule is the whole
durability story: a worker's in-memory predictor state is always
``last persisted snapshot + the WAL suffix``, so a dead worker is
rebuilt by restoring the snapshot and replaying the suffix, and a
restarted router recovers every worker the same way.  "Accepted"
therefore means *recorded*: an accepted request can be re-answered
after a process crash, and no accepted request is lost to one (the
durability scope below says what a host crash may lose).

The log is bounded by the snapshot protocol, not by dropping records:
when ``records`` grows past the fleet's ``wal_limit`` the router
snapshots the worker and calls :meth:`truncate` with the :meth:`mark`
taken at the snapshot barrier — every truncated record's effect is in
the snapshot, every surviving record's is not, so replay applies each
accepted update exactly once (the no-duplicate-training invariant the
chaos tests assert bit-for-bit).

On-disk format: length-prefixed pickled *batches* of records (the
:data:`~repro.serve.protocol.FRAME_HEADER` framing of the worker
link), appended and flushed per admission flush.  Records are plain
tuples::

    ("open",  session_id, spec_json_dict)
    ("close", session_id)
    ("req",   request_wire_tuple)       # protocol.request_to_wire

A torn final frame (a crash mid-append) is detected by the length
prefix and discarded on open — recovery never feeds a half-written
record to a worker.

Durability scope: appends are flushed to the operating system but
never fsynced.  An accepted record therefore survives the death of
the router or worker *process* (the kernel still holds the bytes), but
not a host crash or power loss, which may lose a recent suffix.

Truncation copies bytes.  The log keeps each batch's ``(byte offset,
records before it)`` — taken from its own running count at append and
from the frames it reads on open — so :meth:`WriteAheadLog.truncate`
finds the batch holding the cut, copies the file from there, and
re-pickles only that one batch, only when the cut falls inside it.  A
snapshot mark is always a batch boundary, so in practice a truncate
decodes nothing.
"""

from __future__ import annotations

import os
import pickle
import shutil
from bisect import bisect_right
from typing import List, Sequence, Tuple

from repro.serve.protocol import FRAME_HEADER, MAX_FRAME_BYTES, encode_frame

Record = Tuple


def _read_batches(path: str
                  ) -> Tuple[List[Tuple[int, List[Record]]], int]:
    """All complete record batches in ``path`` as ``(byte offset,
    records)`` pairs, plus the byte offset of the first
    incomplete/corrupt frame (== file size when clean)."""
    batches: List[Tuple[int, List[Record]]] = []
    clean_end = 0
    if not os.path.exists(path):
        return batches, clean_end
    with open(path, "rb") as handle:
        while True:
            header = handle.read(FRAME_HEADER.size)
            if len(header) < FRAME_HEADER.size:
                break
            (length,) = FRAME_HEADER.unpack(header)
            if length > MAX_FRAME_BYTES:
                break
            body = handle.read(length)
            if len(body) < length:
                break
            try:
                batch = pickle.loads(body)
            except Exception:
                break
            batches.append((clean_end, list(batch)))
            clean_end = handle.tell()
    return batches, clean_end


class WriteAheadLog:
    """Append-only record log for one worker (module docstring)."""

    def __init__(self, path: str) -> None:
        self.path = path
        batches, clean_end = _read_batches(path)
        if os.path.exists(path) and clean_end < os.path.getsize(path):
            # Torn tail from a crash mid-append: drop it before the
            # next append could concatenate garbage with a new frame.
            with open(path, "rb+") as handle:
                handle.truncate(clean_end)
        #: ``(byte offset, records before)`` of every batch in the file.
        self._batches: List[Tuple[int, int]] = []
        #: Records currently in the log (survivors of truncation).
        self.records = 0
        for offset, batch in batches:
            self._batches.append((offset, self.records))
            self.records += len(batch)
        self._size = clean_end
        self._handle = open(path, "ab")

    # -- writing ------------------------------------------------------------

    def append(self, records: Sequence[Record]) -> None:
        """Append one batch of records and flush it to the operating
        system (write-ahead: callers must append before forwarding).
        Survives process death, not a host crash (module docstring)."""
        if not records:
            return
        frame = encode_frame(list(records))
        self._handle.write(frame)
        self._handle.flush()
        self._batches.append((self._size, self.records))
        self._size += len(frame)
        self.records += len(records)

    def mark(self) -> int:
        """The current record count — take it at a snapshot barrier,
        hand it back to :meth:`truncate` once the snapshot persisted."""
        return self.records

    def truncate(self, upto: int) -> None:
        """Drop the first ``upto`` records (their effects are now in a
        persisted snapshot).  Atomic: rewrite-then-rename, so a crash
        mid-truncate leaves the old log, which merely replays more."""
        if upto <= 0:
            return
        self._handle.close()
        head = b""
        copy_from = self._size  # a cut past the end keeps nothing
        kept: List[Tuple[int, int]] = []
        if upto < self.records:
            # The last batch starting at or before the cut holds it.
            index = bisect_right([before for _, before in self._batches],
                                 upto) - 1
            offset, before = self._batches[index]
            copy_from = offset
            kept = self._batches[index:]
            if before < upto:
                # The cut falls inside this batch: re-frame its
                # survivors, copy everything after it.
                copy_from = (self._batches[index + 1][0]
                             if index + 1 < len(self._batches)
                             else self._size)
                with open(self.path, "rb") as handle:
                    handle.seek(offset + FRAME_HEADER.size)
                    batch = pickle.loads(
                        handle.read(copy_from - offset - FRAME_HEADER.size))
                head = encode_frame(batch[upto - before:])
                kept = [(copy_from - len(head), upto)] + kept[1:]
        tmp = self.path + ".tmp"
        with open(self.path, "rb") as src, open(tmp, "wb") as dst:
            dst.write(head)
            src.seek(copy_from)
            shutil.copyfileobj(src, dst)
        os.replace(tmp, self.path)
        shift = copy_from - len(head)
        self._batches = [(offset - shift, before - upto)
                         for offset, before in kept]
        self._size -= shift
        self.records = max(0, self.records - upto)
        self._handle = open(self.path, "ab")

    # -- reading ------------------------------------------------------------

    def replay(self) -> List[Record]:
        """Every surviving record, in append order."""
        self._handle.flush()
        batches, _ = _read_batches(self.path)
        return [record for _, batch in batches for record in batch]

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

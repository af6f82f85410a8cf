"""Batch replay kernel for the tagless CHT.

The Figure 9 harness replays a pre-recorded (pc, collided, distance)
ground-truth stream through each CHT configuration.  For the tagless
organisation that is a walk over the flat counter table plus the
distance sidecar: the indices are precomputed with numpy, then one
loop over the chunk's events reads each cell's prediction and applies
:meth:`TaglessCHT.train`'s rule verbatim — counter and sidecar
together, in place.  Cells the chunk does not index are never read or
written.

Differential tests: ``tests/fastpath/test_cht_diff.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cht.tagless import TaglessCHT
from repro.fastpath.indices import pc_index_arr


def event_arrays(events) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decompose ``LoadEvent`` records into kernel-ready arrays.

    The returned ``distances`` uses -1 where the scalar harness would
    pass ``distance=None`` (i.e. for non-colliding events).
    """
    n = len(events)
    pcs = np.fromiter((e.pc for e in events), dtype=np.int64, count=n)
    conflicting = np.fromiter((e.conflicting for e in events), dtype=bool,
                              count=n)
    collided = np.fromiter((e.collided for e in events), dtype=bool, count=n)
    distances = np.fromiter(
        (e.distance if e.collided else -1 for e in events),
        dtype=np.int64, count=n)
    return pcs, conflicting, collided, distances


def tagless_replay(cht: TaglessCHT, pcs: np.ndarray, collided: np.ndarray,
                   distances: Optional[np.ndarray] = None,
                   batch_size: int = 16384) -> np.ndarray:
    """Lookup→train the whole stream; returns per-event ``colliding``.

    ``distances[t] == -1`` encodes "no distance supplied" (the scalar
    harness passes ``None`` for non-colliding events).  Counter values
    and the distance sidecar end bit-identical to the scalar loop.
    """
    pcs = np.asarray(pcs, dtype=np.int64)
    collided = np.asarray(collided, dtype=bool)
    if distances is None:
        distances = np.full(len(pcs), -1, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.int64)
    n = len(pcs)
    predicted = np.empty(n, dtype=bool)
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        predicted[lo:hi] = _tagless_replay_once(
            cht, pcs[lo:hi], collided[lo:hi], distances[lo:hi])
    return predicted


def _tagless_replay_once(cht: TaglessCHT, pcs, collided,
                         distances) -> np.ndarray:
    cells = cht._counters.cells
    top = cht._counters.max
    threshold = cht._counters.threshold
    sidecar = cht._distances
    predicted = bytearray()
    read = predicted.append
    for i, hit, distance in zip(pc_index_arr(pcs, cht._index_bits).tolist(),
                                collided.tolist(), distances.tolist()):
        value = cells[i]
        read(value >= threshold)
        if hit:
            if value < top:
                value += 1
                cells[i] = value
        elif value:
            value -= 1
            cells[i] = value
        if hit and distance != -1:
            current = sidecar[i]
            if current is None or distance < current:
                sidecar[i] = distance
        elif value < threshold:
            sidecar[i] = None
    return np.frombuffer(predicted, dtype=bool)

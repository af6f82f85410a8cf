"""Batch replay kernel for the tagless CHT.

The Figure 9 harness replays a pre-recorded (pc, collided, distance)
ground-truth stream through each CHT configuration.  For the tagless
organisation that is a pure counter-table walk over the cells a chunk
touches — vectorized exactly by :func:`repro.fastpath.scan.clamped_walk`
— plus the distance sidecar, whose min-update/reset rule depends on
per-cell order and gets a segmented reduce over the same cells.

Differential tests: ``tests/fastpath/test_cht_diff.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cht.tagless import TaglessCHT
from repro.fastpath.indices import pc_index_arr
from repro.fastpath.predictors import gather, scatter
from repro.fastpath.scan import clamped_walk


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
    indices = pc_index_arr(pcs, cht.n_entries)
    max_value = cht._counters[0]._max
    threshold = cht._counters[0]._threshold
    state = gather(cht._counters, indices)
    order = state.order
    before, after, final = clamped_walk(state.ids, np.where(collided, 1, -1),
                                        state.initial, max_value, order=order)
    scatter(cht._counters, state.touched, final.tolist())

    # Distance sidecar: min-update on supplied distances, reset to None
    # whenever a train leaves the counter predicting "not colliding".
    # Only the final per-cell value is observable after the batch, and
    # ops after a cell's last reset fully determine it: a segmented
    # last-reset/min reduce replaces the per-event loop.  Filtering the
    # walk's cell-sorted order keeps events grouped by cell and
    # chronological within each cell without a second argsort.
    has_distance = collided & (distances != -1)
    post_predicts = after >= threshold
    affected = has_distance | ~post_predicts
    if bool(np.any(affected)):
        _BIG = np.iinfo(np.int64).max
        sorted_affected = order[affected[order]]
        cells = indices[sorted_affected]
        is_min = has_distance[sorted_affected]
        dist = distances[sorted_affected]
        pos = np.arange(len(cells), dtype=np.int64)
        starts_mask = np.empty(len(cells), dtype=bool)
        starts_mask[0] = True
        starts_mask[1:] = cells[1:] != cells[:-1]
        starts = np.nonzero(starts_mask)[0]
        lengths = np.diff(np.append(starts, len(cells)))
        # Sorted position of each cell's last reset (-1 when none).
        last_reset = np.maximum.reduceat(np.where(is_min, -1, pos), starts)
        survives = pos > np.repeat(last_reset, lengths)
        group_min = np.minimum.reduceat(
            np.where(is_min & survives, dist, _BIG), starts)
        unique_cells = cells[starts].tolist()
        sidecar = cht._distances
        initial_d = np.fromiter(
            (_BIG if sidecar[c] is None else sidecar[c]
             for c in unique_cells),
            dtype=np.int64, count=len(unique_cells))
        final_d = np.where(last_reset >= 0, group_min,
                           np.minimum(initial_d, group_min))
        for cell_id, value in zip(unique_cells, final_d.tolist()):
            sidecar[cell_id] = None if value == _BIG else value
    return before >= threshold

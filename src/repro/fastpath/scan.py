"""Exact parallel scans for table-cell state evolution.

The replay harnesses train tables against a *pre-recorded* outcome
stream, so the full sequence of updates each table cell will see is
known before any prediction is made.  That turns per-cell state
evolution into a scan problem:

* **Saturating counters.**  One training step is the clip-affine map
  ``f(v) = min(h, max(l, v + a))`` with ``a = ±1``, ``l = 0`` and
  ``h = counter max``.  The class of clip-affine maps is closed under
  composition::

      (a1, l1, h1) then (a2, l2, h2)
          = (a1 + a2, clip(l1 + a2, l2, h2), clip(h1 + a2, l2, h2))

  and the composition is associative, so a Hillis–Steele segmented
  scan over (cell-sorted) events yields, in O(log n) vectorized
  passes, the exact counter value *before* every event — bit-identical
  to running the scalar ``SaturatingCounter.train`` loop.

* **History registers.**  ``shift_history`` makes the register before
  event ``t`` a bit-window of the last ``length`` outcomes of the same
  register (padded with the initial register's bits), which a bounded
  loop of shifted ORs reconstructs directly — or, for one shared
  register, a single sliding-window pass.

Both scans are pinned against the scalar reference by
``tests/fastpath/test_scan.py`` over randomized grids.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_U64 = np.uint64


def _clip(values, low, high):
    """``np.clip`` without its per-call dispatch overhead, which the
    short arrays of a serve-sized window feel (every ``low <= high``)."""
    return np.minimum(np.maximum(values, low), high)


def _compose_clip_affine(a1, l1, h1, a2, l2, h2):
    """Compose two clip-affine maps (apply 1 first, then 2)."""
    a = a1 + a2
    low = _clip(l1 + a2, l2, h2)
    high = _clip(h1 + a2, l2, h2)
    return a, low, high


def clamped_walk(cell_ids: np.ndarray, steps: np.ndarray,
                 initial: np.ndarray, max_value: int,
                 order: np.ndarray = None,
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay ``v = clip(v + step, 0, max_value)`` per cell, in parallel.

    Parameters
    ----------
    cell_ids:
        Per-event table index, in chronological order.
    steps:
        Per-event increment (+1 train-up / -1 train-down).
    initial:
        Per-cell starting values (length = table size).
    max_value:
        Saturation ceiling (the counter's all-ones value).
    order:
        Optional precomputed ``np.argsort(cell_ids, kind="stable")``,
        for callers that already sorted the events by cell.

    Returns
    -------
    (before, after, final):
        ``before[t]``/``after[t]`` are the cell's value before/after
        event ``t`` (chronological order); ``final`` is the whole
        table's values after all events (cells never touched keep
        their initial value).
    """
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    steps = np.asarray(steps, dtype=np.int64)
    initial = np.asarray(initial, dtype=np.int64)
    n = len(cell_ids)
    final = initial.copy()
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), final

    if order is None:
        order = np.argsort(cell_ids, kind="stable")
    seg = cell_ids[order]

    # Inclusive segmented scan of clip-affine triples: each event starts
    # as the single-step map (a=step, l=0, h=max_value) and accumulates
    # the composition of every earlier same-cell step.  Compositions
    # never cross a segment boundary, so the doubling loop only needs to
    # reach the longest segment, not n.
    start_positions = np.flatnonzero(
        np.concatenate(([True], seg[1:] != seg[:-1])))
    longest = int(np.max(np.diff(np.append(start_positions, n))))
    a = steps[order].copy()
    low = np.zeros(n, dtype=np.int64)
    high = np.full(n, max_value, dtype=np.int64)
    offset = 1
    while offset < longest:
        same = np.zeros(n, dtype=bool)
        same[offset:] = seg[offset:] == seg[:-offset]
        ca, cl, ch = _compose_clip_affine(
            a[:-offset], low[:-offset], high[:-offset],
            a[offset:], low[offset:], high[offset:])
        a[offset:] = np.where(same[offset:], ca, a[offset:])
        low[offset:] = np.where(same[offset:], cl, low[offset:])
        high[offset:] = np.where(same[offset:], ch, high[offset:])
        offset *= 2

    after_sorted = _clip(initial[seg] + a, low, high)
    before_sorted = np.empty(n, dtype=np.int64)
    before_sorted[0] = initial[seg[0]]
    same_prev = seg[1:] == seg[:-1]
    before_sorted[1:] = np.where(same_prev, after_sorted[:-1], initial[seg[1:]])

    is_last = np.ones(n, dtype=bool)
    is_last[:-1] = ~same_prev
    final[seg[is_last]] = after_sorted[is_last]

    before = np.empty(n, dtype=np.int64)
    after = np.empty(n, dtype=np.int64)
    before[order] = before_sorted
    after[order] = after_sorted
    return before, after, final


def history_walk(group_ids: np.ndarray, outcomes: np.ndarray,
                 initial: np.ndarray, length: int,
                 order: np.ndarray = None,
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Replay ``h = ((h << 1) | outcome) & mask(length)`` per group.

    Parameters
    ----------
    group_ids:
        Per-event history-register index, chronological order.
    outcomes:
        Per-event shifted-in bit (bool array).
    initial:
        Per-register starting values (length = register count).
    length:
        History length in bits.
    order:
        Optional precomputed ``np.argsort(group_ids, kind="stable")``.

    Returns
    -------
    (before, final):
        ``before[t]`` is the register value seen by event ``t``;
        ``final`` the registers after all events.
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=bool)
    initial = np.asarray(initial, dtype=np.int64)
    n = len(group_ids)
    final = initial.copy()
    if n == 0:
        return np.zeros(0, dtype=np.int64), final
    mask = _U64((1 << length) - 1) if length > 0 else _U64(0)

    if order is None:
        order = np.argsort(group_ids, kind="stable")
    seg = group_ids[order]
    bits = outcomes[order].astype(_U64)

    # Position of each event within its group (0-based).
    ones = np.ones(n, dtype=np.int64)
    pos = np.cumsum(ones) - 1
    starts = np.zeros(n, dtype=bool)
    starts[0] = True
    starts[1:] = seg[1:] != seg[:-1]
    group_start_pos = np.where(starts, pos, 0)
    np.maximum.accumulate(group_start_pos, out=group_start_pos)
    pos = pos - group_start_pos

    # before[t] = ((init << pos) | window of the pos previous bits) & mask
    before = np.zeros(n, dtype=_U64)
    for k in range(length):
        shifted = np.zeros(n, dtype=_U64)
        if n > k + 1:
            shifted[k + 1:] = bits[:n - k - 1] << _U64(k)
        before |= np.where(pos >= k + 1, shifted, _U64(0))
    init_part = np.asarray(initial, dtype=_U64)[seg]
    shift = np.minimum(pos, length).astype(_U64)
    before |= np.where(pos < length, (init_part << shift), _U64(0))
    before &= mask

    after_last = ((before << _U64(1)) | bits) & mask
    is_last = np.ones(n, dtype=bool)
    is_last[:-1] = seg[1:] != seg[:-1]
    final[seg[is_last]] = after_last[is_last].astype(np.int64)

    out = np.empty(n, dtype=np.int64)
    out[order] = before.astype(np.int64)
    return out, final


def global_history_walk(outcomes: np.ndarray, initial: int,
                        length: int) -> Tuple[np.ndarray, int]:
    """:func:`history_walk` for a single shared register (gshare/gskew).

    With one register, the value event ``t`` sees is the ``length``-bit
    window that ends just before ``t`` in the bit stream (the initial
    register's bits, most significant first, then the outcomes).  One
    sliding-window pass over that stream yields every event's register
    and, from the window after the last event, the final register.
    """
    outcomes = np.asarray(outcomes, dtype=bool)
    n = len(outcomes)
    if length <= 0:
        return np.zeros(n, dtype=np.int64), 0
    shifts = range(length - 1, -1, -1)
    stream = np.concatenate((
        np.array([(initial >> k) & 1 for k in shifts], dtype=_U64),
        outcomes.astype(_U64)))
    weights = np.array([1 << k for k in shifts], dtype=_U64)
    registers = (sliding_window_view(stream, length) @ weights).astype(np.int64)
    return registers[:n], int(registers[n])

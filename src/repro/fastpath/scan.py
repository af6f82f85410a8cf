"""State walks for the replay kernels: counter tables and history registers.

The replay harnesses train tables against a *pre-recorded* outcome
stream, so every table index is known before any prediction is made.
What remains is to walk each event's cell or register in order:

* :func:`counter_walk` trains a :class:`~repro.predictors.counters.
  CounterTable` along a chunk's indices, reading and writing its
  ``bytearray`` in place — one plain loop, the scalar
  ``CounterTable.train`` rule inlined.  A chunk's cost is its length;
  cells it does not index are never read or written.
* :func:`register_walk` does the same for a list of per-PC history
  registers (the local predictor's first level).
* :func:`global_history_walk` is the one vectorized walk: with a single
  shared register (gshare, gskew) the value each event sees is a
  fixed-width window of the outcome stream, so one sliding-window
  pass yields every event's register ahead of the per-event loops.

All three are pinned against the scalar reference by
``tests/fastpath/test_scan.py``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_U64 = np.uint64


def counter_walk(table, indices: np.ndarray,
                 outcomes: np.ndarray) -> np.ndarray:
    """Train ``table`` cell ``indices[t]`` toward ``outcomes[t]`` for
    every event in order; returns each event's cell value before its
    train (``int64``), leaving ``table.cells`` trained in place."""
    cells = table.cells
    top = table.max
    before = bytearray()
    read = before.append
    for i, up in zip(indices.tolist(), outcomes.tolist()):
        value = cells[i]
        read(value)
        if up:
            if value < top:
                cells[i] = value + 1
        elif value:
            cells[i] = value - 1
    return np.frombuffer(before, dtype=np.uint8).astype(np.int64)


def register_walk(registers: List[int], indices: np.ndarray,
                  outcomes: np.ndarray, length: int) -> List[int]:
    """Shift ``outcomes[t]`` into register ``indices[t]``
    (``bits.shift_history``) for every event in order; returns each
    event's register value before its shift, leaving ``registers``
    shifted in place."""
    mask = (1 << length) - 1
    before = []
    read = before.append
    for r, outcome in zip(indices.tolist(), outcomes.tolist()):
        history = registers[r]
        read(history)
        registers[r] = ((history << 1) | outcome) & mask
    return before


def global_history_walk(outcomes: np.ndarray, initial: int,
                        length: int) -> Tuple[np.ndarray, int]:
    """Every event's value of one shared ``length``-bit history register.

    The value event ``t`` sees is the ``length``-bit window that ends
    just before ``t`` in the bit stream (the initial register's bits,
    most significant first, then the outcomes).  One sliding-window
    pass over that stream yields every event's register and, from the
    window after the last event, the final register.
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

"""Batch replay kernels for the binary predictor families.

Each kernel consumes a (pc, outcome) event stream, returns the exact
per-event ``(outcome, confidence)`` the scalar predict→update loop
would have produced, and leaves the predictor object's tables and
history registers in the exact state the scalar loop would have left
them in (so scalar use, or the next batch, can continue seamlessly).

Exactness rests on the replay structure: training depends only on the
pre-recorded outcome stream, never on the predictions.  So the numpy
part of a kernel is index precompute — :mod:`repro.fastpath.indices`
and, for the shared global history, :func:`~repro.fastpath.scan.
global_history_walk` — and the state evolution is one plain loop per
leaf predictor over the chunk's events, reading and writing the
predictor's flat :class:`~repro.predictors.counters.CounterTable`
bytes in place (:func:`~repro.fastpath.scan.counter_walk`,
:func:`~repro.fastpath.scan.register_walk`).  gskew's *partial update*
couples its three banks, so its loop walks all three at once.  A
chunk's cost is set by its length, not by the predictor's table sizes:
cells a chunk does not index are never read or written.

Differential tests: ``tests/fastpath/test_predictor_diff.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fastpath.indices import (
    fold_arr,
    gshare_index_arr,
    pc_index_arr,
    skew_indices_arr,
)
from repro.fastpath.scan import counter_walk, global_history_walk, register_walk
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.chooser import MajorityChooser, WeightedChooser
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor

#: Predictor types with a dedicated batch kernel.  Matched with
#: ``type() is`` — a subclass may override predict/update semantics,
#: in which case only the reference backend is authoritative.
_LEAF_KERNELS = {}


def supports(predictor) -> bool:
    """True when ``replay`` has an exact batch kernel for ``predictor``."""
    kind = type(predictor)
    if kind in (MajorityChooser, WeightedChooser):
        return all(supports(c) for c in predictor.components)
    return kind in _LEAF_KERNELS


def _counter_confidence(before: np.ndarray, threshold: int,
                        max_value: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``CounterTable.prediction``/``confidence``.

    Integer-by-integer float64 division matches the scalar Python
    division bit for bit.
    """
    outcome = before >= threshold
    up_span = max_value - threshold
    lo_span = threshold - 1
    conf_up = (np.ones(len(before), dtype=np.float64) if up_span == 0
               else (before - threshold) / up_span)
    conf_lo = (np.ones(len(before), dtype=np.float64) if lo_span == 0
               else (threshold - 1 - before) / lo_span)
    return outcome, np.where(outcome, conf_up, conf_lo)


def _counter_replay(table, indices: np.ndarray, outcomes: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Train ``table`` along ``indices``; return the per-event
    (prediction, confidence) read just before each train."""
    before = counter_walk(table, indices, outcomes)
    return _counter_confidence(before, table.threshold, table.max)


def _bimodal_replay(pred: BimodalPredictor, pcs: np.ndarray,
                    outcomes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    indices = pc_index_arr(pcs, pred._index_bits)
    return _counter_replay(pred._table, indices, outcomes)


def _local_replay(pred: LocalPredictor, pcs: np.ndarray,
                  outcomes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    hist_idx = pc_index_arr(pcs, pred._index_bits)
    hist_before = np.array(register_walk(pred._histories, hist_idx, outcomes,
                                         pred.history_bits), dtype=np.int64)
    # A history narrower than the pattern index folds to itself.
    if pred._pattern_fold:
        hist_before = fold_arr(hist_before, pred._pattern_fold)
    return _counter_replay(pred._pattern, hist_before, outcomes)


def _gshare_replay(pred: GSharePredictor, pcs: np.ndarray,
                   outcomes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    hist_before, hist_final = global_history_walk(
        outcomes, pred._history, pred.history_bits)
    pred._history = hist_final
    indices = gshare_index_arr(pcs, hist_before, pred._index_bits)
    return _counter_replay(pred._table, indices, outcomes)


def _gskew_replay(pred: GSkewPredictor, pcs: np.ndarray,
                  outcomes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized index/history precompute + one partial-update loop.

    The e-gskew partial update couples the three banks (a dissenting
    bank is left alone only when the *majority* was correct), so the
    loop walks the three banks' bytes together, every index
    precomputed.
    """
    hist_before, hist_final = global_history_walk(
        outcomes, pred._history, pred.history_bits)
    pred._history = hist_final
    c0, c1, c2 = (indices.tolist() for indices in
                  skew_indices_arr(pcs, hist_before, pred._index_bits))
    b0, b1, b2 = (bank.cells for bank in pred._banks)
    max_value = pred._banks[0].max
    threshold = pred._banks[0].threshold
    ayes = bytearray()
    vote = ayes.append
    for i, k, m, outcome in zip(c0, c1, c2, outcomes.tolist()):
        x, y, z = b0[i], b1[k], b2[m]
        vx, vy, vz = x >= threshold, y >= threshold, z >= threshold
        votes = vx + vy + vz
        vote(votes)
        # A bank trains unless the majority was right and it dissented.
        retrain = (votes >= 2) != outcome
        if outcome:
            if x < max_value and (vx or retrain):
                b0[i] = x + 1
            if y < max_value and (vy or retrain):
                b1[k] = y + 1
            if z < max_value and (vz or retrain):
                b2[m] = z + 1
        else:
            if x > 0 and (retrain or not vx):
                b0[i] = x - 1
            if y > 0 and (retrain or not vy):
                b1[k] = y - 1
            if z > 0 and (retrain or not vz):
                b2[m] = z - 1
    ayes = np.frombuffer(ayes, dtype=np.uint8)
    return ayes >= 2, np.where((ayes == 0) | (ayes == 3), 1.0, 0.5)


_LEAF_KERNELS.update({
    BimodalPredictor: _bimodal_replay,
    LocalPredictor: _local_replay,
    GSharePredictor: _gshare_replay,
    GSkewPredictor: _gskew_replay,
})


def _majority_replay(chooser: MajorityChooser, pcs: np.ndarray,
                     outcomes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    component_outcomes = [
        _replay_one(c, pcs, outcomes)[0] for c in chooser.components
    ]
    n = len(chooser.components)
    ayes = np.zeros(len(pcs), dtype=np.int64)
    for votes in component_outcomes:
        ayes += votes
    outcome = ayes * 2 > n
    margin = np.abs(2 * ayes - n) / n
    return outcome, margin


def _weighted_replay(chooser: WeightedChooser, pcs: np.ndarray,
                     outcomes: np.ndarray,
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (outcome, confidence, valid) — the chooser may abstain."""
    n = len(pcs)
    total = np.zeros(n, dtype=np.float64)
    scale = 0.0
    for component, weight in zip(chooser.components, chooser.weights):
        comp_out, comp_conf = _replay_one(component, pcs, outcomes)
        if chooser.confidence_scaled:
            w = weight * comp_conf
        else:
            w = np.full(n, weight * 1.0)
        total = total + np.where(comp_out, w, -w)
        scale += abs(weight)
    if scale == 0.0:
        valid = np.zeros(n, dtype=bool)
        return valid.copy(), np.zeros(n, dtype=np.float64), valid
    abs_total = np.abs(total)
    valid = ~(abs_total < chooser.threshold)
    outcome = total > 0
    confidence = abs_total / scale
    # Abstentions mirror NO_PREDICTION: outcome False, confidence 0.
    return (np.where(valid, outcome, False),
            np.where(valid, confidence, 0.0), valid)


def _replay_one(predictor, pcs: np.ndarray,
                outcomes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    kind = type(predictor)
    if kind is MajorityChooser:
        return _majority_replay(predictor, pcs, outcomes)
    if kind is WeightedChooser:
        out, conf, _ = _weighted_replay(predictor, pcs, outcomes)
        return out, conf
    return _LEAF_KERNELS[kind](predictor, pcs, outcomes)


def replay(predictor, pcs, outcomes,
           batch_size: int = 16384) -> Tuple[np.ndarray, np.ndarray]:
    """Batched predict→update replay of a whole (pc, outcome) stream.

    Events are processed in fixed-size chunks; all cross-chunk
    dependencies (counter tables, history registers) flow through the
    predictor object's own state, which each kernel walks in place;
    cells the chunk never indexes are neither read nor written.
    """
    pcs = np.asarray(pcs, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=bool)
    if not supports(predictor):
        raise TypeError(f"no batch kernel for {type(predictor).__name__}")
    n = len(pcs)
    out = np.empty(n, dtype=bool)
    conf = np.empty(n, dtype=np.float64)
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        out[lo:hi], conf[lo:hi] = _replay_one(
            predictor, pcs[lo:hi], outcomes[lo:hi])
    return out, conf


def weighted_replay(chooser: WeightedChooser, pcs, outcomes,
                    batch_size: int = 16384,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`replay` for a WeightedChooser, keeping the abstain
    (``valid``) channel that bank prediction needs."""
    pcs = np.asarray(pcs, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=bool)
    if not supports(chooser):
        raise TypeError("unsupported chooser component")
    n = len(pcs)
    out = np.empty(n, dtype=bool)
    conf = np.empty(n, dtype=np.float64)
    valid = np.empty(n, dtype=bool)
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        out[lo:hi], conf[lo:hi], valid[lo:hi] = _weighted_replay(
            chooser, pcs[lo:hi], outcomes[lo:hi])
    return out, conf, valid

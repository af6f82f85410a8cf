"""One batch entry point across predictor families — the serving kernel.

The per-family replay kernels (:mod:`repro.fastpath.predictors`,
``.cht``, ``.hitmiss``, ``.bank``) each expect their own array dialect.
:mod:`repro.serve` flushes micro-batches of heterogeneous per-PC step
requests, grouped by session, and needs a single uniform call per
group; this module provides it.

The uniform encoding (shared with the wire protocol of
:mod:`repro.serve.protocol`) is three ``int64`` lanes:

``pcs``
    Load program counters.
``outcomes``
    Family-coded resolved outcome: 0/1 for binary predictors (the
    event), 0/1 for CHTs (collided), 0/1 for hit-miss (**hit**), the
    bank index for bank predictors.
``extras``
    CHTs: collision distance; any value below 1 (``-1`` by convention)
    means none.  Other families: ignored.

``replay_steps`` performs predict→update over the whole group and
returns an ``int64`` result lane: 0/1 predictions (hit-miss: predicted
**hit**), bank index or ``-1`` for an abstention.  The contract is the
package-wide one — bit-identical to the scalar predict→update loop
(:func:`repro.serve.batch.scalar_steps` is the reference; the serve
differential suite and the ``REPRO_CHECK_INVARIANTS=1`` oracle both
pin the equivalence).

This module imports numpy and must only be imported once a policy has
resolved to ``"vectorized"`` (or behind
:data:`repro.fastpath.HAS_NUMPY`), like the other kernel submodules.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bank.history import HistoryBankPredictor
from repro.cht.tagless import TaglessCHT
from repro.fastpath import bank as fp_bank
from repro.fastpath import cht as fp_cht
from repro.fastpath import hitmiss as fp_hitmiss
from repro.fastpath import predictors as fp_predictors
from repro.hitmiss.base import HitMissPredictor


def uop_lanes(trace):
    """The struct-of-arrays uop lanes for a trace — the engine-side
    uniform encoding.

    Thin caching façade over
    :func:`repro.fastpath.uoparrays.trace_arrays`: serve handlers and
    benches that already route batches through this module get the
    same :class:`~repro.fastpath.uoparrays.UopArrays` the vectorized
    machine kernel (:mod:`repro.engine.vector`) replays, decomposed at
    most once per trace.  Raises
    :class:`~repro.fastpath.uoparrays.UnsupportedTrace` for traces the
    array model cannot express (the caller falls back to scalar
    replay, exactly like ``Machine.run``).
    """
    from repro.fastpath.uoparrays import trace_arrays
    return trace_arrays(trace)


def supports_steps(family: str, predictor: object) -> bool:
    """True when ``replay_steps`` has an exact kernel for this object.

    Mirrors the per-family ``supports`` predicates; anything rejected
    here must be replayed through the scalar reference loop.
    """
    if family == "binary":
        return fp_predictors.supports(predictor)
    if family == "cht":
        return type(predictor) is TaglessCHT
    if family == "hitmiss":
        return (isinstance(predictor, HitMissPredictor)
                and fp_hitmiss.supports(predictor))
    if family == "bank":
        return (type(predictor) is HistoryBankPredictor
                and fp_bank.supports(predictor))
    return False


def replay_steps(family: str, predictor: object, pcs: np.ndarray,
                 outcomes: np.ndarray,
                 extras: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched predict→update of one session's step run.

    Arrays use the uniform int64 encoding described in the module
    docstring.  Predictor state afterwards is exactly what the scalar
    loop would have left behind.
    """
    pcs = np.asarray(pcs, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if family == "binary":
        predicted, _ = fp_predictors.replay(predictor, pcs,
                                            outcomes.astype(bool))
        return predicted.astype(np.int64)
    if family == "cht":
        if type(predictor) is not TaglessCHT:
            raise TypeError(f"no batch kernel for "
                            f"{type(predictor).__name__}")
        distances = (np.full(len(pcs), -1, dtype=np.int64)
                     if extras is None else np.asarray(extras,
                                                      dtype=np.int64))
        # The scalar loop passes distance=None for non-collided events
        # and for distances below 1.
        distances = np.where(outcomes.astype(bool) & (distances >= 1),
                             distances, -1)
        colliding = fp_cht.tagless_replay(predictor, pcs,
                                          outcomes.astype(bool), distances)
        return colliding.astype(np.int64)
    if family == "hitmiss":
        predicted_hit = fp_hitmiss.replay_hits(predictor, pcs,
                                               outcomes.astype(bool))
        return predicted_hit.astype(np.int64)
    if family == "bank":
        return fp_bank.replay_banks(predictor, pcs, outcomes)
    raise ValueError(f"unknown predictor family {family!r}")

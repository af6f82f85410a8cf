"""Micro-batch execution: kernels when possible, scalar always right.

A flushed micro-batch mixes sessions and ops.  Execution groups it by
session (sessions are independent, so reordering *across* sessions is
unobservable; order *within* a session is preserved exactly), then
splits each session's run at non-``step`` ops:

* maximal runs of ``step`` requests go to the vectorized
  batch-of-heterogeneous-PCs kernel
  (:func:`repro.fastpath.batchapi.replay_steps`) when the session's
  backend is vectorized, numpy is importable, the predictor has an
  exact kernel, and the run is long enough to amortise setup;
* everything else — short runs, pure ``predict``/``update`` ops,
  predictors without kernels, the reference backend — replays through
  :func:`scalar_steps` / the per-op appliers below, which *are* the
  semantics.

A third path sits in front of both in every shard: the hot-trace
memoized replay (:mod:`repro.fastpath.hottrace`), which answers a
recurring (state, window) pair from a guarded capture and aborts to
the paths above on any guard failure.  A window long enough for either
the kernel or the memo is packed once into one int64 lane block
(:func:`pack_lanes`): the kernel reads it and the memo keys on its
bytes.  The executors report which path answered (``via`` in
``{"scalar", "kernel", "hottrace"}``) and, for a window long enough
for the kernel that still ran scalar on the vectorized backend, why
(the degrade reason shards count).

The service's correctness invariant is the package-wide one: batched
results and post-batch predictor state bit-identical to the sequential
scalar replay of the same per-session request stream.  When the
shard's policy arms the oracle (``ExecutionPolicy.invariants_active``)
every kernel dispatch and every hot-trace hit is checked against
:func:`scalar_steps` on a deep copy, results and predictor state
(results only for an unpicklable predictor), by the package's one
shadow oracle, :func:`repro.api.policy.shadow_check`.  Its
:class:`repro.api.policy.ShadowMismatch` becomes a failed response.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Sequence, Tuple

from repro.fastpath.hottrace import MIN_TRACE_LEN, HotTraceEngine
from repro.serve.protocol import PredictRequest


# --------------------------------------------------------------------------
# Scalar reference appliers (the semantics)
# --------------------------------------------------------------------------


def apply_predict(family: str, predictor: object, pc: int) -> int:
    """Pure lookup, family-coded int result."""
    if family == "binary":
        return int(predictor.predict(pc).outcome)
    if family == "cht":
        return int(predictor.lookup(pc).colliding)
    if family == "hitmiss":
        return int(predictor.predict_hit(pc))
    if family == "bank":
        p = predictor.predict(pc)
        return p.bank if p.predicted else -1
    raise ValueError(f"unknown predictor family {family!r}")


def apply_update(family: str, predictor: object, pc: int, outcome: int,
                 distance: Optional[int] = None,
                 address: Optional[int] = None) -> None:
    """Train only."""
    if family == "binary":
        predictor.update(pc, bool(outcome))
    elif family == "cht":
        predictor.train(pc, bool(outcome),
                        distance if (outcome and distance is not None
                                     and distance >= 1) else None)
    elif family == "hitmiss":
        predictor.update(pc, bool(outcome))
    elif family == "bank":
        predictor.update(pc, int(outcome), address)
    else:
        raise ValueError(f"unknown predictor family {family!r}")


def apply_step(family: str, predictor: object, pc: int, outcome: int,
               distance: Optional[int] = None,
               address: Optional[int] = None) -> int:
    """predict-then-update — one event of the streaming protocol."""
    result = apply_predict(family, predictor, pc)
    apply_update(family, predictor, pc, outcome,
                 distance=distance, address=address)
    return result


def scalar_steps(family: str, predictor: object, pcs: Sequence[int],
                 outcomes: Sequence[int],
                 distances: Optional[Sequence[int]] = None) -> List[int]:
    """The sequential scalar replay of one step run — the reference the
    kernels (and the differential suite) are measured against.

    ``distances`` uses the ``-1 = none`` coding of
    :mod:`repro.fastpath.batchapi`.
    """
    out = []
    for i, (pc, outcome) in enumerate(zip(pcs, outcomes)):
        distance = None
        if distances is not None and distances[i] >= 1:
            distance = distances[i]
        out.append(apply_step(family, predictor, pc, int(outcome),
                              distance=distance))
    return out


# --------------------------------------------------------------------------
# Run execution (kernel dispatch + invariant oracle)
# --------------------------------------------------------------------------


#: The ``via`` vocabulary of the ``*_ex`` executors.
VIA_SCALAR = "scalar"
VIA_KERNEL = "kernel"
VIA_HOTTRACE = "hottrace"


def degrade_reason(session) -> Optional[str]:
    """Why a vectorized-backend session would execute scalar, or None.

    :func:`execute_step_arrays_ex` asks once per kernel-length window
    and returns the answer beside ``via``, so shards count (and emit)
    a degrade exactly when such a window lands on the scalar loop."""
    import repro.fastpath as fastpath
    if not fastpath.HAS_NUMPY:
        return "no_numpy"
    from repro.fastpath import batchapi
    if not batchapi.supports_steps(session.family, session.predictor):
        return "no_kernel"
    return None


def execute_steps_ex(session, requests: Sequence[PredictRequest],
                     backend: str, min_kernel_run: int,
                     memo: HotTraceEngine, check: bool = False
                     ) -> Tuple[List[int], str, Optional[str]]:
    """Execute one same-session run of ``step`` requests.

    Returns ``(results, via, degrade)`` (see
    :func:`execute_step_arrays_ex`).  The kernel path is taken only
    when it is exact for this predictor and the run is long enough;
    with ``check`` it is shadow-checked against :func:`scalar_steps`
    on a deep copy of the pre-batch state.
    """
    pcs = [r.pc for r in requests]
    outcomes = [0 if r.outcome is None else int(r.outcome)
                for r in requests]
    distances = [-1 if r.distance is None else int(r.distance)
                 for r in requests]
    return execute_step_arrays_ex(session, pcs, outcomes, distances,
                                  backend, min_kernel_run, memo,
                                  check)


def pack_lanes(pcs: Sequence[int], outcomes: Sequence[int],
               distances: Sequence[int]) -> bytes:
    """One window's three lanes as one ``(3, n)`` little-endian int64
    block — the form the kernel reads and the hot-trace memo keys on.
    Equal blocks mean equal lanes."""
    n = len(pcs)
    return struct.pack(f"<{3 * n}q", *pcs, *outcomes, *distances)


def unpack_lanes(lanes: bytes) -> Tuple[Tuple[int, ...], ...]:
    """``(pcs, outcomes, distances)`` of a :func:`pack_lanes` block."""
    n = len(lanes) // 24
    flat = struct.unpack(f"<{3 * n}q", lanes)
    return flat[:n], flat[n:2 * n], flat[2 * n:]


def execute_step_arrays_ex(session, pcs: Sequence[int],
                           outcomes: Sequence[int],
                           distances: Sequence[int], backend: str,
                           min_kernel_run: int, memo: HotTraceEngine,
                           check: bool = False
                           ) -> Tuple[List[int], str, Optional[str]]:
    """The array-form core of :func:`execute_steps_ex` (``-1`` distance
    = none) — also the execution path of ``replay`` windows, which
    arrive as arrays and never materialise per-step request objects.

    Returns ``(results, via, degrade)``: ``degrade`` is the
    :func:`degrade_reason` of a kernel-length window that ran scalar on
    the vectorized backend, else ``None`` (a lane outside int64 runs
    scalar without one: the predictor has a kernel).

    ``memo`` is the shard's :class:`repro.fastpath.hottrace.
    HotTraceEngine`.  A guarded memo hit answers the window without
    executing a step; otherwise the window runs through the
    kernel/scalar paths below and is offered back to the recorder.
    Runs too short to memoize break the session's state-digest chain.
    ``check`` arms the shadow oracle (the caller's
    ``ExecutionPolicy.invariants_active()``).
    """
    n = len(pcs)
    degrade = None
    use_kernel = n >= max(1, min_kernel_run) and backend == "vectorized"
    if use_kernel:
        degrade = degrade_reason(session)
        use_kernel = degrade is None
    memoize = n >= MIN_TRACE_LEN
    try:
        lanes = (pack_lanes(pcs, outcomes, distances)
                 if use_kernel or memoize else None)
    except struct.error:
        # A lane value outside int64 (the wire protocol does not
        # range-check): only the scalar loop takes Python ints whole.
        lanes, use_kernel, memoize = None, False, False
    if memoize:
        cached = memo.try_replay(session, lanes, check)
        if cached is not None:
            return cached, VIA_HOTTRACE, None

    try:
        if not use_kernel:
            results = scalar_steps(session.family, session.predictor,
                                   pcs, outcomes, distances)
            via = VIA_SCALAR
        else:
            from repro.fastpath import batchapi
            import numpy as np
            block = np.frombuffer(lanes, dtype="<i8").reshape(3, n)
            if check:
                results = _checked_kernel(session, block, pcs, outcomes,
                                          distances)
            else:
                results = batchapi.replay_steps(
                    session.family, session.predictor, block[0], block[1],
                    block[2]).tolist()
            via = VIA_KERNEL
    except BaseException:
        # A mid-window exception (bad op arguments, a kernel fault, a
        # cancellation) leaves the predictor partially mutated with
        # record() never reached.  The chained state digest would then
        # describe the *pre-window* state: break the chain so a later
        # hot window re-fingerprints the true (drifted) state instead
        # of guard-passing against a stale capture.
        HotTraceEngine.note_mutation(session)
        raise
    if memoize:
        memo.record(session, lanes, results)
    else:
        HotTraceEngine.note_mutation(session)  # too short to memoize
    return results, via, degrade


def _checked_kernel(session, block, pcs: Sequence[int],
                    outcomes: Sequence[int],
                    distances: Sequence[int]) -> List[int]:
    """A kernel window under the shadow oracle, kept out of
    :func:`execute_step_arrays_ex` so its unchecked path builds no
    closure."""
    from repro.api.policy import shadow_check
    from repro.fastpath import batchapi
    family = session.family
    return shadow_check(
        session.predictor,
        lambda p: batchapi.replay_steps(family, p, *block).tolist(),
        lambda p: scalar_steps(family, p, pcs, outcomes, distances),
        f"session {session.session_id!r} ({session.spec.kind}): "
        "kernel batch")


# --------------------------------------------------------------------------
# Replay windows (batched-RPC trace chunks)
# --------------------------------------------------------------------------


def replay_digest(results: Sequence[int]) -> int:
    """Order-sensitive 64-bit digest of a replay window's per-step
    results — the ``result`` of a ``replay`` response.

    A deterministic function of the result sequence alone, so any two
    topologies (single process / fleet, scalar / kernel) serving the
    same window must answer the same digest; the differential suite
    compares digests where per-step streams would be too bulky to
    ship back."""
    n = len(results)
    packed = struct.pack(f"<{n}q", *(int(r) for r in results))
    return int.from_bytes(
        hashlib.blake2b(packed, digest_size=8).digest(), "big")


def execute_replay_ex(session, request: PredictRequest, backend: str,
                      min_kernel_run: int, memo: HotTraceEngine,
                      check: bool = False
                      ) -> Tuple[int, int, str, Optional[str]]:
    """Execute one ``replay`` request's trace window.

    Returns ``(digest, n_steps, via, degrade)``.  Exactly equivalent to
    submitting the window as individual ``step`` requests (same kernel
    dispatch rules, same invariant shadow-check via
    :func:`execute_step_arrays_ex`), but the window is one admission
    unit: one future, one WAL record, one wire round trip — and the op
    where hot-trace amortization pays most (a whole recurring window
    answers from one memo hit)."""
    pcs = request.pcs or ()
    outcomes = request.outcomes or ()
    distances = (request.distances if request.distances is not None
                 else [-1] * len(pcs))
    results, via, degrade = execute_step_arrays_ex(
        session, pcs, outcomes, distances, backend, min_kernel_run,
        memo, check)
    return replay_digest(results), len(results), via, degrade

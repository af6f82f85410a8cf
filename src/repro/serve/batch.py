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

A third path sits in front of both when the shard's
:class:`~repro.api.ExecutionPolicy` enables it: the hot-trace memoized
replay (:mod:`repro.fastpath.hottrace`), which answers a recurring
(state, window) pair from a guarded capture and aborts to the paths
below on any guard failure.  The executors report which path answered
(``via`` in ``{"scalar", "kernel", "hottrace"}``).

The service's correctness invariant is the package-wide one: batched
results and post-batch predictor state bit-identical to the sequential
scalar replay of the same per-session request stream.  When the
shard's policy arms the oracle (``ExecutionPolicy.invariants_active``)
every kernel dispatch is shadowed by a scalar replay on a deep copy and
both results and state are compared (:class:`ServeInvariantViolation`
on any mismatch) — the serving counterpart of :mod:`repro.robust`'s engine oracle.  Hot-trace hits
carry the same oracle inside :mod:`repro.fastpath.hottrace`.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import struct
from typing import List, Optional, Sequence, Tuple

from repro.serve.protocol import PredictRequest

class ServeInvariantViolation(AssertionError):
    """A kernel-executed batch diverged from the scalar replay."""


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


def _kernel_eligible(family: str, predictor: object,
                     backend: str) -> bool:
    if backend != "vectorized":
        return False
    import repro.fastpath as fastpath
    if not fastpath.HAS_NUMPY:
        return False
    from repro.fastpath import batchapi
    return batchapi.supports_steps(family, predictor)


def degrade_reason(session, backend: str) -> Optional[str]:
    """Why a vectorized-backend session would execute scalar, or None.

    The structured counterpart of the silent fallback inside
    :func:`execute_step_arrays_ex`: shards use it to count (and emit) a
    degrade exactly when a long-enough run lands on the scalar loop
    despite the vectorized backend being requested."""
    if backend != "vectorized":
        return None
    import repro.fastpath as fastpath
    if not fastpath.HAS_NUMPY:
        return "no_numpy"
    from repro.fastpath import batchapi
    if not batchapi.supports_steps(session.family, session.predictor):
        return "no_kernel"
    return None


def execute_steps_ex(session, requests: Sequence[PredictRequest],
                     backend: str, min_kernel_run: int = 8,
                     hottrace=None, check: bool = False
                     ) -> Tuple[List[int], str]:
    """Execute one same-session run of ``step`` requests.

    Returns ``(results, via)``.  The kernel path is taken only when it
    is exact for this predictor and the run is long enough; with
    ``check`` it is shadow-checked against :func:`scalar_steps` on a
    deep copy of the pre-batch state.
    """
    pcs = [r.pc for r in requests]
    outcomes = [0 if r.outcome is None else int(r.outcome)
                for r in requests]
    distances = [-1 if r.distance is None else int(r.distance)
                 for r in requests]
    return execute_step_arrays_ex(session, pcs, outcomes, distances,
                                  backend, min_kernel_run, hottrace,
                                  check)


def execute_step_arrays_ex(session, pcs: Sequence[int],
                           outcomes: Sequence[int],
                           distances: Sequence[int], backend: str,
                           min_kernel_run: int = 8,
                           hottrace=None, check: bool = False
                           ) -> Tuple[List[int], str]:
    """The array-form core of :func:`execute_steps_ex` (``-1`` distance
    = none) — also the execution path of ``replay`` windows, which
    arrive as arrays and never materialise per-step request objects.

    ``hottrace`` is the shard's :class:`repro.fastpath.hottrace.
    HotTraceEngine` (or None).  A guarded memo hit answers the window
    without executing a step; otherwise the window runs through the
    kernel/scalar paths below and — when hot — is offered back to the
    recorder, which also keeps the state-digest chain honest for runs
    too short to memoize.  ``check`` arms the kernel oracle (the
    caller's ``ExecutionPolicy.invariants_active()``).
    """
    n = len(pcs)
    pre_digest = None
    if hottrace is not None:
        cached = hottrace.try_replay(session, pcs, outcomes, distances)
        if cached is not None:
            return cached, VIA_HOTTRACE
        st = getattr(session, "hottrace", None)
        pre_digest = st.state_digest if st is not None else None

    use_kernel = (n >= max(1, min_kernel_run)
                  and _kernel_eligible(session.family, session.predictor,
                                       backend))
    try:
        if not use_kernel:
            results = scalar_steps(session.family, session.predictor,
                                   pcs, outcomes, distances)
            via = VIA_SCALAR
        else:
            shadow = copy.deepcopy(session.predictor) if check else None

            from repro.fastpath import batchapi
            import numpy as np
            results = batchapi.replay_steps(
                session.family, session.predictor,
                np.asarray(pcs, dtype=np.int64),
                np.asarray(outcomes, dtype=np.int64),
                np.asarray(distances, dtype=np.int64)).tolist()

            if check:
                expect = scalar_steps(session.family, shadow, pcs,
                                      outcomes, distances)
                if results != expect:
                    raise ServeInvariantViolation(
                        f"session {session.session_id!r} ({session.spec.kind}): "
                        f"kernel batch results diverge from scalar replay at "
                        f"index {next(i for i, (a, b) in enumerate(zip(results, expect)) if a != b)} "
                        f"of {n}")
                state, shadow_state = (_state_bytes(session.predictor),
                                       _state_bytes(shadow))
                if (state is not None and shadow_state is not None
                        and state != shadow_state):
                    raise ServeInvariantViolation(
                        f"session {session.session_id!r} ({session.spec.kind}): "
                        f"kernel batch left different predictor state than the "
                        f"scalar replay ({n} steps)")
            via = VIA_KERNEL
    except BaseException:
        # A mid-window exception (bad op arguments, a kernel fault, a
        # cancellation) leaves the predictor partially mutated with
        # record() never reached.  The chained state digest would then
        # describe the *pre-window* state: break the chain so a later
        # hot window re-fingerprints the true (drifted) state instead
        # of guard-passing against a stale capture.
        if hottrace is not None:
            hottrace.note_mutation(session)
        raise
    if hottrace is not None:
        hottrace.record(session, pcs, outcomes, distances, results,
                        pre_digest)
    return results, via


def _state_bytes(predictor: object) -> Optional[bytes]:
    """Canonical state fingerprint; None when unpicklable."""
    try:
        return pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # pragma: no cover - exotic predictor state
        return None


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
                      min_kernel_run: int = 8, hottrace=None,
                      check: bool = False) -> Tuple[int, int, str]:
    """Execute one ``replay`` request's trace window.

    Returns ``(digest, n_steps, via)``.  Exactly equivalent to
    submitting the window as individual ``step`` requests (same kernel
    dispatch rules, same invariant shadow-check via
    :func:`execute_step_arrays_ex`), but the window is one admission
    unit: one future, one WAL record, one wire round trip — and the op
    where hot-trace amortization pays most (whole windows arrive
    pre-packed as the exact lanes the memo is keyed on)."""
    pcs = request.pcs or ()
    outcomes = request.outcomes or ()
    distances = (request.distances if request.distances is not None
                 else [-1] * len(pcs))
    results, via = execute_step_arrays_ex(
        session, pcs, outcomes, distances, backend, min_kernel_run,
        hottrace, check)
    return replay_digest(results), len(results), via

"""Numpy-vectorized batch fast path for the replay harnesses.

The figure harnesses spend almost all their post-PR-2 time in scalar
predict→train loops over pre-recorded event streams.  This package
provides exact batch kernels for those loops — the tagless CHT, the
local/gshare/gskew/bimodal predictor families and their choosers, the
hit-miss and bank predictor adapters, and rng-free address-stream
materialization — selected per object through the
``backend="reference"|"vectorized"`` constructor switch
(:mod:`repro.fastpath.backend`).

Exactness is a hard contract, not an aspiration: every kernel must
produce bit-identical prediction streams, counter/table state, and
figure JSON to the scalar reference (``tests/fastpath/`` pins this over
seeded workload grids; ``docs/testing.md`` describes the methodology).
numpy is optional — without it the vectorized backend silently resolves
to the reference implementation.

Kernel submodules (``predictors``, ``cht``, ``hitmiss``, ``bank``,
``tracegen``, ``indices``, ``scan``, ``uoparrays``) import numpy and
must only be imported behind a :data:`HAS_NUMPY` check — exactly what
:func:`enabled` is for.

The same backend switch also selects the whole-machine replay kernel:
``Machine.run(trace, policy=ExecutionPolicy(backend=...))`` resolves
through :func:`resolve_backend` and routes supported runs to the
event-driven array engine of :mod:`repro.engine.vector` built over the
:mod:`repro.fastpath.uoparrays` uop lanes (see ``docs/engine.md``).
"""

from repro.fastpath.backend import (
    BACKENDS,
    HAS_NUMPY,
    default_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)

__all__ = [
    "BACKENDS",
    "HAS_NUMPY",
    "default_backend",
    "enabled",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]


def enabled(obj) -> bool:
    """True when ``obj`` asked for the vectorized backend and numpy is
    importable — the guard every dispatch site checks before touching
    the kernel submodules."""
    return HAS_NUMPY and getattr(obj, "backend", "reference") == "vectorized"

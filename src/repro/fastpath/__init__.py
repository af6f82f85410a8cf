"""Numpy-vectorized batch fast path for the replay harnesses.

The figure harnesses spend almost all their time in scalar
predict→train loops over pre-recorded event streams.  This package
provides exact batch kernels for those loops — the tagless CHT, the
local/gshare/gskew/bimodal predictor families and their choosers, and
the hit-miss and bank predictor adapters.

Which path runs is decided by the run's
:class:`repro.api.ExecutionPolicy`, never by the predictor object:
``policy.resolved_backend()`` resolves through :func:`resolve_backend`
(the policy's own field, then ``REPRO_BACKEND``, then ``"vectorized"``
when numpy is importable), and each replay harness
(``cht_accuracy.replay``, ``hitmiss_stats.replay``,
``bank_metric.evaluate``) takes the kernel when that reads
``"vectorized"`` and the kernel module's ``supports()`` accepts the
object.

Exactness is a hard contract, not an aspiration: every kernel must
produce bit-identical prediction streams, counter/table state, and
figure JSON to the scalar reference (``tests/fastpath/`` pins this over
seeded workload grids; ``docs/testing.md`` describes the methodology).
numpy is optional — without it the vectorized backend silently resolves
to the reference implementation.

Kernel submodules (``predictors``, ``cht``, ``hitmiss``, ``bank``,
``batchapi``, ``indices``, ``scan``, ``uoparrays``) import numpy and
must only be imported once the policy has resolved to
``"vectorized"`` (which implies :data:`HAS_NUMPY`).

The same policy also selects the whole-machine replay kernel:
``Machine.run(trace, policy=...)`` routes supported runs to the
event-driven array engine of :mod:`repro.engine.vector` built over the
:mod:`repro.fastpath.uoparrays` uop lanes (see ``docs/engine.md``).
"""

from repro.fastpath.backend import (
    BACKENDS,
    HAS_NUMPY,
    resolve_backend,
)

__all__ = [
    "BACKENDS",
    "HAS_NUMPY",
    "resolve_backend",
]

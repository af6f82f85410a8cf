"""Backend resolution for the vectorized fast path.

Two backends exist: ``"reference"`` (the scalar, pure-Python loops —
always available, always authoritative) and ``"vectorized"`` (the numpy
batch kernels of :mod:`repro.fastpath` and the engine kernel of
:mod:`repro.engine.vector`, bit-identical to the reference).

The choice belongs to a run's :class:`repro.api.ExecutionPolicy`, and
``backend="auto"`` resolves here, in order: the ``REPRO_BACKEND``
environment variable, then ``"vectorized"``.  numpy is optional: when
it is missing the vectorized backend silently degrades to the reference
loops, so nothing in the repository *requires* numpy.
"""

from __future__ import annotations

import os

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised only without numpy
    HAS_NUMPY = False

BACKENDS = ("reference", "vectorized")

_ENV_VAR = "REPRO_BACKEND"


def resolve_backend(name: str) -> str:
    """Resolve a policy's backend name to a concrete one.

    ``"auto"`` defers to ``REPRO_BACKEND`` and then to
    ``"vectorized"``.  A request for the vectorized backend on an
    interpreter without numpy degrades to the reference backend rather
    than failing: the fast path is an accelerator, not a capability.
    """
    if name == "auto":
        name = os.environ.get(_ENV_VAR) or "vectorized"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKENDS}")
    if name == "vectorized" and not HAS_NUMPY:
        return "reference"
    return name

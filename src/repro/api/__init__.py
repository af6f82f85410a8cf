"""Unified predictor construction: specs, registry, execution policy.

The one construction path every consumer shares::

    from repro.api import spec_for, build_predictor

    spec = spec_for("hmp.hybrid", gshare_history=11, gskew_history=20)
    hmp = build_predictor(spec)
    assert hmp.spec == spec                      # round-trips
    again = spec.from_json(spec.to_json())       # JSON-stable
    key = spec.cache_key()                       # SHA-256, version-scoped

* :mod:`repro.api.spec` — :class:`PredictorSpec` and the registry core;
* :mod:`repro.api.policy` — :class:`ExecutionPolicy`, the frozen
  backend / invariant-mode bundle accepted by
  ``Machine.run``, the serve tier and the bench CLIs, and
  :func:`shadow_check`, the oracle it arms;
* :mod:`repro.api.registry` — the kind catalogue (importing this
  package registers every kind).
"""

from repro.api.policy import (
    ExecutionPolicy,
    INVARIANT_MODES,
    POLICY_BACKENDS,
    ShadowMismatch,
    canonical_state,
    shadow_check,
)
from repro.api.spec import (
    PredictorSpec,
    RegisteredKind,
    SERVABLE_FAMILIES,
    UnknownKindError,
    build_predictor,
    kind_info,
    register,
    registered_kinds,
    spec_for,
)
from repro.api import registry as _registry  # noqa: F401 - populates kinds

__all__ = [
    "ExecutionPolicy",
    "INVARIANT_MODES",
    "POLICY_BACKENDS",
    "ShadowMismatch",
    "canonical_state",
    "shadow_check",
    "PredictorSpec",
    "RegisteredKind",
    "SERVABLE_FAMILIES",
    "UnknownKindError",
    "build_predictor",
    "kind_info",
    "register",
    "registered_kinds",
    "spec_for",
]

"""Unified predictor construction: specs, registry, protocol adapters.

The one construction path every consumer shares::

    from repro.api import spec_for, build_predictor

    spec = spec_for("hmp.hybrid", gshare_history=11, gskew_history=20)
    hmp = build_predictor(spec, backend="vectorized")
    assert hmp.spec == spec                      # round-trips
    again = spec.from_json(spec.to_json())       # JSON-stable
    key = spec.cache_key()                       # SHA-256, version-scoped

* :mod:`repro.api.spec` — :class:`PredictorSpec` and the registry core;
* :mod:`repro.api.policy` — :class:`ExecutionPolicy`, the frozen
  backend / hot-trace / invariant-mode bundle accepted by
  ``Machine.run``, the serve tier and the bench CLIs;
* :mod:`repro.api.registry` — the kind catalogue (importing this
  package registers every kind);
* :mod:`repro.api.adapters` — family APIs projected onto the
  :class:`~repro.common.types.LoadPredictor` protocol.
"""

from repro.api.policy import (
    ExecutionPolicy,
    INVARIANT_MODES,
    POLICY_BACKENDS,
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
from repro.api.adapters import (
    BankLoadPredictor,
    CollisionLoadPredictor,
    HitMissLoadPredictor,
    as_load_predictor,
)

__all__ = [
    "ExecutionPolicy",
    "INVARIANT_MODES",
    "POLICY_BACKENDS",
    "PredictorSpec",
    "RegisteredKind",
    "SERVABLE_FAMILIES",
    "UnknownKindError",
    "build_predictor",
    "kind_info",
    "register",
    "registered_kinds",
    "spec_for",
    "BankLoadPredictor",
    "CollisionLoadPredictor",
    "HitMissLoadPredictor",
    "as_load_predictor",
]

"""ExecutionPolicy: one value object for "how should this run".

Two execution backends coexist — the scalar reference loops and the
vectorized numpy kernels — and this is the one place that picks
between them.  :class:`ExecutionPolicy` bundles the backend and the
invariant-oracle switch into a frozen, JSON-round-trippable, picklable
object accepted end-to-end::

    from repro.api import ExecutionPolicy

    policy = ExecutionPolicy(backend="reference")      # the scalar oracle
    machine.run(trace, policy=policy)                  # engine
    cht_accuracy.replay(events, cht, policy=policy)    # replay harnesses
    ServeConfig(policy=policy)                         # serve tier
    python -m repro.serve serve --policy '{"backend": "auto"}'

Predictor objects carry no backend of their own.  The environment
variables stay authoritative for the *deferred* modes only, and are
read in exactly one place each: ``backend="auto"`` resolves through
:func:`repro.fastpath.backend.resolve_backend` (policy →
``REPRO_BACKEND`` → ``"vectorized"`` when numpy is importable) and
``check_invariants="auto"`` consults ``REPRO_CHECK_INVARIANTS`` in
:meth:`ExecutionPolicy.invariants_active`.  A default-constructed
policy therefore runs the kernels wherever numpy is importable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict

#: Accepted ``backend`` values.  ``"auto"`` defers to ``REPRO_BACKEND``
#: and then to ``"vectorized"`` at use time.
POLICY_BACKENDS = ("reference", "vectorized", "auto")

#: Accepted ``check_invariants`` modes.  ``"auto"`` defers to the
#: ``REPRO_CHECK_INVARIANTS`` environment variable at use time.
INVARIANT_MODES = ("off", "on", "auto")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Frozen bundle of execution choices.

    Attributes
    ----------
    backend:
        ``"reference"`` | ``"vectorized"`` | ``"auto"``.  ``"auto"``
        resolves through ``REPRO_BACKEND`` and then ``"vectorized"``;
        a vectorized choice still degrades to reference when numpy is
        missing (the fast path is an accelerator, not a capability).
        ``"reference"`` is the scalar oracle, an explicit opt-in.
    check_invariants:
        ``"on"`` arms the shadow oracles unconditionally, ``"off"``
        disarms them, ``"auto"`` defers to ``REPRO_CHECK_INVARIANTS``.
    """

    backend: str = "auto"
    check_invariants: str = "auto"

    def __post_init__(self) -> None:
        # Values arrive from JSON (--policy on the CLIs) as well as
        # code, so they are validated, not assumed.
        if self.backend not in POLICY_BACKENDS:
            raise ValueError(
                f"unknown policy backend {self.backend!r}; expected one "
                f"of {POLICY_BACKENDS}")
        if self.check_invariants not in INVARIANT_MODES:
            raise ValueError(
                f"unknown invariant mode {self.check_invariants!r}; "
                f"expected one of {INVARIANT_MODES}")

    # -- resolution ------------------------------------------------------

    def resolved_backend(self) -> str:
        """The concrete backend name ("reference"/"vectorized") this
        policy selects *right now* (env + numpy availability applied)."""
        from repro.fastpath.backend import resolve_backend
        return resolve_backend(self.backend)

    def invariants_active(self) -> bool:
        """Whether the shadow oracles are armed under this policy."""
        if self.check_invariants == "on":
            return True
        if self.check_invariants == "off":
            return False
        import os
        return os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")

    def replace(self, **changes: object) -> "ExecutionPolicy":
        """A copy with fields replaced (frozen-dataclass convenience)."""
        return replace(self, **changes)

    # -- JSON round trip -------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        return {"backend": self.backend,
                "check_invariants": self.check_invariants}

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "ExecutionPolicy":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown ExecutionPolicy fields: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPolicy":
        return cls.from_json_dict(json.loads(text))

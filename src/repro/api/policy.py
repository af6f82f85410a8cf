"""ExecutionPolicy: one value object for "how should this run".

Three execution paths now coexist — the scalar reference loops, the
vectorized numpy kernels (PR 7), and the hot-trace memoized replay
(:mod:`repro.fastpath.hottrace`) — and before this module the choice
was scattered across ``backend=`` strings, the ``REPRO_BACKEND``
environment variable and the ``REPRO_CHECK_INVARIANTS`` oracle switch.
:class:`ExecutionPolicy` bundles the whole decision into a frozen,
JSON-round-trippable, picklable object accepted end-to-end::

    from repro.api import ExecutionPolicy

    policy = ExecutionPolicy(backend="vectorized", hottrace=True)
    machine.run(trace, policy=policy)                  # engine
    ServeConfig(policy=policy)                         # serve tier
    python -m repro.serve bench --policy '{"backend": "auto"}'

The environment variables stay authoritative for the *deferred*
modes only, and are read in exactly one place each: ``backend="auto"``
resolves through :func:`repro.fastpath.backend.resolve_backend`
(``set_default_backend()`` / ``REPRO_BACKEND`` / ``"reference"``) and
``check_invariants="auto"`` consults ``REPRO_CHECK_INVARIANTS`` in
:meth:`ExecutionPolicy.invariants_active`.  A default-constructed
policy therefore follows the process-wide defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict

#: Accepted ``backend`` values.  ``"auto"`` defers to the process-wide
#: default of :mod:`repro.fastpath.backend` at use time.
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
        resolves through the process default (``set_default_backend``
        / ``REPRO_BACKEND`` / ``"reference"``); an explicit
        ``"vectorized"`` still degrades to reference when numpy is
        missing (the fast path is an accelerator, not a capability).
    hottrace:
        Enable the memoized-replay speculative fast path
        (:mod:`repro.fastpath.hottrace`) in the serve tier.
    hot_threshold:
        Occurrences of a (session, window) pattern before it is
        considered hot and captured.  Must be >= 1.
    min_trace_len:
        Shortest step window worth memoizing; shorter runs never enter
        the heat table (capture/guard bookkeeping would cost more than
        the replay saves).
    max_traces:
        Per-session cap on captured traces; oldest entries are evicted
        first.
    check_invariants:
        ``"on"`` arms the shadow oracles unconditionally, ``"off"``
        disarms them, ``"auto"`` defers to ``REPRO_CHECK_INVARIANTS``.
    """

    backend: str = "auto"
    hottrace: bool = False
    hot_threshold: int = 3
    min_trace_len: int = 8
    max_traces: int = 512
    check_invariants: str = "auto"

    def __post_init__(self) -> None:
        # Values arrive from JSON (--policy on the CLIs) as well as
        # code, so types are validated, not assumed: a str never passes
        # for a bool ('{"hottrace": "no"}' must not enable the fast
        # path via truthiness) and thresholds must be real ints so the
        # ordering comparisons below mean what they say.
        if self.backend not in POLICY_BACKENDS:
            raise ValueError(
                f"unknown policy backend {self.backend!r}; expected one "
                f"of {POLICY_BACKENDS}")
        if self.check_invariants not in INVARIANT_MODES:
            raise ValueError(
                f"unknown invariant mode {self.check_invariants!r}; "
                f"expected one of {INVARIANT_MODES}")
        if isinstance(self.hottrace, int) and not isinstance(self.hottrace,
                                                             bool):
            # 0/1 from hand-written JSON: coerce, anything else rejects.
            if self.hottrace not in (0, 1):
                raise ValueError(
                    f"hottrace must be a bool, got {self.hottrace!r}")
            object.__setattr__(self, "hottrace", bool(self.hottrace))
        elif not isinstance(self.hottrace, bool):
            raise ValueError(
                f"hottrace must be a bool, got {self.hottrace!r}")
        for name in ("hot_threshold", "min_trace_len", "max_traces"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")

    # -- resolution ------------------------------------------------------

    def resolved_backend(self) -> str:
        """The concrete backend name ("reference"/"vectorized") this
        policy selects *right now* (env + numpy availability applied)."""
        from repro.fastpath.backend import resolve_backend
        return resolve_backend(
            None if self.backend == "auto" else self.backend)

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
                "hottrace": self.hottrace,
                "hot_threshold": self.hot_threshold,
                "min_trace_len": self.min_trace_len,
                "max_traces": self.max_traces,
                "check_invariants": self.check_invariants}

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "ExecutionPolicy":
        known = {f: data[f] for f in
                 ("backend", "hottrace", "hot_threshold", "min_trace_len",
                  "max_traces", "check_invariants") if f in data}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown ExecutionPolicy fields: {sorted(unknown)}")
        return cls(**known)  # type: ignore[arg-type]

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPolicy":
        return cls.from_json_dict(json.loads(text))

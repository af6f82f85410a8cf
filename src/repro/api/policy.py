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

The oracle it arms is :func:`shadow_check`, which every fast path (the
engine kernel, serve kernel windows, hot-trace hits, the Figure
9/10/12 replays) calls when :meth:`ExecutionPolicy.invariants_active`
says so, and never otherwise.
"""

from __future__ import annotations

import copy
import json
import pickle
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

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


# --------------------------------------------------------------------------
# The shadow oracle
# --------------------------------------------------------------------------


class ShadowMismatch(AssertionError):
    """A fast path diverged from its scalar reference — raised only by
    :func:`shadow_check`.  Always a bug."""


def shadow_check(subject: object, fast: Callable, reference: Callable,
                 what: str, observe: Optional[Callable] = None,
                 state: Optional[Callable] = None) -> object:
    """Run ``fast`` on ``subject`` and demand it match the reference.

    ``subject`` (a machine, a predictor) is deep-copied first;
    ``reference`` runs on the copy and ``fast`` on the original.  Two
    things must then agree:

    * the observed results — ``observe(value)`` of each side's return
      value (default: the value itself; array lanes compare as lists,
      floats exactly);
    * the post-run state — the canonical pickle of ``state(subject,
      value)`` (default: the subject).  A hook returning None, or an
      object that does not pickle, compares results only.

    Raises :class:`ShadowMismatch` naming ``what`` and the first
    differing field or index; otherwise returns ``fast``'s value.
    """
    shadow = copy.deepcopy(subject)
    expected = reference(shadow)
    actual = fast(subject)
    see = observe or (lambda value: value)
    where = _first_difference(_plain(see(expected)), _plain(see(actual)))
    if where is not None:
        raise ShadowMismatch(
            f"{what} diverged from the scalar reference at {where}")
    post = state or (lambda obj, value: obj)
    ref_obj, fast_obj = post(shadow, expected), post(subject, actual)
    ref_state, fast_state = canonical_state(ref_obj), canonical_state(fast_obj)
    if (ref_state is not None and fast_state is not None
            and ref_state != fast_state):
        raise ShadowMismatch(
            f"{what} left state diverging from the scalar reference "
            f"(field {_differing_field(ref_obj, fast_obj)})")
    return actual


def _plain(value: object) -> object:
    """Array lanes (anything with ``tolist``) as lists, in tuples too,
    so the comparison needs no numpy."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value.tolist() if hasattr(value, "tolist") else value


def _first_difference(expected: object, actual: object,
                      path: str = "result") -> Optional[str]:
    """Where ``actual`` first differs from ``expected`` (a path such
    as ``result['cycles']`` or ``result[0][5]``), or None."""
    if expected == actual:
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        pairs = ((k, expected.get(k), actual.get(k))
                 for k in sorted(set(expected) | set(actual), key=repr))
    elif isinstance(expected, (list, tuple)) and isinstance(actual,
                                                            (list, tuple)):
        pairs = zip(range(len(expected)), expected, actual)
    else:
        return f"{path} (reference {expected!r}, fast {actual!r})"
    for key, e, a in pairs:
        found = _first_difference(e, a, f"{path}[{key!r}]")
        if found is not None:
            return found
    return (f"{path} (reference {type(expected).__name__} of "
            f"{len(expected)}, fast {type(actual).__name__} of {len(actual)})")


def canonical_state(obj: object) -> Optional[bytes]:
    """``obj``'s pickle normalized through one ``loads``/``dumps``
    round trip; None for None or an object that does not pickle.

    Raw pickles are not byte-canonical across lineages: a freshly
    constructed object shares interned strings that a rehydrated or
    deep-copied one does not, so two logically identical states can
    pickle to different bytes (different memo back-references).  One
    round trip erases the interning-induced sharing, after which the
    encoding is a fixed point."""
    if obj is None:
        return None
    try:
        raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    return pickle.dumps(pickle.loads(raw), protocol=pickle.HIGHEST_PROTOCOL)


def _differing_field(expected: object, actual: object) -> str:
    """The first top-level attribute whose canonical state differs,
    or ``"?"`` when the objects expose no attribute dict."""
    e = getattr(expected, "__dict__", None)
    a = getattr(actual, "__dict__", None)
    if e is None or a is None:
        return "?"
    for name in sorted(set(e) | set(a)):
        if canonical_state(e.get(name)) != canonical_state(a.get(name)):
            return repr(name)
    return "?"

"""Typed predictor specifications — the unified construction API.

Every predictor family in the repository (CHT collision predictors,
hit-miss predictors, bank predictors, and the binary-predictor
substrate they share) historically grew its own constructor vocabulary:
``n_entries`` here, ``bank_entries`` there, ``local_entries`` /
``gshare_history`` on the hybrids.  A :class:`PredictorSpec` replaces
that zoo with one value type — a *kind* string naming the registered
organisation plus a flat mapping of canonical parameters
(``size`` / ``bits`` / ``history`` / ``ways`` …) — that is

* **JSON-stable**: :meth:`PredictorSpec.to_json` /
  :meth:`PredictorSpec.from_json` round-trip exactly, with key order
  normalised, so specs can travel over the :mod:`repro.serve` wire
  protocol and live inside run manifests;
* **cache-key-stable**: :meth:`PredictorSpec.cache_key` reuses the
  SHA-256 key-material rules of :mod:`repro.parallel.cache` (schema +
  package version prepended, dataclasses carried with their qualified
  type name), so a spec can address cached results and service
  snapshots;
* **normalised**: construction through :func:`spec_for` merges the
  registered defaults, so two spellings of the same configuration
  compare — and hash — equal.

Builders register themselves through :func:`register` (see
:mod:`repro.api.registry` for the catalogue); :func:`build_predictor`
instantiates a spec and stamps the built object with its spec
(``predictor.spec``) so anything constructed through this API can be
re-serialised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

#: Parameter values are restricted to JSON scalars so that every spec
#: is trivially serialisable and hashable.
ParamValue = object  # bool | int | float | str | None
_SCALARS = (bool, int, float, str, type(None))


class UnknownKindError(KeyError):
    """Raised for a kind string with no registered builder."""

    def __init__(self, kind: str) -> None:
        known = ", ".join(sorted(_REGISTRY))
        super().__init__(f"unknown predictor kind {kind!r}; "
                         f"registered kinds: {known}")
        self.kind = kind


@dataclass(frozen=True)
class RegisteredKind:
    """One entry of the construction registry."""

    kind: str
    family: str  #: "binary" | "cht" | "hitmiss" | "bank" | "storesets"
    defaults: Tuple[Tuple[str, ParamValue], ...]
    builder: Callable[..., object] = field(compare=False)

    @property
    def defaults_dict(self) -> Dict[str, ParamValue]:
        return dict(self.defaults)


_REGISTRY: Dict[str, RegisteredKind] = {}

#: Families with a serving adapter in :mod:`repro.serve` (storesets has
#: an event-driven API that does not reduce to predict/update).
SERVABLE_FAMILIES = ("binary", "cht", "hitmiss", "bank")


def register(kind: str, family: str,
             **defaults: ParamValue) -> Callable[[Callable], Callable]:
    """Class decorator registering a builder under ``kind``.

    ``defaults`` double as the parameter schema: :func:`spec_for`
    rejects parameter names outside it, and normalisation merges the
    default values in.
    """
    for name, value in defaults.items():
        if not isinstance(value, _SCALARS):
            raise TypeError(f"default {name}={value!r} is not a JSON scalar")

    def _decorate(builder: Callable) -> Callable:
        if kind in _REGISTRY:
            raise ValueError(f"predictor kind {kind!r} already registered")
        _REGISTRY[kind] = RegisteredKind(
            kind=kind, family=family,
            defaults=tuple(sorted(defaults.items())), builder=builder)
        return builder

    return _decorate


def registered_kinds() -> Tuple[str, ...]:
    """Every registered kind string, sorted."""
    return tuple(sorted(_REGISTRY))


def kind_info(kind: str) -> RegisteredKind:
    """The registry entry for ``kind`` (raises :class:`UnknownKindError`)."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise UnknownKindError(kind) from None


@dataclass(frozen=True)
class PredictorSpec:
    """A complete, normalised description of one predictor instance.

    Use :func:`spec_for` rather than the raw constructor: it validates
    parameter names and merges registered defaults so equal
    configurations produce equal specs.
    """

    kind: str
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        for name, value in self.params:
            if not isinstance(value, _SCALARS):
                raise TypeError(
                    f"spec parameter {name}={value!r} is not a JSON scalar")

    # -- parameter access ---------------------------------------------------

    @property
    def params_dict(self) -> Dict[str, ParamValue]:
        return dict(self.params)

    def param(self, name: str, default: ParamValue = None) -> ParamValue:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def family(self) -> str:
        """The predictor family ("binary"/"cht"/"hitmiss"/"bank"/…)."""
        return kind_info(self.kind).family

    # -- serialisation ------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "params": self.params_dict}

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, minimal separators."""
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "PredictorSpec":
        kind = payload.get("kind")
        params = payload.get("params", {})
        if not isinstance(kind, str) or not isinstance(params, Mapping):
            raise ValueError(f"malformed spec payload: {payload!r}")
        return spec_for(kind, **{str(k): v for k, v in params.items()})

    @classmethod
    def from_json(cls, text: str) -> "PredictorSpec":
        return cls.from_json_dict(json.loads(text))

    # -- cache addressing ---------------------------------------------------

    def cache_material(self) -> str:
        """The canonical key material (schema + version prepended),
        per the envelope rules of :mod:`repro.parallel.cache`."""
        from repro.parallel.cache import key_material
        return key_material("predictor-spec", self.to_json_dict())

    def cache_key(self) -> str:
        """SHA-256 content address of this spec."""
        from repro.parallel.cache import content_key
        return content_key(self.cache_material())

    # -- construction -------------------------------------------------------

    def build(self) -> object:
        """Shorthand for :func:`build_predictor`."""
        return build_predictor(self)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"


def spec_for(kind: str, **params: ParamValue) -> PredictorSpec:
    """Build a normalised :class:`PredictorSpec` for ``kind``.

    Unknown parameter names raise immediately (catching typos at spec
    construction, not at build time); omitted parameters take the
    registered defaults, so the returned spec is always complete.
    """
    info = kind_info(kind)
    merged = info.defaults_dict
    for name, value in params.items():
        if name not in merged:
            known = ", ".join(sorted(merged)) or "<none>"
            raise TypeError(
                f"unknown parameter {name!r} for predictor kind {kind!r}; "
                f"accepted parameters: {known}")
        merged[name] = value
    return PredictorSpec(kind=kind, params=tuple(sorted(merged.items())))


def build_predictor(spec: PredictorSpec) -> object:
    """Instantiate the predictor a spec describes.

    The built object is stamped with ``predictor.spec`` so it can be
    re-serialised (the round-trip contract pinned by
    ``tests/api/test_spec.py``).
    """
    info = kind_info(spec.kind)
    # Re-normalise, so hand-rolled PredictorSpec instances with missing
    # defaults still build the same object as spec_for would describe.
    normalised = spec_for(spec.kind, **spec.params_dict)
    predictor = info.builder(normalised.params_dict)
    try:
        predictor.spec = normalised
    except AttributeError:  # pragma: no cover - __slots__ classes
        pass
    return predictor

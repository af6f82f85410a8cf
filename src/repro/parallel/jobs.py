"""The job model: picklable work units plus the runner registry.

A :class:`SimJob` names a *registered runner* (a pure function doing one
simulation) and carries the keyword arguments it runs with.  Jobs cross
process boundaries, so everything in them must pickle; runners are
referenced by registry name — never by function object — and the module
that registered them is recorded so spawned workers can re-import it.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

JobParams = Tuple[Tuple[str, object], ...]

#: kind -> (runner, accepts a ``derived_seed`` keyword?)
_REGISTRY: Dict[str, Tuple[Callable[..., object], bool]] = {}


def sim_job(kind: str) -> Callable[[Callable[..., object]],
                                   Callable[..., object]]:
    """Register ``func`` as the runner for jobs of ``kind``.

    Runners must be deterministic functions of their keyword arguments
    (plus the optional ``derived_seed``): the disk cache and the
    serial-vs-parallel identity guarantee both depend on it.
    """

    def decorate(func: Callable[..., object]) -> Callable[..., object]:
        if kind in _REGISTRY and _REGISTRY[kind][0] is not func:
            raise ValueError(f"job kind {kind!r} already registered")
        accepts_seed = "derived_seed" in inspect.signature(func).parameters
        _REGISTRY[kind] = (func, accepts_seed)
        func.job_kind = kind  # type: ignore[attr-defined]
        return func

    return decorate


def registered_kinds() -> Tuple[str, ...]:
    """The currently registered job kinds (sorted)."""
    return tuple(sorted(_REGISTRY))


@dataclass(frozen=True)
class SimJob:
    """One independent simulation work unit.

    Attributes
    ----------
    kind:
        Registered runner name (see :func:`sim_job`).
    key:
        Stable identity within the experiment grid.  Merge order is the
        submission order of jobs, and ``key`` is what error messages,
        job manifests and cache diagnostics show — make it readable
        (e.g. ``("fig7", "cd")``).
    params:
        Keyword arguments for the runner, as a sorted tuple of
        ``(name, value)`` pairs so the job itself is hashable.
    module:
        Module that registered the runner; imported on demand when a
        worker process has not seen the registration yet.
    """

    kind: str
    key: Tuple[object, ...]
    params: JobParams = ()
    module: str = ""

    @staticmethod
    def make(runner: Callable[..., object], key: Tuple[object, ...],
             **kwargs: object) -> "SimJob":
        """Build a job for a runner decorated with :func:`sim_job`."""
        kind = getattr(runner, "job_kind", None)
        if kind is None:
            raise ValueError(f"{runner!r} is not a registered sim_job")
        params = tuple(sorted(kwargs.items()))
        return SimJob(kind=kind, key=key, params=params,
                      module=runner.__module__)

    @property
    def derived_seed(self) -> int:
        """A per-job seed derived stably from the job identity.

        Workers never share RNG state; any job-local randomness must
        come from this (or from seeds passed explicitly in ``params``),
        so a job's behaviour is independent of which worker runs it.
        """
        return derive_seed(self.kind, *self.key)

    def kwargs(self) -> Dict[str, object]:
        """The runner's keyword arguments (``derived_seed`` included
        when the runner declares it)."""
        out = dict(self.params)
        _, accepts_seed = _lookup(self)
        if accepts_seed:
            out.setdefault("derived_seed", self.derived_seed)
        return out

    def run(self) -> object:
        """Execute the job in the current process."""
        runner, _ = _lookup(self)
        return runner(**self.kwargs())

    def describe(self) -> str:
        return f"{self.kind}{self.key!r}"


def _lookup(job: SimJob) -> Tuple[Callable[..., object], bool]:
    """Resolve a job's runner, importing its defining module if needed."""
    entry = _REGISTRY.get(job.kind)
    if entry is None and job.module:
        try:
            importlib.import_module(job.module)
        except ImportError:
            pass
        entry = _REGISTRY.get(job.kind)
    if entry is None:
        raise KeyError(
            f"no runner registered for job kind {job.kind!r} "
            f"(module {job.module or '?'}); import the module that "
            f"defines it before running jobs")
    return entry


def derive_seed(*parts: object) -> int:
    """A stable 63-bit seed from arbitrary (reprable) parts.

    Uses SHA-256 over the joined ``repr`` s — not ``hash()``, which is
    salted per process and would break cross-process determinism.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2 ** 63 - 1)

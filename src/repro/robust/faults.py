"""Deterministic, seeded fault injection.

:class:`FaultPlan` is the chaos schedule consumed by
:class:`repro.parallel.runner.ExecutionPlan`; :class:`FleetFaultPlan`
is its serve-fleet counterpart.  A plan is a frozen value (picklable,
carried into worker processes) whose every decision is a pure function
of ``(seed, salt, identity)`` via SHA-256, so a chaos run is exactly
reproducible: the same plan kills the same workers and garbles the
same cache entries.  Worker kills only ever fire *inside a pool
worker* — the serial path and the pool-to-serial fallback are a safe
harbour by construction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Exit status a chaos-killed worker dies with — distinguishable from a
#: genuine crash (which produces a traceback payload, not a dead pool).
KILL_EXIT_CODE = 86


def _roll(seed: int, salt: str, *parts: object) -> float:
    """Deterministic uniform [0, 1) from ``(seed, salt, parts)``."""
    material = "\x1f".join([str(seed), salt] + [repr(p) for p in parts])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    All fractions are probabilities in [0, 1] evaluated per decision
    point with :func:`_roll` — no global RNG state, so the plan is
    safe to evaluate concurrently from many processes.

    Attributes
    ----------
    seed:
        Root of every decision; two plans with different seeds fault
        different jobs.
    kill_fraction / kill_attempts:
        Fraction of jobs whose worker is killed (``os._exit``), and on
        how many leading attempts the kill fires (1 = first attempt
        only, so the resubmission after the pool rebuild succeeds —
        the self-healing happy path).
    corrupt_cache_fraction:
        Fraction of :class:`~repro.parallel.cache.ResultCache` entries
        :func:`corrupt_cache` garbles when invoked with this plan.
    target_kinds:
        When non-empty, worker kills only fire for jobs whose ``kind``
        is listed (confine chaos to a sacrificial job class).
    """

    seed: int = 0
    kill_fraction: float = 0.0
    kill_attempts: int = 1
    corrupt_cache_fraction: float = 0.0
    target_kinds: Tuple[str, ...] = ()

    def targets(self, job) -> bool:
        """Is ``job`` eligible for worker kills?"""
        return not self.target_kinds or job.kind in self.target_kinds

    def kills(self, job, attempt: int) -> bool:
        """Should the worker running ``job``'s ``attempt`` (1-based)
        be killed?"""
        return (self.kill_fraction > 0.0
                and attempt <= self.kill_attempts
                and self.targets(job)
                and _roll(self.seed, "kill", job.kind, job.key)
                < self.kill_fraction)

    def pre_job_fault(self, job, attempt: int) -> None:
        """Fire any scheduled kill for ``job`` — called by the pool
        worker immediately before execution (never on the serial
        path)."""
        if self.kills(job, attempt):
            os._exit(KILL_EXIT_CODE)

    def as_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["target_kinds"] = list(self.target_kinds)
        return out


@dataclass(frozen=True)
class FleetFaultPlan:
    """A seeded, deterministic schedule of *serve-fleet* faults.

    Where :class:`FaultPlan` perturbs batch simulation jobs, this plan
    perturbs the long-lived worker processes of
    :class:`repro.serve.fleet.ServeFleet`: it travels to each worker
    over the spawn handshake (it is a frozen picklable value) and the
    worker evaluates it locally, so a chaos run kills and stalls the
    same workers at the same points on every execution of the same
    seed.

    Attributes
    ----------
    seed:
        Folded into :func:`_roll` for the fraction-based decisions.
    kill_workers:
        Worker indices whose process dies (``os._exit``) exactly once.
    kill_after_served:
        How many requests a doomed worker executes before dying.  The
        check runs *inside* batch execution, so the death lands
        mid-batch — the hardest point for the WAL-replay recovery.
    kill_fraction:
        Alternative to ``kill_workers``: each worker independently
        doomed with this probability (seeded, deterministic).
    stall_ms:
        Milliseconds a doomed-to-stall worker sleeps before each batch
        (long-tail latency chaos; the router must absorb it without
        losing requests).
    stall_workers:
        Worker indices that stall.
    """

    seed: int = 0
    kill_workers: Tuple[int, ...] = ()
    kill_after_served: int = 64
    kill_fraction: float = 0.0
    stall_ms: int = 0
    stall_workers: Tuple[int, ...] = ()

    def kill_point(self, worker_index: int) -> Optional[int]:
        """Served-request count at which ``worker_index`` dies, or
        ``None`` when this plan never kills it."""
        doomed = worker_index in self.kill_workers
        if not doomed and self.kill_fraction > 0.0:
            doomed = (_roll(self.seed, "fleet-kill", worker_index)
                      < self.kill_fraction)
        return self.kill_after_served if doomed else None

    def stall_seconds(self, worker_index: int) -> float:
        if self.stall_ms and worker_index in self.stall_workers:
            return self.stall_ms / 1000.0
        return 0.0

    def as_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["kill_workers"] = list(self.kill_workers)
        out["stall_workers"] = list(self.stall_workers)
        return out


def parse_chaos_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Build a :class:`FaultPlan` from a CLI ``--chaos`` spec.

    The spec is a comma-separated list of ``fault[=value]`` tokens::

        worker-kill[=fraction]      kill workers (default fraction 0.3)
        cache-corrupt[=fraction]    garble cache entries (default 0.5)
        kind=KIND                   confine worker kills to job KIND
                                    (repeatable)

    e.g. ``--chaos worker-kill,cache-corrupt`` or
    ``--chaos worker-kill=0.5,kind=classification``.  Any other token
    is a :class:`ValueError`: the spec accepts only faults the runner
    actually injects.
    """
    fields: Dict[str, object] = {"seed": seed}
    kinds: List[str] = []
    fractions = {"worker-kill": ("kill_fraction", 0.3),
                 "cache-corrupt": ("corrupt_cache_fraction", 0.5)}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, raw = token.partition("=")
        name = name.strip()
        raw = raw.strip()
        if name in fractions:
            field_name, default = fractions[name]
            try:
                value = float(raw) if raw else default
            except ValueError:
                raise ValueError(
                    f"chaos fault {name!r} needs a numeric value, "
                    f"got {raw!r}") from None
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"chaos fault {name!r} fraction must be in [0, 1], "
                    f"got {value}")
            fields[field_name] = value
        elif name == "kind":
            if not raw:
                raise ValueError("chaos token 'kind' needs a job kind")
            kinds.append(raw)
        else:
            known = sorted(list(fractions) + ["kind"])
            raise ValueError(f"unknown chaos fault {name!r}; "
                             f"choose from {known}")
    if kinds:
        fields["target_kinds"] = tuple(kinds)
    return FaultPlan(**fields)


def corrupt_cache(cache_dir: str, fraction: float = 1.0,
                  seed: int = 0) -> List[str]:
    """Deterministically garble a fraction of cache entries.

    Selected ``.pkl`` files are overwritten with garbage bytes (the
    unpickle-time failure mode) — :class:`ResultCache` must degrade
    each to a miss and recompute, never crash.  Returns the corrupted
    paths (sorted, for reproducible assertions).
    """
    corrupted: List[str] = []
    if not os.path.isdir(cache_dir):
        return corrupted
    for dirpath, _, filenames in os.walk(cache_dir):
        for filename in sorted(filenames):
            if not filename.endswith(".pkl"):
                continue
            if _roll(seed, "corrupt", filename) >= fraction:
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "wb") as handle:
                handle.write(b"\x80\x04chaos: not a pickle")
            corrupted.append(path)
    corrupted.sort()
    return corrupted

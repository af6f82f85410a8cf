"""Deterministic, seeded fault injection.

Two families live here:

**Chaos faults** — the :class:`FaultPlan` consumed by
:class:`repro.parallel.runner.ExecutionPlan`.  A plan is a frozen value
(picklable, carried into worker processes) whose every decision is a
pure function of ``(seed, salt, job identity)`` via SHA-256, so a chaos
run is exactly reproducible: the same plan kills the same workers,
stalls the same jobs, flips the same predictions.  Process-level faults
(kill/stall) only ever fire *inside a worker* — the serial path and the
pool-to-serial fallback are a safe harbour by construction.

**Saboteurs** — deliberately broken engine components
(:class:`SabotagedMOB`, :class:`SkipSquashMachine`,
:class:`LyingOrdering`) used by the invariant tests to prove the
:mod:`repro.robust.invariants` oracle catches each class of real
breakage (forwarding from a younger store, a skipped collision squash,
a leaking MOB, a scheme violating its own dispatch guarantee).

Fault decisions that land on an instrumented machine are emitted as
``fault-injected`` events (:data:`repro.obs.events.EventKind.FAULT`)
so a chaos run's event stream records exactly what was perturbed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bank.base import BankPrediction, BankPredictor
from repro.cht.base import CollisionPrediction, CollisionPredictor
from repro.engine.machine import Machine
from repro.engine.mob import MemoryOrderBuffer
from repro.engine.ordering import TraditionalOrdering
from repro.hitmiss.base import HitMissPredictor
from repro.obs.events import EventKind

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
        only, so a retry succeeds — the self-healing happy path).
    stall_fraction / stall_seconds:
        Fraction of jobs whose worker sleeps ``stall_seconds`` before
        running (exercises the per-job timeout watchdog).
    corrupt_cache_fraction:
        Fraction of :class:`~repro.parallel.cache.ResultCache` entries
        :func:`corrupt_cache` garbles when invoked with this plan.
    flip_cht / flip_hmp / flip_bank:
        Per-prediction flip probabilities applied by
        :func:`apply_fault_plan`'s predictor wrappers.
    extra_load_latency:
        Cycles added to every load by :class:`LatencyFaultHierarchy`.
    target_kinds:
        When non-empty, process-level faults only fire for jobs whose
        ``kind`` is listed (confine chaos to a sacrificial job class).
    """

    seed: int = 0
    kill_fraction: float = 0.0
    kill_attempts: int = 1
    stall_fraction: float = 0.0
    stall_seconds: float = 1.0
    corrupt_cache_fraction: float = 0.0
    flip_cht: float = 0.0
    flip_hmp: float = 0.0
    flip_bank: float = 0.0
    extra_load_latency: int = 0
    target_kinds: Tuple[str, ...] = ()

    # -- job-level decisions ------------------------------------------------

    def targets(self, job) -> bool:
        """Is ``job`` eligible for process-level faults?"""
        return not self.target_kinds or job.kind in self.target_kinds

    def kills(self, job, attempt: int) -> bool:
        """Should the worker running ``job``'s ``attempt`` (1-based)
        be killed?"""
        return (self.kill_fraction > 0.0
                and attempt <= self.kill_attempts
                and self.targets(job)
                and _roll(self.seed, "kill", job.kind, job.key)
                < self.kill_fraction)

    def stalls(self, job) -> bool:
        return (self.stall_fraction > 0.0
                and self.targets(job)
                and _roll(self.seed, "stall", job.kind, job.key)
                < self.stall_fraction)

    def pre_job_fault(self, job, attempt: int,
                      in_worker: bool) -> None:
        """Fire any process-level fault for ``job`` — called by the
        worker immediately before execution.  Never fires when
        ``in_worker`` is false (the serial path must stay safe)."""
        if not in_worker:
            return
        if self.kills(job, attempt):
            os._exit(KILL_EXIT_CODE)
        if self.stalls(job):
            time.sleep(self.stall_seconds)

    @property
    def wants_machine_faults(self) -> bool:
        return bool(self.flip_cht or self.flip_hmp or self.flip_bank
                    or self.extra_load_latency)

    @property
    def wants_process_faults(self) -> bool:
        return bool(self.kill_fraction or self.stall_fraction)

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
        worker-stall[=fraction]     stall workers (default 0.25)
        stall-seconds=S             stall duration (default 1.0)
        cache-corrupt[=fraction]    garble cache entries (default 0.5)
        flip-cht[=fraction]         flip CHT predictions (default 0.05)
        flip-hmp[=fraction]         flip hit/miss predictions
        flip-bank[=fraction]        derange bank predictions
        latency=CYCLES              add CYCLES to every load
        kind=KIND                   confine process faults to job KIND
                                    (repeatable)

    e.g. ``--chaos worker-kill,cache-corrupt`` or
    ``--chaos worker-kill=0.5,flip-hmp=0.1,kind=classification``.
    """
    fields: Dict[str, object] = {"seed": seed}
    kinds: List[str] = []
    defaults = {"worker-kill": 0.3, "worker-stall": 0.25,
                "cache-corrupt": 0.5, "flip-cht": 0.05,
                "flip-hmp": 0.05, "flip-bank": 0.05}
    mapping = {"worker-kill": "kill_fraction",
               "worker-stall": "stall_fraction",
               "cache-corrupt": "corrupt_cache_fraction",
               "flip-cht": "flip_cht", "flip-hmp": "flip_hmp",
               "flip-bank": "flip_bank"}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, raw = token.partition("=")
        name = name.strip()
        raw = raw.strip()
        if name in mapping:
            try:
                value = float(raw) if raw else defaults[name]
            except ValueError:
                raise ValueError(
                    f"chaos fault {name!r} needs a numeric value, "
                    f"got {raw!r}") from None
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"chaos fault {name!r} fraction must be in [0, 1], "
                    f"got {value}")
            fields[mapping[name]] = value
        elif name == "stall-seconds":
            fields["stall_seconds"] = float(raw or 1.0)
        elif name == "latency":
            fields["extra_load_latency"] = int(raw or 10)
        elif name == "kind":
            if not raw:
                raise ValueError("chaos token 'kind' needs a job kind")
            kinds.append(raw)
        else:
            known = sorted(list(mapping) + ["stall-seconds", "latency",
                                            "kind"])
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


# ---------------------------------------------------------------------------
# Predictor / hierarchy fault wrappers (machine-level chaos)
# ---------------------------------------------------------------------------


class FaultyHMP(HitMissPredictor):
    """Wraps an HMP, deterministically flipping a fraction of
    predictions.  Flips perturb *scheduling speculation only* — the
    machine's recovery must absorb them with zero invariant
    violations (that is the point of the chaos test)."""

    def __init__(self, inner: HitMissPredictor, flip_fraction: float,
                 seed: int = 0) -> None:
        self.inner = inner
        self.flip_fraction = flip_fraction
        self.seed = seed
        self.flips = 0
        self._calls = 0

    def predict_hit(self, pc: int, line: Optional[int] = None,
                    now: int = 0) -> bool:
        prediction = self.inner.predict_hit(pc, line, now)
        self._calls += 1
        if _roll(self.seed, "hmp", pc, self._calls) < self.flip_fraction:
            self.flips += 1
            if self.obs is not None:
                self.obs.emit(EventKind.FAULT, now, pc=pc,
                              family="hitmiss", flipped_to=not prediction)
            return not prediction
        return prediction

    def update(self, pc: int, hit: bool, line: Optional[int] = None,
               now: int = 0) -> None:
        self.inner.update(pc, hit, line, now)

    def reset(self) -> None:
        self.inner.reset()

    @property
    def storage_bits(self) -> int:
        return self.inner.storage_bits


class FaultyCHT(CollisionPredictor):
    """Wraps a CHT, deterministically flipping collision predictions."""

    def __init__(self, inner: CollisionPredictor, flip_fraction: float,
                 seed: int = 0) -> None:
        self.inner = inner
        self.flip_fraction = flip_fraction
        self.seed = seed
        self.flips = 0
        self._calls = 0

    def lookup(self, pc: int) -> CollisionPrediction:
        prediction = self.inner.lookup(pc)
        self._calls += 1
        if _roll(self.seed, "cht", pc, self._calls) < self.flip_fraction:
            self.flips += 1
            if self.obs is not None:
                self.obs.emit(EventKind.FAULT, -1, pc=pc, family="cht",
                              flipped_to=not prediction.colliding)
            return CollisionPrediction(colliding=not prediction.colliding,
                                       distance=None)
        return prediction

    def train(self, pc: int, collided: bool,
              distance: Optional[int] = None) -> None:
        self.inner.train(pc, collided, distance)

    def clear(self) -> None:
        self.inner.clear()

    @property
    def storage_bits(self) -> int:
        return self.inner.storage_bits


class FaultyBankPredictor(BankPredictor):
    """Wraps a bank predictor, deranging a fraction of predictions to
    the next bank (mod ``n_banks``)."""

    def __init__(self, inner: BankPredictor, flip_fraction: float,
                 seed: int = 0) -> None:
        self.inner = inner
        self.n_banks = inner.n_banks
        self.flip_fraction = flip_fraction
        self.seed = seed
        self.flips = 0
        self._calls = 0

    def predict(self, pc: int) -> BankPrediction:
        prediction = self.inner.predict(pc)
        self._calls += 1
        if (prediction.predicted
                and _roll(self.seed, "bank", pc, self._calls)
                < self.flip_fraction):
            self.flips += 1
            wrong = (prediction.bank + 1) % max(2, self.n_banks)
            if self.obs is not None:
                self.obs.emit(EventKind.FAULT, -1, pc=pc, family="bank",
                              flipped_to=wrong)
            return BankPrediction(bank=wrong,
                                  confidence=prediction.confidence)
        return prediction

    def update(self, pc: int, bank: int,
               address: Optional[int] = None) -> None:
        self.inner.update(pc, bank, address)

    def reset(self) -> None:
        self.inner.reset()

    @property
    def storage_bits(self) -> int:
        return self.inner.storage_bits


class LatencyFaultHierarchy:
    """Wraps a :class:`~repro.memory.hierarchy.MemoryHierarchy`, adding
    ``extra`` cycles to every load — a degraded-memory chaos mode the
    scheduler must survive (more mispredicted wakeups, same results)."""

    def __init__(self, inner, extra: int) -> None:
        self._inner = inner
        self.extra = int(extra)
        self.injected = 0

    def load(self, address: int, now: int = 0):
        outcome = self._inner.load(address, now)
        self.injected += 1
        return outcome._replace(latency=outcome.latency + self.extra)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    @property
    def obs(self):
        return self._inner.obs

    @obs.setter
    def obs(self, bus) -> None:
        self._inner.obs = bus


def apply_fault_plan(machine: Machine, plan: FaultPlan) -> Machine:
    """Wrap ``machine``'s predictors/hierarchy per ``plan`` (in place).

    Only the machine-level faults (flip fractions, extra latency) are
    applied here; process-level faults are the worker's business.
    Returns the machine for chaining.
    """
    if plan.flip_hmp and machine.hmp is not None:
        machine.hmp = FaultyHMP(machine.hmp, plan.flip_hmp, plan.seed)
    cht = getattr(machine.scheme, "cht", None)
    if plan.flip_cht and cht is not None:
        machine.scheme.cht = FaultyCHT(cht, plan.flip_cht, plan.seed)
    if plan.flip_bank and machine.bank_predictor is not None:
        machine.bank_predictor = FaultyBankPredictor(
            machine.bank_predictor, plan.flip_bank, plan.seed)
    if plan.extra_load_latency:
        machine.hierarchy = LatencyFaultHierarchy(
            machine.hierarchy, plan.extra_load_latency)
    return machine


# ---------------------------------------------------------------------------
# Saboteurs: deliberately broken engine components for oracle tests
# ---------------------------------------------------------------------------


class SabotagedMOB(MemoryOrderBuffer):
    """A MOB with a seeded defect, for proving the oracle catches it.

    Modes
    -----
    ``"forward-younger"``
        :meth:`forwarding_store` may serve a load from a *younger*
        completed store — the classic broken-store-queue bug the
        ``forward-from-older`` invariant exists for.
    ``"leak"``
        :meth:`remove_retired` never drops records, so the MOB grows
        without bound — caught by the ``mob-bound`` invariant.
    """

    MODES = ("forward-younger", "leak")

    def __init__(self, mode: str, obs=None) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown sabotage mode {mode!r}; "
                             f"choose from {self.MODES}")
        super().__init__(obs=obs)
        self.mode = mode

    def forwarding_store(self, load_seq, mem, now):
        record = super().forwarding_store(load_seq, mem, now)
        if record is not None or self.mode != "forward-younger":
            return record
        for candidate in self._stores:
            if (candidate.seq > load_seq and candidate.mem.overlaps(mem)
                    and candidate.complete(now)):
                return candidate
        return None

    def remove_retired(self, seq: int) -> None:
        if self.mode == "leak":
            return  # the bug: retired stores are never reclaimed
        super().remove_retired(seq)


class _NoCollideMOB:
    """MOB view that hides every collision (SkipSquashMachine's lie)."""

    def __init__(self, inner: MemoryOrderBuffer) -> None:
        self._inner = inner

    def colliding_store(self, load_seq, mem, now):
        return None, None

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class SkipSquashMachine(Machine):
    """A machine that *detects* visible collisions (and emits the
    COLLISION event) but skips the squash-and-redispatch recovery,
    letting the load complete with stale data — caught by the
    ``collision-squash`` invariant at retirement."""

    def _execute_load(self, iu, mob, violations, result, now):
        uop = iu.uop
        record, _ = mob.colliding_store(uop.seq, uop.mem, now)
        if record is not None and record.address_known(now):
            if self.obs is not None:
                self.obs.emit(EventKind.COLLISION, now, uop.seq, uop.pc,
                              store_seq=record.seq,
                              store_pc=record.sta.uop.pc, visible=True)
            # The bug: pretend there was no collision and execute the
            # load straight through (no squash, no penalty, stale data).
            super()._execute_load(iu, _NoCollideMOB(mob), violations,
                                  result, now)
            return
        super()._execute_load(iu, mob, violations, result, now)


class LyingOrdering(TraditionalOrdering):
    """An ordering scheme that advertises the Traditional guarantee
    (``never_violates``) while actually dispatching loads past unknown
    STAs — caught by the ``scheme-violation`` invariant the moment a
    hidden collision traps."""

    name = "lying-traditional"
    never_violates = True

    def may_dispatch(self, load, mob, now) -> bool:
        return True

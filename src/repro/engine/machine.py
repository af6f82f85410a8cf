"""The cycle-level out-of-order machine.

Each cycle runs four phases:

1. **resolve** — finalise loads waiting on a colliding store's data;
2. **retire** — in-order, up to ``retire_width`` completed uops;
3. **issue** — scan the scheduling window oldest-first, dispatching
   source-ready uops to free units; loads pass through the ordering
   scheme, and every dispatch verifies its producers' *actual* data
   (a speculatively woken dependent whose data is absent is squashed:
   the slot is wasted and the uop re-enters the window — the
   re-schedule/re-execute cost of sections 2.1-2.2);
4. **rename** — up to ``fetch_width`` trace uops enter the ROB and the
   scheduling window, with fetch stalling on mispredicted branches.

The penalty model follows section 3.1: a load dispatched while an older
overlapping store's data is outstanding is *wrongly scheduled*; its data
is delayed until the store's STD completes, plus the collision penalty.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import BASELINE_MACHINE, MachineConfig
from repro.common.types import UopClass
from repro.engine.inflight import UNKNOWN, InflightUop, classify_collision
from repro.engine.mob import MemoryOrderBuffer
from repro.engine.ordering import OrderingScheme, TraditionalOrdering
from repro.engine.results import SimResult
from repro.hitmiss.base import HitMissPredictor
from repro.hitmiss.oracle import AlwaysHitHMP
from repro.memory.hierarchy import MemoryHierarchy
from repro.bank.base import BankPredictor
from repro.obs.events import EventKind
from repro.predictors.base import BinaryPredictor
from repro.trace.trace import Trace

#: Execution-unit pools: uop classes sharing issue capacity.
_UNIT_POOLS: Dict[UopClass, str] = {
    UopClass.INT: "int",
    UopClass.BRANCH: "int",
    UopClass.FP: "fp",
    UopClass.COMPLEX: "complex",
    UopClass.LOAD: "mem",
    UopClass.STA: "mem",
    UopClass.STD: "mem",
}


class Machine:
    """A configured machine ready to run traces.

    Parameters
    ----------
    config:
        Machine geometry/latencies (default: the section 3.1 baseline).
    scheme:
        Memory ordering scheme (default: Traditional, the paper's
        speedup baseline).
    hmp:
        Hit-miss predictor guiding dependent wakeup.  ``None`` means
        today's behaviour — every load is assumed to hit (an
        :class:`AlwaysHitHMP`).
    hierarchy:
        Optionally share/inject a memory hierarchy (e.g. so a
        :class:`~repro.hitmiss.timing.TimingHMP` can watch its MSHR).
    """

    def __init__(self, config: MachineConfig = BASELINE_MACHINE,
                 scheme: Optional[OrderingScheme] = None,
                 hmp: Optional[HitMissPredictor] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 branch_predictor: Optional[BinaryPredictor] = None,
                 bank_policy: Optional[str] = None,
                 bank_predictor: Optional[BankPredictor] = None,
                 collect_occupancy: bool = False,
                 obs=None) -> None:
        self.config = config
        self.scheme = scheme if scheme is not None else TraditionalOrdering()
        self.hmp = hmp if hmp is not None else AlwaysHitHMP()
        self.hierarchy = (hierarchy if hierarchy is not None
                          else MemoryHierarchy(config.memory))
        #: Optional live front-end branch predictor.  When present, the
        #: taken/not-taken outcome of every branch is predicted at
        #: rename and mispredicts are *derived* (prediction != outcome)
        #: instead of taken from the trace annotations.
        self.branch_predictor = branch_predictor
        #: Multi-banked L1 issue policy (requires l1d.n_banks > 1):
        #: ``None`` ignores banking; ``"oblivious"`` issues loads blind
        #: to banks and pays conflicts with re-execution;
        #: ``"predicted"`` consults ``bank_predictor`` to avoid
        #: co-issuing same-bank loads (section 2.3's scheduling use);
        #: ``"oracle"`` steers with true banks.
        if bank_policy not in (None, "oblivious", "predicted", "oracle"):
            raise ValueError(f"unknown bank policy {bank_policy!r}")
        if bank_policy == "predicted" and bank_predictor is None:
            raise ValueError("'predicted' bank policy needs a predictor")
        self.bank_policy = bank_policy
        self.bank_predictor = bank_predictor
        #: When set, per-cycle window-occupancy and issue-width
        #: histograms are recorded into the result (small overhead).
        self.collect_occupancy = collect_occupancy
        #: When set, every cycle a waiting uop spends in the window is
        #: attributed to a cause (port / operands / ordering / bank) in
        #: ``result.stall_breakdown`` — the "why is this scheme slow"
        #: view (small overhead).
        self.collect_stall_breakdown = False
        #: When set, every retired uop's lifecycle is appended to
        #: ``result.timeline`` for pipeline-diagram rendering
        #: (:mod:`repro.engine.pipeview`).
        self.record_timeline = False
        #: Optional hardware prefetcher observing demand loads (see
        #: :class:`repro.memory.prefetch.StridePrefetcher`).  Must be
        #: constructed over this machine's ``hierarchy``.
        self.prefetcher = None
        #: Optional :class:`repro.obs.events.EventBus`.  When ``None``
        #: (the default) the engine pays one pointer test per hook
        #: point and emits nothing; wire a bus (and the hierarchy's /
        #: predictors' hooks) with :func:`repro.obs.instrument`.
        self.obs = obs
        #: Why the most recent :meth:`run` fell back from a resolved
        #: vectorized backend to the scalar loop (``None`` = it did not
        #: degrade).  The obs-event counterpart is ``BACKEND_DEGRADE``,
        #: emitted only when the fallback was not expected (see
        #: :meth:`run`).
        self.last_degrade_reason: Optional[str] = None
        #: The MOB class :meth:`run` instantiates.  The invariant tests
        #: (``tests/robust/test_invariants.py``) substitute a sabotaged
        #: MOB to prove the invariant oracle catches MOB defects.
        self.mob_factory = MemoryOrderBuffer

    # ------------------------------------------------------------------

    def run(self, trace: Trace, max_cycles: Optional[int] = None,
            policy=None) -> SimResult:
        """Simulate ``trace`` to completion and return the measurements.

        ``policy`` — a :class:`repro.api.ExecutionPolicy` — selects the
        engine implementation; its default (``backend="auto"``)
        resolves through the :mod:`repro.fastpath.backend` chain
        (policy → ``REPRO_BACKEND`` → ``"vectorized"`` when numpy is
        importable): ``"reference"`` is the scalar cycle loop below,
        an explicit opt-in; ``"vectorized"`` replays the same
        machine through the event-driven array kernel
        (:mod:`repro.engine.vector`) with bit-identical results,
        falling back to the reference path when numpy is absent or the
        configuration uses a feature the kernel does not support (the
        event bus, timeline recording, bank policies, prefetchers,
        non-section-3.1 schemes, saboteur subclasses); occupancy and
        stall-breakdown collection stay on the kernel.  The fallback is
        not silent: ``self.last_degrade_reason`` records it either way,
        and an attached obs bus receives a structured
        ``BACKEND_DEGRADE`` event naming the reason when the policy
        asked for ``"vectorized"`` explicitly or the trace itself is not
        expressible.  Under ``"auto"`` a configuration the kernel does
        not support simply runs the scalar loop, with no event.

        Truncation and edge semantics are identical across backends:
        an empty trace finishes at ``cycles == 0`` without touching the
        ceiling; otherwise the simulation raises ``RuntimeError`` (same
        message either way) as soon as it would pass ``max_cycles`` —
        including mid-squash-replay, where in-flight state is simply
        abandoned.

        With the invariant oracle armed (``policy.invariants_active()``:
        ``check_invariants="on"``, or ``"auto"`` deferring to
        ``REPRO_CHECK_INVARIANTS``), every un-instrumented run is
        transparently wrapped in the :mod:`repro.robust.invariants`
        oracle (strict mode) — the CI lever for "the whole suite runs
        violation-free".  On the vectorized backend the oracle
        additionally shadow-replays the trace through the scalar path
        and demands equal results and machine state
        (:func:`repro.api.policy.shadow_check`, raising
        :class:`repro.api.policy.ShadowMismatch`).
        """
        if policy is None:
            from repro.api.policy import ExecutionPolicy
            policy = ExecutionPolicy()
        self.last_degrade_reason = None
        resolved = policy.resolved_backend()
        if resolved == "vectorized":
            from repro.engine import vector
            reason = vector.unsupported_reason(self)
            if reason is None:
                run = (vector.checked_vectorized_run
                       if policy.invariants_active()
                       else vector.run_vectorized)
                try:
                    return run(self, trace, max_cycles=max_cycles)
                except vector.VectorUnsupported as exc:
                    reason = str(exc)  # trace not expressible
                self._note_backend_degrade(reason)
            elif policy.backend == "vectorized":
                self._note_backend_degrade(reason)
            else:
                # "auto" on a configuration docs/engine.md lists as
                # scalar-only: the scalar loop is the expected path,
                # so it is recorded but is no degrade event.
                self.last_degrade_reason = reason
        elif policy.backend == "vectorized":  # pragma: no cover
            # Resolution itself degraded (numpy missing).
            self._note_backend_degrade("numpy unavailable")
        if self.obs is None and policy.invariants_active():
            # Lazy import: repro.robust imports the engine at module
            # level, so the engine must not import it back eagerly.
            from repro.robust.invariants import checked_run
            return checked_run(self, trace, max_cycles=max_cycles)[0]
        return self._run_reference(trace, max_cycles)

    def _note_backend_degrade(self, reason: str) -> None:
        """A vectorized run request fell back to the scalar loop:
        record why, and tell the obs bus when one is attached."""
        self.last_degrade_reason = reason
        if self.obs is not None:
            self.obs.emit(EventKind.BACKEND_DEGRADE, -1, reason=reason)

    def _run_reference(self, trace: Trace,
                       max_cycles: Optional[int] = None) -> SimResult:
        """The scalar cycle-level loop — the authoritative semantics."""
        cfg = self.config
        lat = cfg.latency
        result = SimResult(trace_name=trace.name, scheme=self.scheme.name)
        ceiling = (max_cycles if max_cycles is not None
                   else 60 * len(trace) + 100_000)

        obs = self.obs
        rob: List[InflightUop] = []
        window: List[InflightUop] = []
        mob = self.mob_factory(obs=obs)
        regmap: Dict[int, InflightUop] = {}
        #: Loads that executed past an unknown matching STA, awaiting
        #: the store's resolution: (load, base_done, store record).
        violations: List[Tuple[InflightUop, int, object]] = []
        stall_branch: Optional[InflightUop] = None

        line_bytes = cfg.memory.l1d.line_bytes
        unit_caps = {
            "int": cfg.units.n_int,
            "mem": cfg.units.n_mem,
            "fp": cfg.units.n_fp,
            "complex": cfg.units.n_complex,
        }

        fetch_pos = 0
        n_uops = len(trace.uops)
        now = 0
        trap_stall_until = 0  # front-end stall after an ordering trap

        while fetch_pos < n_uops or rob:
            if now > ceiling:
                raise RuntimeError(
                    f"simulation exceeded {ceiling} cycles on "
                    f"{trace.name!r} ({len(rob)} uops stuck in flight)")

            # -- phase 0: resolve memory-order violations ------------------
            if violations:
                still = []
                for load, base_done, record in violations:
                    sta_cycle = record.sta.data_ready
                    if sta_cycle == UNKNOWN or sta_cycle > now:
                        still.append((load, base_done, record))
                        continue
                    # The violation is detected when the store's address
                    # resolves: the load is squashed and re-executes from
                    # scratch (it re-enters the scheduling window and
                    # will re-dispatch through a memory port); everything
                    # that consumed its value replays behind it.
                    load.pending_collision = False
                    load.issued = False
                    load.data_ready = UNKNOWN
                    load.announce_ready = UNKNOWN
                    load.ready_floor = now + lat.reschedule_delay
                    self._reinsert(window, load)
                    if obs is not None:
                        obs.emit(EventKind.VIOLATION, now,
                                 load.uop.seq, load.uop.pc,
                                 store_seq=record.seq,
                                 store_pc=record.sta.uop.pc)
                    # An ordering violation traps like a mispredicted
                    # branch: the machine flushes and refetches (the
                    # "large performance penalty" of section 1.1).
                    trap_stall_until = max(
                        trap_stall_until,
                        now + lat.branch_mispredict_penalty)
                violations = still

            # -- phase 1: retire ------------------------------------------
            retired = 0
            while rob and retired < cfg.retire_width \
                    and rob[0].retirable(now):
                iu = rob.pop(0)
                retired += 1
                result.retired_uops += 1
                if obs is not None:
                    obs.emit(EventKind.RETIRE, now, iu.uop.seq, iu.uop.pc,
                             uclass=iu.uop.uclass.name,
                             rename_cycle=iu.rename_cycle,
                             issue_cycle=iu.issue_cycle,
                             complete_cycle=iu.data_ready,
                             squashes=iu.squashes,
                             collided=bool(iu.load and iu.load.collided))
                if self.record_timeline:
                    from repro.engine.pipeview import UopTimeline
                    result.timeline.append(UopTimeline(
                        seq=iu.uop.seq, pc=iu.uop.pc,
                        uclass=iu.uop.uclass,
                        rename_cycle=iu.rename_cycle,
                        issue_cycle=iu.issue_cycle,
                        complete_cycle=iu.data_ready,
                        retire_cycle=now,
                        squashes=iu.squashes,
                        collided=bool(iu.load and iu.load.collided)))
                if iu.uop.is_load:
                    result.retired_loads += 1
                    self._finish_load(iu, result)
                elif iu.uop.is_std:
                    self.scheme.on_store_data_done(iu.uop.sta_seq)
            if rob:
                mob.remove_retired(rob[0].uop.seq)
            elif fetch_pos >= n_uops:
                break  # everything retired and the trace is exhausted
            else:
                mob.remove_retired(trace.uops[fetch_pos].seq)

            # -- phase 2: issue --------------------------------------------
            caps = dict(unit_caps)
            issued_any = False
            banks_claimed: Dict[int, int] = {}  # bank -> claiming seq
            true_banks_used: Dict[int, int] = {}  # bank -> executing seq
            stalls = result.stall_breakdown if \
                self.collect_stall_breakdown else None
            for iu in window:
                pool = _UNIT_POOLS.get(iu.uop.uclass)
                if pool is None:  # NOP: complete instantly, no unit
                    iu.data_ready = iu.announce_ready = now
                    iu.issued = True
                    issued_any = True
                    continue
                if caps[pool] <= 0:
                    if stalls is not None:
                        stalls["port"] = stalls.get("port", 0) + 1
                    continue
                if not iu.sources_announced(now):
                    if stalls is not None:
                        stalls["operands"] = stalls.get("operands", 0) + 1
                    continue

                if iu.uop.is_load:
                    self._classify_load(iu, mob, now)
                    if not self.scheme.may_dispatch(iu, mob, now):
                        if stalls is not None:
                            stalls["ordering"] = \
                                stalls.get("ordering", 0) + 1
                        continue
                    if self.bank_policy in ("predicted", "oracle"):
                        # Bank-aware scheduling: refuse to co-issue two
                        # loads believed to hit the same bank.
                        assert iu.uop.mem is not None
                        true_bank = ((iu.uop.mem.address // line_bytes)
                                     % max(1, cfg.memory.l1d.n_banks))
                        if self.bank_policy == "oracle":
                            believed = true_bank
                        else:
                            prediction = self.bank_predictor.predict(
                                iu.uop.pc)
                            believed = (prediction.bank
                                        if prediction.predicted else None)
                        if believed is not None \
                                and believed in banks_claimed:
                            if stalls is not None:
                                stalls["bank"] = stalls.get("bank", 0) + 1
                            continue  # port stays free for other loads
                        if believed is not None:
                            banks_claimed[believed] = iu.uop.seq

                # Verify the producers' data actually exists (hit-miss
                # speculation may have woken us early).
                actual = iu.sources_actually_ready(now)
                caps[pool] -= 1
                issued_any = True
                if actual == UNKNOWN or actual > now:
                    # Squash: the slot is consumed, the uop re-enters.
                    iu.squashes += 1
                    result.squashed_issues += 1
                    if obs is not None:
                        obs.emit(EventKind.SQUASH, now, iu.uop.seq,
                                 iu.uop.pc, cause="operands")
                    floor = (actual if actual != UNKNOWN else now + 1)
                    iu.ready_floor = floor + lat.reschedule_delay
                    continue

                if (iu.uop.is_load and self.bank_policy is not None
                        and cfg.memory.l1d.n_banks > 1):
                    assert iu.uop.mem is not None
                    true_bank = ((iu.uop.mem.address // line_bytes)
                                 % cfg.memory.l1d.n_banks)
                    if self.bank_predictor is not None:
                        self.bank_predictor.observed_update(
                            iu.uop.pc, true_bank, iu.uop.mem.address,
                            now=now)
                    claimed_by = true_banks_used.get(true_bank)
                    if claimed_by is not None:
                        # Bank conflict at execute: the access is
                        # cancelled and re-executes through the pipe
                        # (the slot is wasted, recovery is not free).
                        result.bank_conflicts += 1
                        if obs is not None:
                            obs.emit(EventKind.BANK_CONFLICT, now,
                                     iu.uop.seq, iu.uop.pc,
                                     bank=true_bank, winner=claimed_by)
                        iu.issued = False
                        iu.squashes += 1
                        iu.ready_floor = now + lat.reschedule_delay
                        continue
                    true_banks_used[true_bank] = iu.uop.seq

                self._execute(iu, mob, violations, result, now)

            if issued_any:
                window = [iu for iu in window if not iu.issued]
            if self.collect_occupancy:
                result.window_occupancy.add(len(window))
                used = sum(unit_caps[k] - caps[k] for k in caps)
                result.issue_width_used.add(used)

            # -- phase 3: rename -------------------------------------------
            if stall_branch is not None:
                b = stall_branch
                if (b.data_ready != UNKNOWN and not b.pending_collision
                        and now >= b.data_ready
                        + lat.branch_mispredict_penalty):
                    stall_branch = None
            if stalls is not None and fetch_pos < n_uops:
                # Attribute front-end idleness (full-cycle granularity).
                if stall_branch is not None:
                    stalls["frontend-branch"] = \
                        stalls.get("frontend-branch", 0) + 1
                elif now < trap_stall_until:
                    stalls["frontend-trap"] = \
                        stalls.get("frontend-trap", 0) + 1
                elif len(window) >= cfg.window_size:
                    stalls["frontend-window"] = \
                        stalls.get("frontend-window", 0) + 1
                elif len(rob) >= cfg.register_pool:
                    stalls["frontend-rob"] = \
                        stalls.get("frontend-rob", 0) + 1
            if stall_branch is None and now >= trap_stall_until:
                renamed = 0
                while (renamed < cfg.fetch_width and fetch_pos < n_uops
                       and len(rob) < cfg.register_pool
                       and len(window) < cfg.window_size):
                    uop = trace.uops[fetch_pos]
                    fetch_pos += 1
                    renamed += 1
                    producers = [regmap[r] for r in uop.srcs
                                 if r in regmap and regmap[r].uop.seq < uop.seq]
                    iu = InflightUop(uop, producers)
                    iu.rename_cycle = now
                    rob.append(iu)
                    window.append(iu)
                    if obs is not None:
                        obs.emit(EventKind.RENAME, now, uop.seq, uop.pc,
                                 uclass=uop.uclass.name)
                    if uop.dst is not None:
                        regmap[uop.dst] = iu
                    if uop.is_sta:
                        mob.insert_sta(iu)
                        self.scheme.on_rename_store(iu)
                    elif uop.is_std:
                        mob.attach_std(iu)
                    elif uop.is_load:
                        self.scheme.on_rename_load(iu)
                    elif uop.is_branch:
                        result.branches += 1
                        mispredicted = uop.mispredicted
                        if self.branch_predictor is not None:
                            prediction = self.branch_predictor.predict(
                                uop.pc)
                            self.branch_predictor.observed_update(
                                uop.pc, uop.taken, now=now)
                            mispredicted = (bool(prediction.outcome)
                                            != uop.taken)
                        if mispredicted:
                            result.branch_mispredicts += 1
                            stall_branch = iu
                            break

            now += 1

        result.cycles = now
        result.l1_miss_rate = self.hierarchy.l1_miss_rate
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _reinsert(window: List[InflightUop], iu: InflightUop) -> None:
        """Put a replayed load back into the window in program order."""
        seq = iu.uop.seq
        for pos, other in enumerate(window):
            if other.uop.seq > seq:
                window.insert(pos, iu)
                return
        window.append(iu)

    def _classify_load(self, iu: InflightUop, mob: MemoryOrderBuffer,
                       now: int) -> None:
        """Record the Figure 1 ground truth at the first dispatch chance."""
        info = iu.load
        assert info is not None and iu.uop.mem is not None
        if info.conflicting is not None:
            return  # already classified at an earlier opportunity
        info.conflicting = mob.has_unknown_sta(iu.uop.seq, now)
        record, distance = mob.colliding_store(iu.uop.seq, iu.uop.mem, now)
        info.would_collide = record is not None
        info.collide_distance = distance
        if record is not None:
            info.collide_store_pc = record.sta.uop.pc
            info.collide_store_seq = record.seq

    def _execute(self, iu: InflightUop, mob: MemoryOrderBuffer,
                 violations: List[Tuple[InflightUop, int, object]],
                 result: SimResult, now: int) -> None:
        """Dispatch ``iu`` and set its completion/announcement cycles."""
        lat = self.config.latency
        iu.issued = True
        iu.issue_cycle = now
        uop = iu.uop
        if self.obs is not None:
            self.obs.emit(EventKind.ISSUE, now, uop.seq, uop.pc,
                          uclass=uop.uclass.name)

        if uop.is_load:
            self._execute_load(iu, mob, violations, result, now)
            return

        if uop.is_sta:
            done = now + lat.agu_latency
            iu.data_ready = iu.announce_ready = done
            assert uop.mem is not None
            self.hierarchy.store(uop.mem.address, done)
            return

        iu.data_ready = iu.announce_ready = now + lat.of(uop.uclass)

    def _execute_load(self, iu: InflightUop, mob: MemoryOrderBuffer,
                      violations: List[Tuple[InflightUop, int, object]],
                      result: SimResult, now: int) -> None:
        lat = self.config.latency
        obs = self.obs
        info = iu.load
        uop = iu.uop
        assert info is not None and uop.mem is not None
        address = uop.mem.address
        line = address // self.config.memory.l1d.line_bytes
        t_addr = now + lat.agu_latency

        record, _ = mob.colliding_store(uop.seq, uop.mem, now)
        if record is not None and record.address_known(now):
            # Visible conflict: the overlapping store's address is known
            # but its data is not.  The load occupies the memory port,
            # detects the match, and is re-dispatched until the data
            # exists (P6 keeps it in the reservation station); the final
            # execution pays the collision penalty on its data.
            if not info.collided:
                info.collided = True
                result.collision_penalties += 1
                if obs is not None:
                    obs.emit(EventKind.COLLISION, now, uop.seq, uop.pc,
                             store_seq=record.seq,
                             store_pc=record.sta.uop.pc, visible=True)
                # Dependents were already promised the optimistic
                # latency; they will wake, execute without data, and
                # re-execute "until the STD is successfully completed".
                iu.announce_ready = t_addr + self.config.memory.l1_latency
            iu.issued = False
            iu.squashes += 1
            result.squashed_issues += 1
            if obs is not None:
                obs.emit(EventKind.SQUASH, now, uop.seq, uop.pc,
                         cause="collision")
            # Each re-execution is a full pass through the pipeline
            # (schedule, register read, AGU, access) — not a one-cycle
            # re-poll of the reservation station.
            iu.ready_floor = now + lat.agu_latency + lat.reschedule_delay
            return
        if record is not None:
            # Hidden violation: the matching store's address is still
            # unknown, so the machine cannot see the conflict.  The load
            # executes with stale data; when the STA resolves, the load
            # and everything that consumed its value replay (the costly
            # AC-PNC case of section 2.1).
            if not info.collided:
                info.collided = True
                result.collision_penalties += 1
                if obs is not None:
                    obs.emit(EventKind.COLLISION, now, uop.seq, uop.pc,
                             store_seq=record.seq,
                             store_pc=record.sta.uop.pc, visible=False)
            outcome = self.hierarchy.load(address, t_addr)
            base_done = t_addr + outcome.latency
            if info.predicted_hit is None:
                predicted_hit = self.hmp.predict_hit(uop.pc, line, now)
                info.predicted_hit = predicted_hit
                info.actual_hit = outcome.l1_hit
                info.line = outcome.line
                result.hitmiss.record(outcome.l1_hit, predicted_hit)
                self.hmp.observed_update(uop.pc, outcome.l1_hit, line, now)
            iu.pending_collision = True
            iu.data_ready = UNKNOWN
            iu.announce_ready = base_done  # dependents wake, then squash
            violations.append((iu, base_done, record))
            return

        # Store-to-load forwarding: with no incomplete overlapping
        # store in the way, a completed older store can supply the data
        # directly from the store queue.
        forward_from = (mob.forwarding_store(uop.seq, uop.mem, now)
                        if lat.forward_latency is not None else None)
        if forward_from is not None:
            result.forwarded_loads += 1
            if obs is not None:
                obs.emit(EventKind.FORWARD, now, uop.seq, uop.pc,
                         store_seq=forward_from.seq,
                         store_pc=forward_from.sta.uop.pc)
            done = now + lat.forward_latency
            if info.collided:
                done += lat.collision_penalty
            if info.predicted_hit is None:
                # Forwarded data behaves like a hit for HMP purposes.
                predicted_hit = self.hmp.predict_hit(uop.pc, line, now)
                info.predicted_hit = predicted_hit
                info.actual_hit = True
                info.line = line
                result.hitmiss.record(True, predicted_hit)
                self.hmp.observed_update(uop.pc, True, line, now)
            iu.data_ready = done
            iu.announce_ready = done
            return

        # Hit-miss prediction happens at schedule time, before the
        # access disturbs the cache/MSHR state.
        outcome = self.hierarchy.load(address, t_addr)
        base_done = t_addr + outcome.latency
        if info.collided:
            # Recovery from the wrong ordering delays the data.
            base_done += lat.collision_penalty
        if info.predicted_hit is None:
            predicted_hit = self.hmp.predict_hit(uop.pc, line, now)
            info.predicted_hit = predicted_hit
            info.actual_hit = outcome.l1_hit
            info.line = outcome.line
            result.hitmiss.record(outcome.l1_hit, predicted_hit)
            self.hmp.observed_update(uop.pc, outcome.l1_hit, line, now)
        predicted_hit = bool(info.predicted_hit)

        if self.prefetcher is not None:
            self.prefetcher.on_demand_access(uop.pc, address, t_addr)

        iu.data_ready = base_done
        if predicted_hit and not outcome.l1_hit:
            # AM-PH: dependents were promised L1 latency; they will wake
            # early, issue, and squash (today's re-execution behaviour).
            iu.announce_ready = t_addr + self.config.memory.l1_latency
        elif not predicted_hit and outcome.l1_hit:
            # AH-PM: dependents may only dispatch once the hit
            # indication arrives.
            iu.announce_ready = base_done + lat.hit_indication_delay
        else:
            iu.announce_ready = base_done

    def _finish_load(self, iu: InflightUop, result: SimResult) -> None:
        """Classify for Figure 1 stats and train the ordering scheme."""
        info = iu.load
        assert info is not None
        if info.conflicting is None:
            # Never reached a dispatch-opportunity check (should not
            # happen for an executed load, but guard anyway).
            return
        cls = classify_collision(info.conflicting,
                                 bool(info.would_collide),
                                 info.predicted_colliding)
        info.classification = cls
        result.load_classes[cls] += 1
        self.scheme.on_retire_load(iu)

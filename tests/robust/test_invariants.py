"""The invariant oracle: clean runs pass, every saboteur is caught.

The saboteurs are deliberately broken engine components defined here,
next to the tests that prove the oracle catches each one.  The engine
kernel accepts exact types only, so these subclasses always run on the
scalar loop, where their defects stay observable.
"""

import dataclasses

import pytest

from repro.common.config import BASELINE_MACHINE
from repro.engine.machine import Machine
from repro.engine.mob import MemoryOrderBuffer
from repro.engine.ordering import TraditionalOrdering, make_scheme
from repro.experiments.harness import get_trace
from repro.obs.events import EventBus, EventKind
from repro.robust import InvariantChecker, InvariantViolation, checked_run
from tests.engine.helpers import MicroTrace

class SabotagedMOB(MemoryOrderBuffer):
    """A MOB with a seeded defect.

    ``"forward-younger"`` lets :meth:`forwarding_store` serve a load
    from a *younger* completed store (caught by ``forward-from-older``);
    ``"leak"`` never drops retired records (caught by ``mob-bound``).
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
    """Detects visible collisions (and emits the COLLISION event) but
    skips the squash-and-redispatch recovery, letting the load complete
    with stale data (caught by ``collision-squash``)."""

    def _execute_load(self, iu, mob, violations, result, now):
        uop = iu.uop
        record, _ = mob.colliding_store(uop.seq, uop.mem, now)
        if record is not None and record.address_known(now):
            if self.obs is not None:
                self.obs.emit(EventKind.COLLISION, now, uop.seq, uop.pc,
                              store_seq=record.seq,
                              store_pc=record.sta.uop.pc, visible=True)
            super()._execute_load(iu, _NoCollideMOB(mob), violations,
                                  result, now)
            return
        super()._execute_load(iu, mob, violations, result, now)


class LyingOrdering(TraditionalOrdering):
    """Advertises the Traditional guarantee (``never_violates``) while
    dispatching loads past unknown STAs (caught by
    ``scheme-violation``)."""

    name = "lying-traditional"
    never_violates = True

    def may_dispatch(self, load, mob, now) -> bool:
        return True


SCHEMES = ("traditional", "opportunistic", "postponing", "inclusive",
           "exclusive", "perfect")


class TestCleanRuns:
    """A healthy machine must report zero violations on every scheme."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheme_runs_clean(self, scheme):
        trace = get_trace("gcc", 2000)
        machine = Machine(scheme=make_scheme(scheme))
        result, checker = checked_run(machine, trace)
        assert checker.ok
        assert checker.n_events > 0
        assert result.cycles > 0

    def test_checked_run_is_pure_observer(self):
        trace = get_trace("gcc", 2000)
        bare = Machine(scheme=make_scheme("opportunistic")).run(trace)
        machine = Machine(scheme=make_scheme("opportunistic"))
        checked, checker = checked_run(machine, trace)
        assert checked.cycles == bare.cycles
        assert checked.retired_uops == bare.retired_uops
        # The private bus is fully unwired afterwards.
        assert machine.obs is None
        assert machine.hierarchy.obs is None

    def test_checker_summary_shape(self):
        trace = get_trace("gcc", 1000)
        _, checker = checked_run(Machine(), trace)
        summary = checker.summary()
        assert summary["events_checked"] == checker.n_events
        assert summary["uops_renamed"] == summary["uops_retired"]
        assert summary["violations"] == []


class TestSaboteursAreCaught:
    """Each seeded fault class must trip its dedicated invariant."""

    def test_forwarding_from_younger_store_is_caught(self):
        # A broken store queue that forwards from a *younger* completed
        # store: load A misses slowly, the dependent load at 0x100
        # dispatches late, and by then the younger store to 0x100 has
        # completed — the sabotaged MOB serves it anyway.
        config = dataclasses.replace(
            BASELINE_MACHINE,
            latency=dataclasses.replace(BASELINE_MACHINE.latency,
                                        forward_latency=2))
        trace = (MicroTrace()
                 .load(dst=1, address=0x9000)
                 .load(dst=2, address=0x100, addr_src=1)
                 .store(address=0x100)
                 .build())
        machine = Machine(config, scheme=make_scheme("opportunistic"))
        machine.mob_factory = \
            lambda obs=None: SabotagedMOB("forward-younger", obs=obs)
        with pytest.raises(InvariantViolation) as excinfo:
            checked_run(machine, trace)
        assert excinfo.value.invariant == "forward-from-older"
        assert excinfo.value.window  # post-mortem context travels along

    def test_skipped_collision_squash_is_caught(self):
        # A visible collision (load issued past a store whose data is
        # still pending) must squash the load; this machine detects the
        # collision but executes straight through.
        trace = (MicroTrace()
                 .load(dst=1, address=0x9100)
                 .store(address=0x200, data_src=1)
                 .load(dst=2, address=0x200)
                 .build())
        machine = SkipSquashMachine(scheme=make_scheme("traditional"))
        with pytest.raises(InvariantViolation) as excinfo:
            checked_run(machine, trace)
        assert excinfo.value.invariant == "collision-squash"

    def test_leaking_mob_is_caught(self):
        # remove_retired never reclaims: with a 16-entry pool the MOB
        # occupancy must exceed the in-flight bound within 40 stores.
        config = dataclasses.replace(BASELINE_MACHINE, register_pool=16,
                                     window_size=16)
        trace = MicroTrace()
        for i in range(40):
            trace.store(address=0x1000 + 64 * i)
        machine = Machine(config)
        machine.mob_factory = lambda obs=None: SabotagedMOB("leak", obs=obs)
        with pytest.raises(InvariantViolation) as excinfo:
            checked_run(machine, trace.build())
        assert excinfo.value.invariant == "mob-bound"

    def test_scheme_breaking_its_guarantee_is_caught(self):
        # A scheme advertising the Traditional never-violates guarantee
        # while dispatching loads past unknown STAs.
        trace = (MicroTrace()
                 .load(dst=1, address=0x9200)
                 .store(address=0x300, addr_src=1)
                 .load(dst=2, address=0x300)
                 .build())
        machine = Machine(scheme=LyingOrdering())
        with pytest.raises(InvariantViolation) as excinfo:
            checked_run(machine, trace)
        assert excinfo.value.invariant == "scheme-violation"

    def test_non_strict_mode_collects_instead_of_raising(self):
        trace = (MicroTrace()
                 .load(dst=1, address=0x9200)
                 .store(address=0x300, addr_src=1)
                 .load(dst=2, address=0x300)
                 .build())
        machine = Machine(scheme=LyingOrdering())
        result, checker = checked_run(machine, trace, strict=False)
        assert result.retired_uops == len(trace.uops)
        assert not checker.ok
        assert any(v.invariant == "scheme-violation"
                   for v in checker.violations)
        assert checker.summary()["violations"]

    def test_sabotage_mode_is_validated(self):
        with pytest.raises(ValueError, match="unknown sabotage mode"):
            SabotagedMOB("made-up-mode")


def _checker(**kwargs):
    bus = EventBus()
    checker = InvariantChecker(**kwargs).attach(bus)
    return bus, checker


class TestSyntheticStreams:
    """Unit-level checks: hand-built event streams trip each invariant."""

    def test_out_of_order_retirement(self):
        bus, _ = _checker()
        bus.emit(EventKind.RETIRE, 10, seq=5)
        with pytest.raises(InvariantViolation, match="program order"):
            bus.emit(EventKind.RETIRE, 11, seq=3)

    def test_double_rename(self):
        bus, _ = _checker()
        bus.emit(EventKind.RENAME, 1, seq=1, uclass="INT")
        with pytest.raises(InvariantViolation, match="renamed twice"):
            bus.emit(EventKind.RENAME, 2, seq=1, uclass="INT")

    def test_retire_of_unrenamed_uop(self):
        bus, _ = _checker()
        bus.emit(EventKind.RENAME, 1, seq=0, uclass="INT")
        with pytest.raises(InvariantViolation, match="never renamed"):
            bus.emit(EventKind.RETIRE, 5, seq=1)

    def test_conservation_at_finish(self):
        bus, checker = _checker()
        bus.emit(EventKind.RENAME, 1, seq=0, uclass="INT")
        with pytest.raises(InvariantViolation, match="lost in flight"):
            checker.finish()

    def test_hidden_collision_without_violation_trap(self):
        bus, _ = _checker()
        bus.emit(EventKind.COLLISION, 4, seq=2, visible=False)
        with pytest.raises(InvariantViolation,
                           match="without an ordering-violation trap"):
            bus.emit(EventKind.RETIRE, 9, seq=2)

    def test_violation_without_replay(self):
        bus, _ = _checker()
        bus.emit(EventKind.COLLISION, 4, seq=2, visible=False)
        bus.emit(EventKind.VIOLATION, 5, seq=2)
        with pytest.raises(InvariantViolation, match="without re-issuing"):
            bus.emit(EventKind.RETIRE, 9, seq=2)

    def test_violation_then_replay_is_clean(self):
        bus, checker = _checker()
        bus.emit(EventKind.COLLISION, 4, seq=2, visible=False)
        bus.emit(EventKind.VIOLATION, 5, seq=2)
        bus.emit(EventKind.ISSUE, 6, seq=2)
        bus.emit(EventKind.RETIRE, 9, seq=2)
        assert checker.ok

    def test_forward_from_untracked_store(self):
        bus, _ = _checker()
        with pytest.raises(InvariantViolation, match="never tracked"):
            bus.emit(EventKind.FORWARD, 7, seq=9, store_seq=3)

    def test_std_linked_to_untracked_sta(self):
        bus, _ = _checker()
        with pytest.raises(InvariantViolation, match="never tracked"):
            bus.emit(EventKind.STORE_DATA, 3, seq=8, sta_seq=7)

    def test_double_std_linkage(self):
        bus, _ = _checker()
        bus.emit(EventKind.STORE_TRACKED, 1, seq=4)
        bus.emit(EventKind.STORE_DATA, 2, seq=5, sta_seq=4)
        with pytest.raises(InvariantViolation, match="two STD linkages"):
            bus.emit(EventKind.STORE_DATA, 3, seq=6, sta_seq=4)

    def test_perfect_scheme_must_not_collide(self):
        bus, _ = _checker(scheme=make_scheme("perfect"))
        with pytest.raises(InvariantViolation, match="no\\s+collisions"):
            bus.emit(EventKind.COLLISION, 4, seq=2, visible=True)

    def test_violation_window_is_bounded(self):
        bus, checker = _checker(window_size=4, strict=False)
        for seq in range(10):
            bus.emit(EventKind.RETIRE, seq, seq=seq)
        bus.emit(EventKind.RETIRE, 99, seq=0)  # out of order
        assert not checker.ok
        assert len(checker.violations[0].window) <= 4
        assert len(checker.event_window()) <= 4

    def test_post_mortem_renders_window_and_context(self):
        bus, checker = _checker(strict=False)
        bus.emit(EventKind.RETIRE, 10, seq=5)
        bus.emit(EventKind.RETIRE, 11, seq=3)
        text = checker.violations[0].post_mortem()
        assert "retire-order" in text
        assert "events:" in text

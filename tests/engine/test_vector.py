"""The vectorized machine backend: bit-identity, routing, fallback.

The contract under test is ``docs/engine.md``'s: for every supported
configuration, ``Machine.run(trace, policy=VECTORIZED)`` produces a
``SimResult`` whose ``to_dict()`` equals the reference backend's — and
every unsupported configuration silently falls back to the scalar
path, so the switch can never change results, only speed.
"""

import pytest

from repro.api import ExecutionPolicy
from repro.common.config import BASELINE_MACHINE
from repro.engine.machine import Machine
from repro.engine.mob import MemoryOrderBuffer
from repro.engine.ordering import (
    SCHEME_NAMES,
    TraditionalOrdering,
    make_scheme,
)
from repro.engine.results import SimResult
from repro.experiments.harness import get_trace
from repro.fastpath import HAS_NUMPY
from repro.fastpath.backend import use_backend
from tests.engine.helpers import MicroTrace

needs_numpy = pytest.mark.skipif(not HAS_NUMPY,
                                 reason="vectorized kernel needs numpy")

REFERENCE = ExecutionPolicy(backend="reference")
VECTORIZED = ExecutionPolicy(backend="vectorized")


def run_both(mk_machine, trace, max_cycles=None):
    """(reference, vectorized) results for the same machine recipe."""
    ref = mk_machine().run(trace, max_cycles=max_cycles,
                           policy=REFERENCE)
    vec = mk_machine().run(trace, max_cycles=max_cycles,
                           policy=VECTORIZED)
    return ref, vec


def outcome_both(mk_machine, trace, max_cycles):
    """Result dict or the RuntimeError string, per backend."""
    out = []
    for policy in (REFERENCE, VECTORIZED):
        try:
            out.append(mk_machine().run(trace, max_cycles=max_cycles,
                                        policy=policy).to_dict())
        except RuntimeError as exc:
            out.append(str(exc))
    return out


#: Observation flags (collect_occupancy, collect_stall_breakdown).
OBSERVED = {"occupancy": (True, False), "stalls": (False, True),
            "both": (True, True)}


def observed(machine, occupancy=True, stalls=True):
    machine.collect_occupancy = occupancy
    machine.collect_stall_breakdown = stalls
    return machine


def assert_observed_identical(mk_machine, trace, max_cycles=None):
    """The kernel (no degrade) reproduces the reference result or its
    RuntimeError text; returns the reference outcome."""
    outcomes = []
    for policy in (REFERENCE, VECTORIZED):
        machine = mk_machine()
        try:
            outcomes.append(machine.run(
                trace, max_cycles=max_cycles, policy=policy).to_dict())
        except RuntimeError as exc:
            outcomes.append(str(exc))
    assert machine.last_degrade_reason is None
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class L1Probe:
    """Perfect hit-miss probe over ``hierarchy``.  An object rather
    than a lambda, so the shadow oracle's deep copy of the machine
    probes the copied hierarchy instead of the original."""

    def __init__(self, hierarchy, line_bytes):
        self.hierarchy = hierarchy
        self.line_bytes = line_bytes

    def __call__(self, pc, line, now):
        return self.hierarchy.would_hit_l1((line or 0) * self.line_bytes,
                                           now)


def fig11_machine(kind):
    """Figure 11's machine: perfect disambiguation, 4 int / 2 mem units,
    the named hit-miss predictor (built like the Figure 11 harness)."""
    from repro.api import build_predictor, spec_for
    from repro.hitmiss.oracle import OracleHMP
    from repro.hitmiss.timing import TimingHMP
    from repro.memory.hierarchy import MemoryHierarchy

    config = BASELINE_MACHINE.with_units(4, 2)
    hierarchy = MemoryHierarchy(config.memory)
    local = spec_for("hmp.local", size=2048, history=8)
    if kind == "local":
        hmp = build_predictor(local)
    elif kind == "hybrid":
        hmp = build_predictor(spec_for("hmp.hybrid"))
    elif kind == "timing":
        hmp = TimingHMP(build_predictor(local), mshr=hierarchy.mshr,
                        serviced=hierarchy.serviced)
    else:
        hmp = OracleHMP(L1Probe(hierarchy, config.memory.l1d.line_bytes))
    return observed(Machine(config=config, scheme=make_scheme("perfect"),
                            hmp=hmp, hierarchy=hierarchy))


def violation_trace():
    """A microtrace that forces a hidden violation + squash replay:
    the STA's address hangs off a slow dependency chain while the
    colliding load's address is ready immediately."""
    t = MicroTrace()
    t.alu(dst=1)
    for _ in range(6):
        t.alu(dst=1, srcs=(1,))  # slow chain into the STA's address
    t.store(0x200, addr_src=1, data_src=15)
    t.load(dst=2, address=0x200, addr_src=15)
    t.alu(dst=3, srcs=(2,))
    return t.build("violation")


@needs_numpy
class TestBitIdentityMatrix:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("trace_name", ("gcc", "swim", "tpcc"))
    def test_scheme_profile_matrix(self, scheme, trace_name):
        trace = get_trace(trace_name, 3000)
        ref, vec = run_both(lambda: Machine(scheme=make_scheme(scheme)),
                            trace)
        assert ref.to_dict() == vec.to_dict()

    @pytest.mark.parametrize("scheme", ("opportunistic", "exclusive"))
    def test_forwarding_machine(self, scheme):
        import dataclasses
        cfg = BASELINE_MACHINE
        cfg = dataclasses.replace(cfg, latency=dataclasses.replace(
            cfg.latency, forward_latency=2))
        trace = get_trace("tpcc", 3000)
        ref, vec = run_both(
            lambda: Machine(config=cfg, scheme=make_scheme(scheme)),
            trace)
        assert ref.to_dict() == vec.to_dict()

    def test_violation_replay_microtrace(self):
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("opportunistic")),
            violation_trace())
        assert ref.collision_penalties > 0  # the trap actually fired
        assert ref.to_dict() == vec.to_dict()


@needs_numpy
class TestObservedRuns:
    """Occupancy and stall-breakdown collection run on the kernel and
    reproduce the reference loop's per-cycle samples exactly."""

    @pytest.mark.parametrize("flags", sorted(OBSERVED))
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("trace_name", ("gcc", "swim", "tpcc"))
    def test_scheme_profile_matrix(self, flags, scheme, trace_name):
        occupancy, stalls = OBSERVED[flags]
        ref = assert_observed_identical(
            lambda: observed(Machine(scheme=make_scheme(scheme)),
                             occupancy, stalls),
            get_trace(trace_name, 1500))
        assert bool(ref["window_occupancy"]) == occupancy
        assert bool(ref["stall_breakdown"]) == stalls

    @pytest.mark.parametrize("kind", ("local", "hybrid", "timing",
                                      "oracle"))
    def test_fig11_machine(self, kind):
        # Two memory units fill often, so port precedence over younger
        # non-candidate loads is exercised every few cycles.
        ref = assert_observed_identical(lambda: fig11_machine(kind),
                                        get_trace("gcc", 2000))
        assert ref["stall_breakdown"]["port"] > 0
        assert sum(ref["window_occupancy"].values()) == ref["cycles"]
        assert sum(ref["issue_width_used"].values()) == ref["cycles"]

    def test_violation_replay_microtrace(self):
        ref = assert_observed_identical(
            lambda: observed(Machine(scheme=make_scheme("opportunistic"))),
            violation_trace())
        assert ref["collision_penalties"] > 0
        assert ref["stall_breakdown"]["operands"] > 0

    @pytest.mark.parametrize("scheme", ("opportunistic", "exclusive"))
    def test_forwarding_machine(self, scheme):
        import dataclasses
        cfg = BASELINE_MACHINE
        cfg = dataclasses.replace(cfg, latency=dataclasses.replace(
            cfg.latency, forward_latency=2))
        ref = assert_observed_identical(
            lambda: observed(Machine(config=cfg,
                                     scheme=make_scheme(scheme))),
            get_trace("tpcc", 2000))
        assert ref["forwarded_loads"] > 0

    @pytest.mark.parametrize("max_cycles", (-1, 0, 1, 3, 10, 40, 200))
    def test_truncation_sweep(self, max_cycles):
        assert_observed_identical(
            lambda: observed(Machine(scheme=make_scheme("opportunistic"))),
            violation_trace(), max_cycles)

    def test_event_bus_and_timeline_still_refused(self):
        from repro.engine import vector
        from repro.obs.events import EventBus

        m = observed(Machine(scheme=make_scheme("traditional")))
        assert vector.unsupported_reason(m) is None
        m.obs = EventBus()
        assert "event bus" in vector.unsupported_reason(m)
        m = observed(Machine(scheme=make_scheme("traditional")))
        m.record_timeline = True
        assert "timeline" in vector.unsupported_reason(m)


@needs_numpy
class TestTruncationAndEdges:
    """Satellite: ``max_cycles`` and empty/single-uop traces must be
    explicit and identical across backends — including the
    ``RuntimeError`` text, including truncation mid-squash-replay."""

    def test_empty_trace_is_cycle_zero(self):
        trace = MicroTrace().build("empty")
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("traditional")), trace)
        assert ref.to_dict() == vec.to_dict()
        assert vec.cycles == 0 and vec.retired_uops == 0

    def test_empty_trace_ignores_negative_ceiling(self):
        trace = MicroTrace().build("empty")
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("traditional")), trace,
            max_cycles=-5)
        assert ref.to_dict() == vec.to_dict() and vec.cycles == 0

    def test_single_uop_trace(self):
        trace = MicroTrace().alu(dst=1).build("one")
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("traditional")), trace)
        assert ref.to_dict() == vec.to_dict()
        assert vec.retired_uops == 1

    @pytest.mark.parametrize("max_cycles", (-1, 0, 1, 3, 10, 40, 200))
    def test_truncation_outcomes_identical(self, max_cycles):
        # Sweep ceilings across the violation trace's whole lifetime:
        # some land mid-squash-replay, some before rename, some after
        # completion.  Result dicts and error strings must agree.
        ref, vec = outcome_both(
            lambda: Machine(scheme=make_scheme("opportunistic")),
            violation_trace(), max_cycles)
        assert ref == vec

    @pytest.mark.parametrize("max_cycles", (0, 17, 231, 1000, 100000))
    def test_truncation_on_real_trace(self, max_cycles):
        trace = get_trace("gcc", 600)
        ref, vec = outcome_both(
            lambda: Machine(scheme=make_scheme("traditional")),
            trace, max_cycles)
        assert ref == vec

    def test_error_message_shape(self):
        trace = get_trace("gcc", 600)
        with pytest.raises(RuntimeError,
                           match=r"simulation exceeded 3 cycles on "
                                 r"'gcc' \(\d+ uops stuck in flight\)"):
            Machine(scheme=make_scheme("traditional")).run(
                trace, max_cycles=3, policy=VECTORIZED)


class TestRoutingAndFallback:
    def test_explicit_reference_backend_never_vectorizes(self,
                                                         monkeypatch):
        from repro.engine import vector

        def boom(*a, **k):  # pragma: no cover - must not be called
            raise AssertionError("vectorized kernel invoked")

        monkeypatch.setattr(vector, "run_vectorized", boom)
        trace = MicroTrace().alu(dst=1).build("one")
        result = Machine(scheme=make_scheme("traditional")).run(
            trace, policy=REFERENCE)
        assert result.retired_uops == 1

    @needs_numpy
    def test_env_var_routes_to_vectorized(self, monkeypatch):
        from repro.engine import vector
        calls = []
        real = vector.run_vectorized

        def spy(machine, trace, max_cycles=None):
            calls.append(trace.name)
            return real(machine, trace, max_cycles=max_cycles)

        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        monkeypatch.setattr(vector, "run_vectorized", spy)
        trace = MicroTrace().alu(dst=1).build("one")
        Machine(scheme=make_scheme("traditional")).run(trace)
        assert calls == ["one"]

    @needs_numpy
    def test_use_backend_context_routes(self, monkeypatch):
        from repro.engine import vector
        calls = []
        real = vector.run_vectorized
        monkeypatch.setattr(
            vector, "run_vectorized",
            lambda m, t, max_cycles=None: (calls.append(t.name)
                                           or real(m, t,
                                                   max_cycles=max_cycles)))
        trace = MicroTrace().alu(dst=1).build("one")
        with use_backend("vectorized"):
            Machine(scheme=make_scheme("traditional")).run(trace)
        assert calls == ["one"]

    def test_unsupported_machine_falls_back(self):
        from repro.engine import vector
        m = Machine(scheme=make_scheme("traditional"))
        m.record_timeline = True
        assert vector.unsupported_reason(m) is not None
        trace = MicroTrace().alu(dst=1).build("one")
        # Still runs (scalar path) even when vectorized is requested,
        # and the degrade is recorded instead of silent.
        result = m.run(trace, policy=VECTORIZED)
        assert result.retired_uops == 1 and result.timeline is not None
        assert m.last_degrade_reason is not None

    def test_scheme_subclass_falls_back(self):
        from repro.engine import vector

        class Lying(TraditionalOrdering):
            pass

        m = Machine(scheme=Lying())
        assert "scheme" in vector.unsupported_reason(m)

    def test_custom_mob_falls_back(self):
        from repro.engine import vector

        class WeirdMOB(MemoryOrderBuffer):
            pass

        m = Machine(scheme=make_scheme("traditional"))
        m.mob_factory = WeirdMOB
        assert "MOB" in vector.unsupported_reason(m)

    @needs_numpy
    def test_unsupported_trace_falls_back(self, monkeypatch):
        # Duplicate seqs cannot be lane-encoded (index order must equal
        # seq order); the kernel refuses before touching machine state
        # and Machine.run silently takes the scalar path instead.  The
        # invariant oracle rejects such a malformed trace outright (its
        # rename discipline keys on seq), so compare the bare backends.
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        from repro.common.types import Uop, UopClass
        from repro.engine import vector
        from repro.trace.trace import Trace
        uops = [Uop(seq=0, pc=0x1000, uclass=UopClass.INT, dst=1),
                Uop(seq=0, pc=0x1004, uclass=UopClass.INT, dst=2)]
        trace = Trace(name="dup-seq", uops=uops)
        with pytest.raises(vector.VectorUnsupported,
                           match="non-increasing uop seqs"):
            vector.run_vectorized(
                Machine(scheme=make_scheme("traditional")), trace)
        ref, vec = run_both(
            lambda: Machine(scheme=make_scheme("traditional")), trace)
        assert ref.to_dict() == vec.to_dict()
        assert vec.retired_uops == 2


@needs_numpy
class TestCheckedRun:
    def test_invariants_env_shadow_checks(self, monkeypatch):
        from repro.engine import vector
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        calls = []
        real = vector.checked_vectorized_run
        monkeypatch.setattr(
            vector, "checked_vectorized_run",
            lambda m, t, max_cycles=None: (calls.append(t.name)
                                           or real(m, t,
                                                   max_cycles=max_cycles)))
        trace = get_trace("gcc", 400)
        result = Machine(scheme=make_scheme("traditional")).run(
            trace, policy=VECTORIZED)
        assert calls == ["gcc"]
        assert isinstance(result, SimResult)

    def test_lying_kernel_is_caught(self, monkeypatch):
        from repro.engine import vector

        def lying(machine, trace, max_cycles=None):
            result = machine._run_reference(trace, max_cycles)
            result.cycles += 1  # off-by-one nobody would notice
            return result

        monkeypatch.setattr(vector, "run_vectorized", lying)
        trace = get_trace("gcc", 400)
        with pytest.raises(vector.BackendMismatch, match="cycles"):
            vector.checked_vectorized_run(
                Machine(scheme=make_scheme("traditional")), trace)


@needs_numpy
class TestPolicyArmsShadowCheck:
    """The kernel's shadow oracle follows the run's ExecutionPolicy, not
    a raw read of ``REPRO_CHECK_INVARIANTS``."""

    def run_spied(self, monkeypatch, check_invariants):
        from repro.engine import vector
        calls = []
        real = vector.checked_vectorized_run
        monkeypatch.setattr(
            vector, "checked_vectorized_run",
            lambda m, t, max_cycles=None: (calls.append(t.name)
                                           or real(m, t,
                                                   max_cycles=max_cycles)))
        machine = Machine(scheme=make_scheme("traditional"))
        machine.run(get_trace("gcc", 400), policy=ExecutionPolicy(
            backend="vectorized", check_invariants=check_invariants))
        assert machine.last_degrade_reason is None
        return calls

    def test_policy_on_checks_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert self.run_spied(monkeypatch, "on") == ["gcc"]

    def test_policy_off_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert self.run_spied(monkeypatch, "off") == []

    def test_env_zero_is_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert self.run_spied(monkeypatch, "auto") == []

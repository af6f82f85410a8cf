"""The engine kernel against the scalar loop, over drawn machines.

Each draw is one machine recipe — a micro-trace or a short prefix of a
named trace, a ``LatencyConfig`` with every field drawn (zero
included), window / register-pool / width / unit sizes, a scheme the
kernel claims (``VECTOR_SCHEME_TYPES``), a hit-miss predictor, the
observation flags and an optional cycle ceiling — run once under each
policy.  The kernel must reproduce ``SimResult.to_dict()`` or the
truncation error text exactly, and a configuration it cannot run must
be refused by ``unsupported_reason``, never simulated differently.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, build_predictor, spec_for
from repro.common.config import (
    BASELINE_MACHINE,
    ExecUnitConfig,
    LatencyConfig,
)
from repro.engine.machine import Machine
from repro.engine.ordering import (
    SCHEME_NAMES,
    VECTOR_SCHEME_TYPES,
    make_scheme,
)
from repro.engine.vector import unsupported_reason
from repro.experiments.harness import get_trace
from repro.fastpath import HAS_NUMPY
from repro.hitmiss.oracle import OracleHMP
from repro.hitmiss.timing import TimingHMP
from tests.engine.test_vector import L1Probe
from tests.property.test_engine_properties import micro_traces

pytestmark = pytest.mark.skipif(not HAS_NUMPY,
                                reason="vectorized kernel needs numpy")

POLICIES = (ExecutionPolicy(backend="reference"),
            ExecutionPolicy(backend="vectorized"))

KERNEL_SCHEMES = tuple(name for name in SCHEME_NAMES
                       if type(make_scheme(name)) in VECTOR_SCHEME_TYPES)

HMP_KINDS = ("always-hit", "local", "hybrid", "timing", "oracle")

TRACE_NAMES = ("li", "cd", "gcc", "swim", "tpcc")


def _latency_field(field):
    if field.name == "forward_latency":
        return st.none() | st.integers(0, 3)
    # Zero and the stock value are drawn often: the kernel's edge cases
    # live at zero latencies on an otherwise stock machine.
    return st.sampled_from((0, field.default)) | st.integers(
        0, max(2, 2 * field.default))


latencies = st.builds(LatencyConfig, **{
    field.name: _latency_field(field)
    for field in dataclasses.fields(LatencyConfig)})


@st.composite
def machine_configs(draw, latency=latencies):
    if draw(st.booleans()):  # the stock machine's sizes
        return dataclasses.replace(BASELINE_MACHINE, latency=draw(latency))
    window = draw(st.integers(1, 48))
    units = ExecUnitConfig(n_int=draw(st.integers(1, 4)),
                           n_mem=draw(st.integers(1, 3)),
                           n_fp=draw(st.integers(1, 2)),
                           n_complex=draw(st.integers(1, 2)))
    return dataclasses.replace(
        BASELINE_MACHINE, window_size=window,
        register_pool=draw(st.integers(window, 128)),
        fetch_width=draw(st.integers(1, 8)),
        retire_width=draw(st.integers(1, 8)),
        units=units, latency=draw(latency))


def named_prefixes(lengths):
    return st.builds(get_trace, st.sampled_from(TRACE_NAMES),
                     st.sampled_from(lengths))


def build_machine(config, scheme, hmp_kind, occupancy, stalls):
    machine = Machine(config=config, scheme=make_scheme(scheme),
                      collect_occupancy=occupancy)
    machine.collect_stall_breakdown = stalls
    hierarchy = machine.hierarchy
    local = spec_for("hmp.local", size=64, history=4)
    if hmp_kind == "local":
        machine.hmp = build_predictor(local)
    elif hmp_kind == "hybrid":
        machine.hmp = build_predictor(spec_for("hmp.hybrid"))
    elif hmp_kind == "timing":
        machine.hmp = TimingHMP(build_predictor(local), mshr=hierarchy.mshr,
                                serviced=hierarchy.serviced)
    elif hmp_kind == "oracle":
        machine.hmp = OracleHMP(L1Probe(hierarchy,
                                        config.memory.l1d.line_bytes))
    return machine


def check_kernel_matches(trace, config, scheme, hmp_kind, flags,
                         max_cycles):
    outcomes, machines = [], []
    for policy in POLICIES:
        machine = build_machine(config, scheme, hmp_kind, *flags)
        try:
            outcomes.append(machine.run(trace, max_cycles=max_cycles,
                                        policy=policy).to_dict())
        except RuntimeError as exc:
            outcomes.append(f"RuntimeError: {exc}")
        machines.append(machine)
    # Every drawn machine is one the gate claims, so the kernel ran it.
    kernel = machines[1]
    assert unsupported_reason(kernel) is None
    assert kernel.last_degrade_reason is None
    assert outcomes[1] == outcomes[0]


TRACES = st.one_of(micro_traces(), named_prefixes((50, 150, 400)))
FLAGS = st.tuples(st.booleans(), st.booleans())
CEILINGS = st.none() | st.integers(0, 600)

#: A known bit-identity break, since fixed: at zero AGU and reschedule
#: latency, a load re-dispatched by a visible collision must not issue
#: a second time in the cycle that refused it.  Random draws rarely
#: reach it, so it is pinned as an example.
ZERO_AGU_RESCHED = dataclasses.replace(
    BASELINE_MACHINE, latency=dataclasses.replace(
        BASELINE_MACHINE.latency, agu_latency=0, reschedule_delay=0))


@given(trace=TRACES, config=machine_configs(),
       scheme=st.sampled_from(KERNEL_SCHEMES),
       hmp_kind=st.sampled_from(HMP_KINDS), flags=FLAGS,
       max_cycles=CEILINGS)
@example(trace=get_trace("li", 50), config=ZERO_AGU_RESCHED,
         scheme="postponing", hmp_kind="always-hit", flags=(False, False),
         max_cycles=None)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference(trace, config, scheme, hmp_kind, flags,
                                  max_cycles):
    check_kernel_matches(trace, config, scheme, hmp_kind, flags, max_cycles)


@pytest.mark.slow
@given(trace=st.one_of(micro_traces(),
                       named_prefixes((50, 150, 400, 1500))),
       config=machine_configs(), scheme=st.sampled_from(KERNEL_SCHEMES),
       hmp_kind=st.sampled_from(HMP_KINDS), flags=FLAGS,
       max_cycles=st.none() | st.integers(0, 3000))
@settings(max_examples=1000, deadline=None)
def test_kernel_matches_reference_wide(trace, config, scheme, hmp_kind,
                                       flags, max_cycles):
    check_kernel_matches(trace, config, scheme, hmp_kind, flags, max_cycles)

"""repro — reproduction of "Speculation Techniques for Improving Load
Related Instruction Scheduling" (Yoaz, Erez, Ronen & Jourdan, ISCA 1999).

The package implements the paper's three techniques and everything they
run on:

* :mod:`repro.cht` — Collision History Tables for speculative memory
  disambiguation (inclusive & exclusive collision predictors);
* :mod:`repro.hitmiss` — data-cache hit-miss predictors (local, hybrid
  with majority chooser, timing-enhanced);
* :mod:`repro.bank` — cache-bank predictors and the sliced-pipeline
  analysis;
* :mod:`repro.engine` — the trace-driven out-of-order core of section 3
  with the six memory ordering schemes;
* :mod:`repro.trace` — synthetic workloads standing in for the paper's
  proprietary trace groups;
* :mod:`repro.predictors` / :mod:`repro.memory` / :mod:`repro.common`
  — the branch-predictor, cache and utility substrates;
* :mod:`repro.experiments` — one harness per paper figure
  (``python -m repro.experiments --help``);
* :mod:`repro.api` — the unified :class:`~repro.api.PredictorSpec`
  construction registry for every predictor family;
* :mod:`repro.serve` — an async micro-batching prediction service over
  sharded sessions (``python -m repro.serve --help``).

Quickstart::

    from repro import build_trace, profile_for, Machine, make_scheme

    trace = build_trace(profile_for("gcc"), n_uops=20_000, seed=1)
    baseline = Machine(scheme=make_scheme("traditional")).run(trace)
    inclusive = Machine(scheme=make_scheme("inclusive")).run(trace)
    print(inclusive.speedup_over(baseline))
"""

from repro.common.config import (
    BASELINE_MACHINE,
    CacheConfig,
    ExecUnitConfig,
    LatencyConfig,
    MachineConfig,
    MemoryConfig,
)
from repro.common.types import HitMissClass, LoadCollisionClass, Uop, UopClass
from repro.trace import (
    Trace,
    TRACE_GROUPS,
    build_trace,
    profile_for,
    summarize,
)
from repro.engine import Machine, SimResult, make_scheme, SCHEME_NAMES
from repro.cht import (
    CombinedCHT,
    FullCHT,
    PeriodicClearing,
    TaggedOnlyCHT,
    TaglessCHT,
)
from repro.hitmiss import (
    AlwaysHitHMP,
    HybridHMP,
    LocalHMP,
    OracleHMP,
    TimingHMP,
)
from repro.bank import (
    AddressBankPredictor,
    make_predictor_a,
    make_predictor_b,
    make_predictor_c,
    metric,
)
__version__ = "1.0.0"

from repro.api import (  # noqa: E402 - needs __version__ for cache keys
    PredictorSpec,
    build_predictor,
    spec_for,
)

__all__ = [
    "PredictorSpec",
    "build_predictor",
    "spec_for",
    "BASELINE_MACHINE",
    "CacheConfig",
    "ExecUnitConfig",
    "LatencyConfig",
    "MachineConfig",
    "MemoryConfig",
    "HitMissClass",
    "LoadCollisionClass",
    "Uop",
    "UopClass",
    "Trace",
    "TRACE_GROUPS",
    "build_trace",
    "profile_for",
    "summarize",
    "Machine",
    "SimResult",
    "make_scheme",
    "SCHEME_NAMES",
    "CombinedCHT",
    "FullCHT",
    "PeriodicClearing",
    "TaggedOnlyCHT",
    "TaglessCHT",
    "AlwaysHitHMP",
    "HybridHMP",
    "LocalHMP",
    "OracleHMP",
    "TimingHMP",
    "AddressBankPredictor",
    "make_predictor_a",
    "make_predictor_b",
    "make_predictor_c",
    "metric",
    "__version__",
]

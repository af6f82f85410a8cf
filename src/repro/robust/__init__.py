"""repro.robust — fault injection, invariant checking, self-healing.

The speculation machinery this repo reproduces (CHT memory-dependence
prediction, hit/miss prediction, bank prediction) is only trustworthy if
the simulated core's recovery semantics are actually correct: a silently
broken MOB or a mis-squashed replay produces plausible-looking speedup
curves that are wrong.  This package is the correctness spine:

* :mod:`repro.robust.invariants` — an :class:`InvariantChecker` that
  subscribes to the :mod:`repro.obs` event bus and asserts the machine's
  recovery contract (program-order retirement, no forwarding from
  younger stores, collision → squash/replay pairing, MOB lifecycle
  balance, conservation of retired uops, per-scheme guarantees).
  Violations raise a structured :class:`InvariantViolation` carrying the
  recent event window for post-mortem.  Opt in per run with
  :func:`checked_run`, or globally with ``REPRO_CHECK_INVARIANTS=1``.

* :mod:`repro.robust.faults` — the deterministic, seeded
  :class:`FaultPlan` behind ``--chaos`` (worker kills and result-cache
  corruption) and the serve fleet's :class:`FleetFaultPlan`.  The
  deliberately broken engine components that prove the oracle catches
  real breakage, and the predictor wrappers that flip speculation
  under it, live with the tests that use them
  (``tests/robust/test_invariants.py``, ``tests/robust/test_faults.py``).

The self-healing execution side (pool rebuilds after worker deaths,
then serial fallback) lives in :mod:`repro.parallel.runner` and
consumes :class:`FaultPlan` via
:class:`~repro.parallel.runner.ExecutionPlan`.  See
``docs/robustness.md`` for each guarantee and the test that proves it.
"""

from repro.robust.invariants import (
    InvariantChecker,
    InvariantViolation,
    checked_run,
)
from repro.robust.faults import (
    FaultPlan,
    KILL_EXIT_CODE,
    corrupt_cache,
    parse_chaos_spec,
)

__all__ = [
    "FaultPlan",
    "InvariantChecker",
    "InvariantViolation",
    "KILL_EXIT_CODE",
    "checked_run",
    "corrupt_cache",
    "parse_chaos_spec",
]

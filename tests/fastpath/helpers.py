"""The differential matrix's one entry point: replay a stream armed.

A batch kernel must be *bit-identical* to the scalar reference — same
prediction stream, same confidences (exact float equality), same
table/counter/history state afterwards.  The check is the package's
shadow oracle (:func:`repro.api.shadow_check`), which the replay
harnesses run whenever the policy arms it; so every test of the matrix
is "run it armed" on the vectorized policy, and a divergence raises
:class:`repro.api.ShadowMismatch`.  The four ``test_*_diff`` modules are
the matrix's family axis; each parametrizes predictor kind × seed ×
:data:`RUN_LENGTHS` (× warm/cold where the figure has a warm pass).
"""

from repro.api import ExecutionPolicy, shadow_check
from repro.experiments import bank_metric, cht_accuracy, hitmiss_stats
from repro.fastpath import cht as fp_cht
from repro.fastpath import predictors as fp
from repro.fastpath.tracegen import (
    synthesize_bank_grid,
    synthesize_collision_grid,
    synthesize_outcome_grid,
)

#: Kernels on, shadow oracle on.
ARMED = ExecutionPolicy(backend="vectorized", check_invariants="on")
REFERENCE = ExecutionPolicy(backend="reference")

#: Run lengths every kernel suite replays: tiny runs, a serve window and
#: its neighbours, and three that straddle ``replay``'s 16,384-event
#: chunk boundary.
RUN_LENGTHS = (1, 7, 8, 255, 256, 16383, 16384, 16385)


def grid(family, seed, n):
    """A seeded ``n``-event stream in ``family``'s replay dialect."""
    if family == "binary":
        return synthesize_outcome_grid(seed, n)
    if family == "cht":
        return [cht_accuracy.LoadEvent(pc=pc, conflicting=cf, collided=co,
                                       distance=d)
                for pc, cf, co, d in zip(*synthesize_collision_grid(seed, n))]
    if family == "hitmiss":
        pcs, outcomes = synthesize_outcome_grid(seed, n)
        # The grid's outcome bit is the "hit".
        return [hitmiss_stats.HitMissEvent(pc=pc, line=pc >> 6, now=i, hit=o)
                for i, (pc, o) in enumerate(zip(pcs, outcomes))]
    return synthesize_bank_grid(seed, n)


def scalar_binary_replay(predictor, pcs, outcomes):
    """The reference predict→update loop over a (pc, outcome) stream."""
    outs, confs = [], []
    for pc, outcome in zip(pcs, outcomes):
        p = predictor.predict(pc)
        outs.append(p.outcome)
        confs.append(p.confidence)
        predictor.update(pc, outcome)
    return outs, confs


def armed(family, predictor, stream, warm=False, batch_size=None):
    """Replay ``stream`` through ``predictor``'s fast path, armed.

    The figure families go through their harness (Figure 9's
    ``cht_accuracy.replay``, Figure 10's ``hitmiss_stats.replay``,
    Figure 12's ``bank_metric.evaluate``), which shadow-checks the
    prediction lane and the predictor state.  Binary predictors, and
    any explicit kernel ``batch_size``, call the oracle directly on the
    kernel.  Returns what the harness returns.
    """
    chunk = {} if batch_size is None else {"batch_size": batch_size}
    if family == "binary":
        pcs, outcomes = stream
        return shadow_check(
            predictor, lambda p: fp.replay(p, pcs, outcomes, **chunk),
            lambda p: scalar_binary_replay(p, pcs, outcomes),
            "binary replay")
    if family == "cht" and chunk:
        pcs, _, collided, distances = fp_cht.event_arrays(stream)
        return shadow_check(
            predictor,
            lambda c: fp_cht.tagless_replay(c, pcs, collided, distances,
                                            **chunk),
            lambda c: cht_accuracy.scalar_lane(stream, c),
            "tagless CHT kernel")
    if family == "cht":
        return cht_accuracy.replay(stream, predictor, warm=warm, policy=ARMED)
    if family == "hitmiss":
        return hitmiss_stats.replay(stream, predictor, warm=warm,
                                    policy=ARMED)
    return bank_metric.evaluate(predictor, stream, policy=ARMED)

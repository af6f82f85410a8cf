"""Differential equivalence: hit-miss predictor batch replay vs. scalar."""

import pytest

from repro.experiments.hitmiss_stats import HitMissEvent, replay
from repro.fastpath import hitmiss as fp_hitmiss
from repro.fastpath.tracegen import synthesize_outcome_grid
from repro.hitmiss.hybrid import HybridHMP
from repro.hitmiss.local import LocalHMP
from repro.hitmiss.oracle import AlwaysHitHMP

from tests.fastpath.helpers import (
    REFERENCE,
    RUN_LENGTHS,
    VECTORIZED,
    predictor_state,
)

FACTORIES = {
    "local": lambda: LocalHMP(n_entries=256, history_bits=6),
    "local-paper": lambda: LocalHMP(n_entries=2048, history_bits=8),
    "hybrid": HybridHMP,
    "hybrid-paper": lambda: HybridHMP(gshare_history=11, gskew_history=20),
}


def _events(seed, n=3000):
    pcs, outcomes = synthesize_outcome_grid(seed, n)
    # Treat the grid's outcome bit as "hit".
    return [HitMissEvent(pc=pc, line=pc >> 6, now=i, hit=o)
            for i, (pc, o) in enumerate(zip(pcs, outcomes))]


def _state(hmp):
    inner = hmp._miss_predictor if isinstance(hmp, LocalHMP) else hmp._chooser
    return predictor_state(inner)


#: (warm, seed, label, n): every factory over the seed grid, cold and
#: warm, then the shared run lengths for the paper's local and hybrid.
REPLAYS = ([pytest.param(warm, seed, label, 3000,
                         id=f"{warm}-{seed}-{label}")
            for warm in (False, True) for seed in (51, 52)
            for label in sorted(FACTORIES)]
           + [pytest.param(False, 54, label, n, id=f"False-54-{label}-n{n}")
              for label in ("local-paper", "hybrid") for n in RUN_LENGTHS])


@pytest.mark.parametrize("warm,seed,label,n", REPLAYS)
def test_replay_stats_and_state_identical(warm, seed, label, n):
    events = _events(seed, n)
    reference = FACTORIES[label]()
    vectorized = FACTORIES[label]()
    ref_stats = replay(events, reference, warm=warm, policy=REFERENCE)
    vec_stats = replay(events, vectorized, warm=warm, policy=VECTORIZED)
    assert vec_stats.counts == ref_stats.counts
    assert _state(vectorized) == _state(reference)


def test_prediction_stream_identical():
    events = _events(53, 2000)
    reference = FACTORIES["hybrid"]()
    vectorized = FACTORIES["hybrid"]()
    expected = []
    for event in events:
        expected.append(reference.predict_hit(event.pc, event.line,
                                              event.now))
        reference.update(event.pc, event.hit, event.line, event.now)
    pcs, hits = fp_hitmiss.event_arrays(events)
    got = fp_hitmiss.replay_hits(vectorized, pcs, hits)
    assert got.tolist() == expected


def test_unsupported_predictor_falls_back():
    # AlwaysHitHMP has no kernel: the harness silently takes the
    # scalar loop, so the result is still correct.
    assert not fp_hitmiss.supports(AlwaysHitHMP())
    events = _events(54, 300)
    stats = replay(events, AlwaysHitHMP(), policy=VECTORIZED)
    assert stats.total == len(events)

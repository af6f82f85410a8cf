"""Differential equivalence: batch predictor replay vs. the scalar loop.

Every kernel must reproduce the scalar predict→update loop *exactly*:
prediction stream, confidence stream (exact float equality), and the
complete post-replay table/history state, across seeded workload grids
and across chunk boundaries.
"""

import numpy as np
import pytest

from repro.fastpath import predictors as fp
from repro.fastpath.tracegen import synthesize_outcome_grid
from repro.predictors.base import AlwaysPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.chooser import MajorityChooser, WeightedChooser
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor

from tests.fastpath.helpers import (
    RUN_LENGTHS,
    predictor_state,
    scalar_binary_replay,
)

FACTORIES = {
    "bimodal": lambda: BimodalPredictor(n_entries=256),
    "bimodal-1bit": lambda: BimodalPredictor(n_entries=64, counter_bits=1),
    "bimodal-3bit": lambda: BimodalPredictor(n_entries=128, counter_bits=3),
    "local": lambda: LocalPredictor(n_entries=128, history_bits=6),
    "local-wide": lambda: LocalPredictor(n_entries=64, history_bits=10,
                                         pattern_entries=256),
    "gshare": lambda: GSharePredictor(history_bits=7),
    "gshare-paper": lambda: GSharePredictor(history_bits=11),
    "gskew": lambda: GSkewPredictor(history_bits=9, bank_entries=128),
    "gskew-paper": lambda: GSkewPredictor(history_bits=17,
                                          bank_entries=1024),
    "majority": lambda: MajorityChooser([
        LocalPredictor(n_entries=64, history_bits=5),
        GSharePredictor(history_bits=6),
        GSkewPredictor(history_bits=8, bank_entries=64),
    ]),
    "weighted": lambda: WeightedChooser([
        LocalPredictor(n_entries=64, history_bits=5),
        GSharePredictor(history_bits=6),
        BimodalPredictor(n_entries=128),
    ], weights=[1.0, 2.0, 1.0], confidence_scaled=True),
}

GRID_SEEDS = (11, 12, 13)

#: (label, seed, n): every factory over the seed grid, then the shared
#: run lengths for the local and chooser kernels.
REPLAYS = ([pytest.param(label, seed, 3000, id=f"{seed}-{label}")
            for seed in GRID_SEEDS for label in sorted(FACTORIES)]
           + [pytest.param(label, 14, n, id=f"14-{label}-n{n}")
              for label in ("local-wide", "majority", "weighted")
              for n in RUN_LENGTHS])


@pytest.mark.parametrize("label,seed,n", REPLAYS)
def test_replay_bit_identical(label, seed, n):
    pcs, outcomes = synthesize_outcome_grid(seed, n)
    reference = FACTORIES[label]()
    vectorized = FACTORIES[label]()
    exp_out, exp_conf = scalar_binary_replay(reference, pcs, outcomes)
    got_out, got_conf = fp.replay(vectorized, pcs, outcomes)
    assert got_out.tolist() == exp_out
    assert got_conf.tolist() == exp_conf  # exact float equality
    assert predictor_state(vectorized) == predictor_state(reference)


@pytest.mark.parametrize("batch_size", [1, 7, 256, 100000])
def test_chunking_is_invisible(batch_size):
    # Cross-batch state (histories, counters) must flow through the
    # predictor object so any chunk size gives the same answer.
    pcs, outcomes = synthesize_outcome_grid(21, 1500)
    reference = FACTORIES["gshare"]()
    vectorized = FACTORIES["gshare"]()
    exp_out, exp_conf = scalar_binary_replay(reference, pcs, outcomes)
    got_out, got_conf = fp.replay(vectorized, pcs, outcomes,
                                  batch_size=batch_size)
    assert got_out.tolist() == exp_out
    assert got_conf.tolist() == exp_conf
    assert predictor_state(vectorized) == predictor_state(reference)


def test_replay_resumes_scalar_use_exactly():
    # Batch then scalar must equal scalar all the way.
    pcs, outcomes = synthesize_outcome_grid(31, 1200)
    split = 700
    reference = FACTORIES["local"]()
    mixed = FACTORIES["local"]()
    scalar_binary_replay(reference, pcs[:split], outcomes[:split])
    fp.replay(mixed, pcs[:split], outcomes[:split])
    tail_ref = scalar_binary_replay(reference, pcs[split:], outcomes[split:])
    tail_mix = scalar_binary_replay(mixed, pcs[split:], outcomes[split:])
    assert tail_mix == tail_ref
    assert predictor_state(mixed) == predictor_state(reference)


def test_empty_stream_is_identity():
    predictor = FACTORIES["gskew"]()
    before = predictor_state(predictor)
    out, conf = fp.replay(predictor, np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=bool))
    assert len(out) == 0 and len(conf) == 0
    assert predictor_state(predictor) == before


class TestSupports:
    def test_leaf_and_chooser_trees(self):
        assert fp.supports(BimodalPredictor(n_entries=16))
        assert fp.supports(FACTORIES["majority"]())
        assert fp.supports(FACTORIES["weighted"]())

    def test_unsupported_component_rejected(self):
        assert not fp.supports(AlwaysPredictor(True))
        chooser = MajorityChooser([AlwaysPredictor(True),
                                   AlwaysPredictor(False),
                                   BimodalPredictor(n_entries=16)])
        assert not fp.supports(chooser)
        with pytest.raises(TypeError):
            fp.replay(AlwaysPredictor(True), [1], [True])

    def test_subclasses_fall_back_to_reference(self):
        # A subclass may override semantics; only exact types match.
        class Tweaked(BimodalPredictor):
            pass

        assert not fp.supports(Tweaked(n_entries=16))

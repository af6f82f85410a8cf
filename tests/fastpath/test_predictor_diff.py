"""The differential matrix, binary family: batch replay vs. the scalar
loop, armed (``tests/fastpath/helpers.py``) — prediction stream,
confidence stream (exact float equality) and the complete post-replay
table/history state, across seeded grids and chunk boundaries."""

import pytest

from repro.api import shadow_check
from repro.fastpath import predictors as fp
from repro.predictors.base import AlwaysPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.chooser import MajorityChooser, WeightedChooser
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor

from tests.fastpath.helpers import (
    RUN_LENGTHS,
    armed,
    grid,
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
    armed("binary", FACTORIES[label](), grid("binary", seed, n))


@pytest.mark.parametrize("batch_size", [1, 7, 256, 100000])
def test_chunking_is_invisible(batch_size):
    # Cross-batch state (histories, counters) must flow through the
    # predictor object so any chunk size gives the same answer.
    armed("binary", FACTORIES["gshare"](), grid("binary", 21, 1500),
          batch_size=batch_size)


def test_replay_resumes_scalar_use_exactly():
    # Batch then scalar must equal scalar all the way.
    pcs, outcomes = grid("binary", 31, 1200)
    head, tail = (pcs[:700], outcomes[:700]), (pcs[700:], outcomes[700:])
    shadow_check(
        FACTORIES["local"](),
        lambda p: (fp.replay(p, *head), scalar_binary_replay(p, *tail)),
        lambda p: (scalar_binary_replay(p, *head),
                   scalar_binary_replay(p, *tail)),
        "kernel then scalar")


def test_empty_stream_is_identity():
    # The oracle compares the post-state with an untouched copy.
    out, conf = armed("binary", FACTORIES["gskew"](), ([], []))
    assert len(out) == 0 and len(conf) == 0


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

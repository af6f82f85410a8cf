"""The differential matrix, hit-miss family: Figure 10's replay run
armed (``tests/fastpath/helpers.py``)."""

import pytest

from repro.fastpath import hitmiss as fp_hitmiss
from repro.hitmiss.hybrid import HybridHMP
from repro.hitmiss.local import LocalHMP
from repro.hitmiss.oracle import AlwaysHitHMP

from tests.fastpath.helpers import RUN_LENGTHS, armed, grid

FACTORIES = {
    "local": lambda: LocalHMP(n_entries=256, history_bits=6),
    "local-paper": lambda: LocalHMP(n_entries=2048, history_bits=8),
    "hybrid": HybridHMP,
    "hybrid-paper": lambda: HybridHMP(gshare_history=11, gskew_history=20),
}


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
    stats = armed("hitmiss", FACTORIES[label](), grid("hitmiss", seed, n),
                  warm=warm)
    assert stats.total == n


def test_prediction_stream_identical():
    armed("hitmiss", FACTORIES["hybrid"](), grid("hitmiss", 53, 2000))


def test_unsupported_predictor_falls_back():
    # AlwaysHitHMP has no kernel: the harness takes the scalar loop.
    assert not fp_hitmiss.supports(AlwaysHitHMP())
    stats = armed("hitmiss", AlwaysHitHMP(), grid("hitmiss", 54, 300))
    assert stats.total == 300

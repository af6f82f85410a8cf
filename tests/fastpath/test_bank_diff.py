"""The differential matrix, bank family: Figure 12's replay run armed
(``tests/fastpath/helpers.py``), abstentions included."""

import pytest

from repro.bank.address_based import AddressBankPredictor
from repro.bank.history import (
    HistoryBankPredictor,
    make_predictor_a,
    make_predictor_b,
    make_predictor_c,
)
from repro.fastpath import bank as fp_bank
from repro.predictors.bimodal import BimodalPredictor

from tests.fastpath.helpers import RUN_LENGTHS, armed, grid

MAKERS = {
    "A": make_predictor_a,
    "B": make_predictor_b,
    "C": make_predictor_c,
}


#: (seed, label, n): every maker over the seed grid, then the shared run
#: lengths for predictor C.
REPLAYS = ([pytest.param(seed, label, 3000, id=f"{seed}-{label}")
            for seed in (61, 62) for label in sorted(MAKERS)]
           + [pytest.param(64, "C", n, id=f"64-C-n{n}")
              for n in RUN_LENGTHS])


@pytest.mark.parametrize("seed,label,n", REPLAYS)
def test_stats_and_state_identical(seed, label, n):
    assert armed("bank", MAKERS[label](), grid("bank", seed, n)).loads == n


def test_prediction_stream_identical_including_abstains():
    stats = armed("bank", make_predictor_a(), grid("bank", 63, 2500))
    # The abstain channel must actually be exercised by the grid.
    assert 0 < stats.predicted < stats.loads


def test_abstain_threshold_respected():
    stream = grid("bank", 64, 1500)
    never = HistoryBankPredictor([BimodalPredictor(n_entries=64)],
                                 abstain_threshold=2.0)
    assert armed("bank", never, stream).predicted == 0
    always = HistoryBankPredictor([BimodalPredictor(n_entries=64)],
                                  abstain_threshold=0.0)
    assert armed("bank", always, stream).predicted == len(stream)


def test_address_predictor_keeps_scalar_path():
    # AddressBankPredictor trains on addresses, which the batch kernel
    # does not model; it must not be claimed by supports().
    predictor = AddressBankPredictor()
    assert not fp_bank.supports(predictor)
    assert armed("bank", predictor, grid("bank", 65, 400)).loads == 400

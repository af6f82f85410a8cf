"""Differential equivalence: bank predictor batch replay vs. scalar."""

import pytest

from repro.bank.address_based import AddressBankPredictor
from repro.bank.history import (
    HistoryBankPredictor,
    make_predictor_a,
    make_predictor_b,
    make_predictor_c,
)
from repro.experiments.bank_metric import LINE_BYTES, N_BANKS, evaluate
from repro.fastpath import bank as fp_bank
from repro.fastpath.tracegen import synthesize_bank_grid
from repro.predictors.bimodal import BimodalPredictor

from tests.fastpath.helpers import (
    REFERENCE,
    RUN_LENGTHS,
    VECTORIZED,
    predictor_state,
)

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
    stream = synthesize_bank_grid(seed, n)
    reference = MAKERS[label]()
    vectorized = MAKERS[label]()
    ref_stats = evaluate(reference, stream, policy=REFERENCE)
    vec_stats = evaluate(vectorized, stream, policy=VECTORIZED)
    assert (vec_stats.loads, vec_stats.predicted, vec_stats.correct) \
        == (ref_stats.loads, ref_stats.predicted, ref_stats.correct)
    assert predictor_state(vectorized._chooser) \
        == predictor_state(reference._chooser)


def test_prediction_stream_identical_including_abstains():
    stream = synthesize_bank_grid(63, 2500)
    reference = make_predictor_a()
    vectorized = make_predictor_a()
    expected = []
    for pc, address in stream:
        bank = (address // LINE_BYTES) % N_BANKS
        p = reference.predict(pc)
        expected.append(p.bank if p.predicted else -1)
        reference.update(pc, bank)
    pcs, banks = fp_bank.stream_arrays(stream, LINE_BYTES, N_BANKS)
    got = fp_bank.replay_banks(vectorized, pcs, banks)
    assert got.tolist() == expected
    # The abstain channel must actually be exercised by the grid.
    assert -1 in expected and (0 in expected or 1 in expected)


def test_abstain_threshold_respected():
    stream = synthesize_bank_grid(64, 1500)
    never = HistoryBankPredictor([BimodalPredictor(n_entries=64)],
                                 abstain_threshold=2.0)
    stats = evaluate(never, stream, policy=VECTORIZED)
    assert stats.loads == len(stream) and stats.predicted == 0
    always = HistoryBankPredictor([BimodalPredictor(n_entries=64)],
                                  abstain_threshold=0.0)
    reference = HistoryBankPredictor([BimodalPredictor(n_entries=64)],
                                     abstain_threshold=0.0)
    assert evaluate(always, stream, policy=VECTORIZED).as_dict() \
        == evaluate(reference, stream, policy=REFERENCE).as_dict()


def test_address_predictor_keeps_scalar_path():
    # AddressBankPredictor trains on addresses, which the batch kernel
    # does not model; it must not be claimed by supports().
    predictor = AddressBankPredictor()
    assert not fp_bank.supports(predictor)
    stream = synthesize_bank_grid(65, 400)
    stats = evaluate(predictor, stream, policy=VECTORIZED)
    assert stats.loads == len(stream)

"""Bank predictors built from binary predictors over bank history.

"With two banks, almost all binary predictors may be adapted to deliver
bank predictions" (section 2.3).  The binary outcome is "the access goes
to bank 1"; history registers record the bank stream instead of branch
outcomes.  The three configurations of Figure 12:

* Predictor A = local + gshare + gskew         (majority vote)
* Predictor B = local + gshare + bimodal       (majority vote)
* Predictor C = local + 2·gshare + gskew       (gshare weight 2)

with the component geometries the paper gives: local — 512 untagged
entries, 8-bit history (0.5 KB); gshare — 11-bit history (0.5 KB);
gskew — 17-bit history, three 1024-entry tables (0.75 KB).

Each configuration also carries an abstain threshold on the combined
confidence, which is how the paper trades prediction rate for accuracy
(predictors A/B predict ~50 % of loads at ~97-98 %; C predicts ~70 %).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bank.base import ABSTAIN, BankPredictor, BankPrediction
from repro.predictors.base import BinaryPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.chooser import WeightedChooser
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor


class HistoryBankPredictor(BankPredictor):
    """Two-bank predictor: weighted vote of binary components.

    Parameters
    ----------
    components / weights:
        The binary predictors and their vote weights.
    abstain_threshold:
        Minimum absolute normalised vote sum required to predict; below
        it the predictor abstains (load duplicated to both pipes).
    """

    n_banks = 2

    def __init__(self, components: Sequence[BinaryPredictor],
                 weights: Optional[Sequence[float]] = None,
                 abstain_threshold: float = 0.0) -> None:
        self._chooser = WeightedChooser(components, weights,
                                        threshold=0.0,
                                        confidence_scaled=True)
        self.abstain_threshold = abstain_threshold

    def predict(self, pc: int) -> BankPrediction:
        p = self._chooser.predict(pc)
        if not p.valid or p.confidence < self.abstain_threshold:
            return ABSTAIN
        return BankPrediction(bank=1 if p.outcome else 0,
                              confidence=p.confidence)

    def update(self, pc: int, bank: int,
               address: Optional[int] = None) -> None:
        if bank not in (0, 1):
            raise ValueError("history bank predictors support two banks")
        self._chooser.update(pc, bank == 1)

    def reset(self) -> None:
        self._chooser.reset()

    @property
    def storage_bits(self) -> int:
        return self._chooser.storage_bits


def _local() -> LocalPredictor:
    return LocalPredictor(n_entries=512, history_bits=8)


def _gshare() -> GSharePredictor:
    return GSharePredictor(history_bits=11)


def _gskew() -> GSkewPredictor:
    return GSkewPredictor(history_bits=17, bank_entries=1024)


def make_predictor_a(abstain_threshold: float = 0.9) -> HistoryBankPredictor:
    """Predictor A = local + gshare + gskew (equal weights)."""
    return HistoryBankPredictor(
        [_local(), _gshare(), _gskew()],
        abstain_threshold=abstain_threshold)


def make_predictor_b(abstain_threshold: float = 0.6) -> HistoryBankPredictor:
    """Predictor B = local + gshare + bimodal (equal weights)."""
    return HistoryBankPredictor(
        [_local(), _gshare(), BimodalPredictor(n_entries=1024)],
        abstain_threshold=abstain_threshold)


def make_predictor_c(abstain_threshold: float = 0.65) -> HistoryBankPredictor:
    """Predictor C = local + 2*gshare + gskew (gshare double weight).

    The heavier gshare weight plus a lower abstain threshold gives C the
    higher prediction rate (~70 %) Figure 12 reports, at accuracy
    comparable to A.
    """
    return HistoryBankPredictor(
        [_local(), _gshare(), _gskew()],
        weights=[1.0, 2.0, 1.0],
        abstain_threshold=abstain_threshold)

"""Binary predictor substrate.

The paper adapts "well-known branch predictors" (section 2.2/2.3) to
predict load hit-miss behaviour and cache banks.  This package implements
that family once — bimodal, two-level local, gshare, gskew, flat counter
tables, saturating counters, sticky bits — plus the majority/weighted
choosers of section 2.3 and the stride/last-address predictor standing
in for [Beke99].

All predictors speak the same protocol (:class:`BinaryPredictor`):
``predict(pc) -> Prediction`` then ``update(pc, outcome)``.
"""

from repro.predictors.base import BinaryPredictor, Prediction, AlwaysPredictor
from repro.predictors.counters import CounterTable, SaturatingCounter, StickyBit
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.local import LocalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.chooser import (
    MajorityChooser,
    WeightedChooser,
    ConfidenceFilter,
)
from repro.predictors.address import StrideAddressPredictor
from repro.predictors.correlated import CorrelatedAddressPredictor
from repro.predictors.confidence import ConfidenceEstimator, ConfidentPredictor

__all__ = [
    "BinaryPredictor",
    "Prediction",
    "AlwaysPredictor",
    "CounterTable",
    "SaturatingCounter",
    "StickyBit",
    "BimodalPredictor",
    "LocalPredictor",
    "GSharePredictor",
    "GSkewPredictor",
    "MajorityChooser",
    "WeightedChooser",
    "ConfidenceFilter",
    "StrideAddressPredictor",
    "CorrelatedAddressPredictor",
    "ConfidenceEstimator",
    "ConfidentPredictor",
]

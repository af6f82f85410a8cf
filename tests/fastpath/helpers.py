"""Shared pieces of the differential-equivalence harness.

The contract every test here enforces: a batch kernel must be
*bit-identical* to the scalar reference — same prediction stream, same
confidences (exact float equality), same table/counter/history state
afterwards.  Anything weaker would let the vectorized backend silently
drift the figures.
"""

from repro.api import ExecutionPolicy
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.chooser import MajorityChooser, WeightedChooser
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor


#: The two sides of every harness-level comparison.
REFERENCE = ExecutionPolicy(backend="reference")
VECTORIZED = ExecutionPolicy(backend="vectorized")

#: Run lengths every kernel suite replays: tiny runs, a serve window and
#: its neighbours, and three that straddle ``replay``'s 16,384-event
#: chunk boundary.
RUN_LENGTHS = (1, 7, 8, 255, 256, 16383, 16384, 16385)


def predictor_state(predictor):
    """Full mutable state of a predictor tree, as plain data."""
    if isinstance(predictor, BimodalPredictor):
        return list(predictor._table.cells)
    if isinstance(predictor, LocalPredictor):
        return (list(predictor._histories), list(predictor._pattern.cells))
    if isinstance(predictor, GSharePredictor):
        return (predictor._history, list(predictor._table.cells))
    if isinstance(predictor, GSkewPredictor):
        return (predictor._history,
                [list(bank.cells) for bank in predictor._banks])
    if isinstance(predictor, (MajorityChooser, WeightedChooser)):
        return [predictor_state(c) for c in predictor.components]
    raise TypeError(f"no state extractor for {type(predictor).__name__}")


def scalar_binary_replay(predictor, pcs, outcomes):
    """The reference predict→update loop over a (pc, outcome) stream."""
    outs, confs = [], []
    for pc, outcome in zip(pcs, outcomes):
        p = predictor.predict(pc)
        outs.append(p.outcome)
        confs.append(p.confidence)
        predictor.update(pc, outcome)
    return outs, confs

"""The common binary-predictor protocol.

A binary predictor answers a yes/no question about a PC — "will this
branch be taken", "will this load miss", "will this load hit bank 1" —
optionally with a confidence level.  Section 2.3 of the paper combines
several such predictors through confidence-aware choosers, so confidence
is part of the protocol rather than an afterthought.
"""

from __future__ import annotations

import abc
from typing import NamedTuple


class Prediction(NamedTuple):
    """Outcome of a predictor query.

    A named tuple, cheap enough to build on every lookup, whose truth
    value is ``outcome`` rather than "non-empty":
    ``if predictor.predict(pc):`` reads the vote.

    Attributes
    ----------
    outcome:
        The predicted binary outcome.
    confidence:
        A value in ``[0, 1]``; 1.0 means the predictor is at a saturated
        state, 0.0 means it has no information (e.g. a cold entry).
    valid:
        False when the predictor declines to predict (e.g. a tag miss in
        a tagged table).  Consumers treat invalid predictions according
        to their own default policy.
    """

    outcome: bool
    confidence: float = 1.0
    valid: bool = True

    def __bool__(self) -> bool:
        return self.outcome


#: A prediction representing "no information".
NO_PREDICTION = Prediction(outcome=False, confidence=0.0, valid=False)


class BinaryPredictor(abc.ABC):
    """Interface shared by every table-based binary predictor."""

    #: Optional :class:`repro.obs.events.EventBus`; when attached,
    #: :meth:`observed_update` reports every training step.
    obs = None

    @abc.abstractmethod
    def predict(self, pc: int) -> Prediction:
        """Predict the outcome for the instruction at ``pc``."""

    def predict_outcome(self, pc: int) -> bool:
        """``predict(pc).outcome``, for callers that need only the vote
        (table predictors answer it without building a Prediction)."""
        return self.predict(pc).outcome

    @abc.abstractmethod
    def update(self, pc: int, outcome: bool) -> None:
        """Train with the resolved outcome for ``pc``.

        ``update`` must be called with the same ``pc`` stream order as
        ``predict``; predictors with global history rely on it.
        """

    def observed_update(self, pc: int, outcome: bool,
                        now: int = -1) -> None:
        """:meth:`update`, plus a ``predictor-update`` event when an
        event bus is attached (the front end's hook point)."""
        self.update(pc, outcome)
        if self.obs is not None:
            self.obs.emit("predictor-update", now, pc=pc, family="branch",
                          predictor=type(self).__name__, outcome=outcome)

    def reset(self) -> None:
        """Return to the power-on state (used for cyclic clearing)."""
        raise NotImplementedError

    @property
    def storage_bits(self) -> int:
        """Approximate hardware budget of the predictor, in bits."""
        raise NotImplementedError


class AlwaysPredictor(BinaryPredictor):
    """Constant predictor — e.g. today's "always predict a cache hit"."""

    def __init__(self, outcome: bool) -> None:
        self._outcome = outcome

    def predict(self, pc: int) -> Prediction:
        return Prediction(outcome=self._outcome, confidence=1.0)

    def update(self, pc: int, outcome: bool) -> None:
        pass  # nothing to learn

    def reset(self) -> None:
        pass

    @property
    def storage_bits(self) -> int:
        return 0

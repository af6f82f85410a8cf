"""Saboteur predictors: wrappers that make a real predictor misbehave.

Test fixtures, importable by module path so that a fleet worker process
can unpickle a session that holds one.  The flippers invert a seeded
fraction of predictions (the engine must stay correct under wrong
speculation); :class:`RaisingHMP` throws from inside a run (a serving
shard must answer that in band and keep serving).
"""

from repro.bank.base import BankPrediction, BankPredictor
from repro.cht.base import CollisionPrediction, CollisionPredictor
from repro.hitmiss.base import HitMissPredictor
from repro.robust.faults import _roll


class _Flipper:
    """Seeded per-call flip decision shared by the wrappers below."""

    def __init__(self, inner, flip_fraction: float, seed: int,
                 salt: str) -> None:
        self.inner = inner
        self.flip_fraction = flip_fraction
        self.seed = seed
        self.salt = salt
        self.flips = 0
        self._calls = 0

    def _flip(self, pc: int) -> bool:
        self._calls += 1
        if _roll(self.seed, self.salt, pc, self._calls) < self.flip_fraction:
            self.flips += 1
            return True
        return False

    @property
    def storage_bits(self) -> int:
        return self.inner.storage_bits


class FaultyHMP(_Flipper, HitMissPredictor):
    """A hit-miss predictor whose predictions are flipped."""

    def __init__(self, inner, flip_fraction, seed=0):
        super().__init__(inner, flip_fraction, seed, "hmp")

    def predict_hit(self, pc, line=None, now=0):
        prediction = self.inner.predict_hit(pc, line, now)
        return (not prediction) if self._flip(pc) else prediction

    def update(self, pc, hit, line=None, now=0):
        self.inner.update(pc, hit, line, now)


class FaultyCHT(_Flipper, CollisionPredictor):
    """A CHT whose collision predictions are flipped."""

    def __init__(self, inner, flip_fraction, seed=0):
        super().__init__(inner, flip_fraction, seed, "cht")

    def lookup(self, pc):
        prediction = self.inner.lookup(pc)
        if self._flip(pc):
            return CollisionPrediction(colliding=not prediction.colliding,
                                       distance=None)
        return prediction

    def train(self, pc, collided, distance=None):
        self.inner.train(pc, collided, distance)


class FaultyBankPredictor(_Flipper, BankPredictor):
    """A bank predictor deranging predictions to the next bank."""

    def __init__(self, inner, flip_fraction, seed=0):
        super().__init__(inner, flip_fraction, seed, "bank")
        self.n_banks = inner.n_banks

    def predict(self, pc):
        prediction = self.inner.predict(pc)
        if prediction.predicted and self._flip(pc):
            return BankPrediction(bank=(prediction.bank + 1)
                                  % max(2, self.n_banks),
                                  confidence=prediction.confidence)
        return prediction

    def update(self, pc, bank, address=None):
        self.inner.update(pc, bank, address)


class RaisingHMP(FaultyHMP):
    """A hit-miss predictor whose ``fail_at``-th update raises, once,
    with a cause attached; every other call passes through."""

    def __init__(self, inner, fail_at: int) -> None:
        super().__init__(inner, flip_fraction=0.0)
        self.fail_at = fail_at
        self.updates = 0

    def update(self, pc, hit, line=None, now=0):
        self.updates += 1
        if self.updates == self.fail_at:
            raise RuntimeError("injected predictor fault") from ValueError(
                f"table write refused at update {self.updates}")
        super().update(pc, hit, line, now)

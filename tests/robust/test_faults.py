"""Deterministic fault injection: plans, chaos specs, cache corruption,
and flipped speculation under the invariant oracle.

The predictor wrappers (:mod:`tests.robust.saboteurs`) and the
hierarchy wrapper below are test fixtures: the engine has no fault
hooks, so a faulted machine is built here by wrapping its components
before the run.
"""

import dataclasses

import pytest

from repro.bank.address_based import AddressBankPredictor
from repro.bank.base import BankPrediction, BankPredictor
from repro.cht.full import FullCHT
from repro.common.config import BASELINE_MACHINE, CacheConfig, MemoryConfig
from repro.engine.machine import Machine
from repro.engine.ordering import make_scheme
from repro.experiments.harness import get_trace
from repro.hitmiss.oracle import AlwaysHitHMP
from repro.memory.hierarchy import MemoryHierarchy
from repro.parallel import ExecutionPlan, ResultCache, SimJob, run_jobs
from repro.robust import (
    FaultPlan,
    checked_run,
    corrupt_cache,
    parse_chaos_spec,
)
from tests.parallel import _grid_jobs
from tests.robust.saboteurs import (
    FaultyBankPredictor,
    FaultyCHT,
    FaultyHMP,
)


def _jobs(n=16):
    return [SimJob.make(_grid_jobs.square, key=("sq", x), x=x)
            for x in range(n)]


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=7, kill_fraction=0.5)
        first = [plan.kills(j, 1) for j in _jobs()]
        second = [plan.kills(j, 1) for j in _jobs()]
        assert first == second
        assert any(first)
        assert not all(first)

    def test_different_seeds_fault_different_jobs(self):
        a = FaultPlan(seed=1, kill_fraction=0.5)
        b = FaultPlan(seed=2, kill_fraction=0.5)
        assert [a.kills(j, 1) for j in _jobs(64)] \
            != [b.kills(j, 1) for j in _jobs(64)]

    def test_kill_attempts_spares_the_retry(self):
        plan = FaultPlan(seed=0, kill_fraction=1.0, kill_attempts=1)
        job = _jobs(1)[0]
        assert plan.kills(job, 1)
        assert not plan.kills(job, 2)

    def test_target_kinds_confine_process_faults(self):
        plan = FaultPlan(seed=0, kill_fraction=1.0,
                         target_kinds=("some-other-kind",))
        job = _jobs(1)[0]
        assert not plan.targets(job)
        assert not plan.kills(job, 1)

    def test_pre_job_fault_never_fires_outside_a_worker(self):
        # kill_fraction=1.0 would os._exit() in a pool worker;
        # surviving this serial run *is* the assertion that the serial
        # path is a safe harbour.
        plan = ExecutionPlan(workers=0,
                             fault_plan=FaultPlan(kill_fraction=1.0))
        assert run_jobs(_jobs(2), plan=plan) == [0, 1]

    def test_as_dict(self):
        out = FaultPlan(seed=3, target_kinds=("a",)).as_dict()
        assert out["seed"] == 3
        assert out["target_kinds"] == ["a"]
        assert sorted(out) == ["corrupt_cache_fraction", "kill_attempts",
                               "kill_fraction", "seed", "target_kinds"]


class TestParseChaosSpec:
    def test_defaults_per_fault(self):
        plan = parse_chaos_spec("worker-kill,cache-corrupt", seed=9)
        assert plan.seed == 9
        assert plan.kill_fraction == 0.3
        assert plan.corrupt_cache_fraction == 0.5

    def test_explicit_values_and_kinds(self):
        plan = parse_chaos_spec(
            "worker-kill=0.5, cache-corrupt=0.25, "
            "kind=classification, kind=ordering-speedups")
        assert plan.kill_fraction == 0.5
        assert plan.corrupt_cache_fraction == 0.25
        assert plan.target_kinds == ("classification",
                                     "ordering-speedups")

    def test_unknown_fault_is_rejected_with_roster(self):
        with pytest.raises(ValueError, match="choose from"):
            parse_chaos_spec("worker-kil")

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            parse_chaos_spec("worker-kill=1.5")

    def test_non_numeric_fraction(self):
        with pytest.raises(ValueError, match="numeric"):
            parse_chaos_spec("worker-kill=lots")

    def test_kind_requires_a_value(self):
        with pytest.raises(ValueError, match="needs a job kind"):
            parse_chaos_spec("kind=")


class TestCorruptCache:
    def _populate(self, tmp_path, n=8):
        cache = ResultCache(str(tmp_path))
        keys = []
        for i in range(n):
            key, material = f"{i:02x}{'0' * 62}", f"material-{i}"
            cache.store(key, material, {"value": i})
            keys.append((key, material))
        return cache, keys

    def test_corrupts_deterministically(self, tmp_path):
        self._populate(tmp_path)
        first = corrupt_cache(str(tmp_path), fraction=0.5, seed=4)
        second = corrupt_cache(str(tmp_path), fraction=0.5, seed=4)
        assert first == second
        assert 0 < len(first) < 8

    def test_full_fraction_corrupts_everything(self, tmp_path):
        self._populate(tmp_path)
        assert len(corrupt_cache(str(tmp_path), fraction=1.0)) == 8

    def test_missing_dir_is_a_noop(self, tmp_path):
        assert corrupt_cache(str(tmp_path / "nope")) == []

    def test_cache_degrades_corrupted_entries_to_misses(self, tmp_path):
        cache, keys = self._populate(tmp_path)
        corrupt_cache(str(tmp_path), fraction=1.0)
        for key, material in keys:
            with pytest.warns(RuntimeWarning, match="corrupted"):
                hit, payload = cache.load(key, material)
            assert not hit and payload is None
        # Re-store over the garbage and the entry is healthy again.
        cache.store(*keys[0], payload={"value": 0})
        hit, payload = cache.load(*keys[0])
        assert hit and payload == {"value": 0}


# ---------------------------------------------------------------------------
# Speculation faults: flipped predictions (tests.robust.saboteurs), slow loads
# ---------------------------------------------------------------------------


class LatencyFaultHierarchy:
    """A memory hierarchy whose every load takes ``extra`` more cycles."""

    def __init__(self, inner, extra: int) -> None:
        self._inner = inner
        self.extra = extra
        self.injected = 0

    def load(self, address, now=0):
        outcome = self._inner.load(address, now)
        self.injected += 1
        return outcome._replace(latency=outcome.latency + self.extra)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def obs(self):
        return self._inner.obs

    @obs.setter
    def obs(self, bus) -> None:
        self._inner.obs = bus


def _faulted(machine, seed=5, flip=0.2, extra_latency=3):
    """Wrap ``machine``'s predictors and hierarchy in place."""
    machine.hmp = FaultyHMP(machine.hmp, flip, seed)
    if getattr(machine.scheme, "cht", None) is not None:
        machine.scheme.cht = FaultyCHT(machine.scheme.cht, flip, seed)
    if machine.bank_predictor is not None:
        machine.bank_predictor = FaultyBankPredictor(
            machine.bank_predictor, flip, seed)
    machine.hierarchy = LatencyFaultHierarchy(machine.hierarchy,
                                              extra_latency)
    return machine


class _FixedBank(BankPredictor):
    n_banks = 4

    def predict(self, pc):
        return BankPrediction(bank=1)

    def update(self, pc, bank, address=None):
        pass


class TestPredictorFaultWrappers:
    def test_hmp_flips_every_prediction_at_fraction_one(self):
        faulty = FaultyHMP(AlwaysHitHMP(), flip_fraction=1.0)
        assert faulty.predict_hit(0x40) is False  # AlwaysHit flipped
        assert faulty.flips == 1
        faulty.update(0x40, hit=True)  # delegation must not raise

    def test_hmp_never_flips_at_fraction_zero(self):
        faulty = FaultyHMP(AlwaysHitHMP(), flip_fraction=0.0)
        assert all(faulty.predict_hit(pc) for pc in range(0, 400, 4))
        assert faulty.flips == 0

    def test_cht_flip_inverts_collision_bit(self):
        clean = FullCHT(n_entries=64, ways=2)
        faulty = FaultyCHT(FullCHT(n_entries=64, ways=2),
                           flip_fraction=1.0)
        assert faulty.lookup(0x80).colliding \
            is not clean.lookup(0x80).colliding
        assert faulty.flips == 1
        faulty.train(0x80, collided=True)
        assert faulty.storage_bits == clean.storage_bits

    def test_bank_derangement_stays_in_range(self):
        faulty = FaultyBankPredictor(_FixedBank(), flip_fraction=1.0)
        prediction = faulty.predict(0x10)
        assert prediction.predicted
        assert prediction.bank != 1
        assert 0 <= prediction.bank < 4
        assert faulty.flips == 1

    def test_latency_fault_adds_cycles(self):
        hierarchy = MemoryHierarchy(MemoryConfig())
        baseline = hierarchy.load(0x1000, now=0).latency
        faulty = LatencyFaultHierarchy(MemoryHierarchy(MemoryConfig()),
                                       extra=11)
        outcome = faulty.load(0x1000, now=0)
        assert outcome.latency == baseline + 11
        assert faulty.injected == 1
        assert faulty.config is faulty._inner.config  # delegation


def _banked_machine():
    memory = dataclasses.replace(
        BASELINE_MACHINE.memory,
        l1d=CacheConfig(size_bytes=16 * 1024, n_banks=2))
    config = dataclasses.replace(BASELINE_MACHINE, memory=memory)
    return Machine(config=config, scheme=make_scheme("inclusive"),
                   bank_policy="predicted",
                   bank_predictor=AddressBankPredictor())


class TestFaultedRunsStayCorrect:
    """Flipped speculation costs cycles, never correctness: the faulted
    machine retires the same uop stream with zero invariant
    violations."""

    def test_flipped_predictions_cannot_break_invariants(self):
        trace = get_trace("gcc", 2000)
        clean = Machine(scheme=make_scheme("inclusive")).run(trace)
        machine = _faulted(Machine(scheme=make_scheme("inclusive")))
        result, checker = checked_run(machine, trace)
        assert checker.ok
        assert result.retired_uops == clean.retired_uops == len(trace.uops)
        assert machine.scheme.cht.flips > 0
        assert machine.hmp.flips > 0
        assert machine.hierarchy.injected > 0

    def test_deranged_bank_predictions_cannot_break_invariants(self):
        trace = get_trace("gcc", 2000)
        clean = _banked_machine().run(trace)
        machine = _faulted(_banked_machine())
        result, checker = checked_run(machine, trace)
        assert checker.ok
        assert result.retired_uops == clean.retired_uops == len(trace.uops)
        assert machine.bank_predictor.flips > 0

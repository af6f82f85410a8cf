"""The shadow oracle catches a lying fast path, on every path.

Six fast paths answer for a scalar reference: the engine kernel
(``Machine.run``), a serve kernel window, a hot-trace hit, and the
Figure 9, 10 and 12 replays.  Each calls
:func:`repro.api.shadow_check` when its ``ExecutionPolicy`` arms the
oracle.  Here each path runs honestly armed (the oracle must pass
it), then lies once — one flipped prediction, or separately one extra
training event in the state it leaves — and the oracle must raise
:class:`repro.api.ShadowMismatch`.  An oracle that cannot fail
verifies nothing.  The arming rules are checked on every path too:
policy ``on`` arms without the environment variable, ``off`` disarms
despite it, and ``auto`` follows ``REPRO_CHECK_INVARIANTS`` (``0`` is
off).
"""

import asyncio
import pickle

import pytest

from repro.api import ExecutionPolicy, ShadowMismatch, canonical_state, spec_for
from repro.bank.history import make_predictor_c
from repro.cht.tagless import TaglessCHT
from repro.common.types import HitMissClass
from repro.engine import vector
from repro.engine.machine import Machine
from repro.engine.ordering import make_scheme
from repro.experiments import bank_metric, cht_accuracy, hitmiss_stats
from repro.experiments.harness import get_trace
from repro.fastpath import bank as fp_bank
from repro.fastpath import batchapi
from repro.fastpath import cht as fp_cht
from repro.fastpath import hitmiss as fp_hitmiss
from repro.fastpath.hottrace import MIN_TRACE_LEN, HotTraceEngine
from repro.hitmiss.hybrid import HybridHMP
from repro.hitmiss.local import LocalHMP
from repro.serve import PredictRequest, PredictionService, ServeConfig
from repro.serve.batch import VIA_HOTTRACE, execute_step_arrays_ex
from repro.serve.session import Session

from tests.fastpath.helpers import ARMED, grid

#: Kinds of lie: one flipped prediction, or one extra training event.
LIES = ("prediction", "state")


def flip(lane):
    """Flip one entry of a kernel's result lane."""
    lane[5] = lane[5] == 0
    return lane


def lie(monkeypatch, module, name, kind, poke, subject=0, corrupt=flip):
    """Make ``module.name`` (a kernel whose argument ``subject`` is the
    predictor or machine) lie once per call; returns its call log."""
    real = getattr(module, name)
    calls = []

    def lying(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(name)
        if kind == "prediction":
            return corrupt(out)
        poke(args[subject])
        return out

    monkeypatch.setattr(module, name, lying)
    return calls


def flip_hit_prediction(result):
    """One load predicted hit that the kernel now reports as a miss."""
    result.hitmiss.counts[HitMissClass.AH_PH] -= 1
    result.hitmiss.counts[HitMissClass.AH_PM] += 1
    return result


def engine(policy, kind, monkeypatch):
    calls = lie(monkeypatch, vector, "run_vectorized", kind,
                lambda m: m.hmp.update(0x9999, False),
                corrupt=flip_hit_prediction) if kind else None
    machine = Machine(scheme=make_scheme("inclusive"),
                      hmp=LocalHMP(n_entries=256, history_bits=4))
    machine.run(get_trace("gcc", 400), policy=policy)
    assert machine.last_degrade_reason is None
    return calls


def serve_window(policy, kind, monkeypatch):
    """One 16-step window through a single-shard service, whose shard
    reads the policy once per batch."""
    calls = lie(monkeypatch, batchapi, "replay_steps", kind,
                lambda p: p.update(0x9999, False), subject=1) if kind else None

    async def main():
        config = ServeConfig(n_shards=1, min_kernel_run=4, policy=policy)
        async with PredictionService(config) as service:
            await service.open_session("s", spec_for("hmp.local", size=64,
                                                     history=2))
            return await asyncio.gather(*[service.submit(PredictRequest(
                "s", op="step", pc=0x40 + 4 * (i % 3), outcome=i % 2,
                seq=i)) for i in range(16)])

    errors = [r.error for r in asyncio.run(main()) if not r.ok]
    if errors:  # the shard resolves a divergence in-band
        raise ShadowMismatch(errors[0])
    return calls


def hottrace_hit(policy, kind, monkeypatch):
    """Converge a session onto captured, state-moving windows (1s then
    0s, alternating), poison every capture, and replay one more."""
    engine_, session = HotTraceEngine(), Session("s", spec_for(
        "binary.gshare", history=4))
    check = policy.invariants_active()

    def step(outcome):
        n = MIN_TRACE_LEN
        return execute_step_arrays_ex(session, [0x40] * n, [outcome] * n,
                                      [-1] * n, "vectorized", 8, engine_,
                                      check)[1]

    for _ in range(20):
        step(1), step(0)
        if engine_.counters.hits >= 2:
            break
    if kind is None:
        return None
    wrong = pickle.dumps(Session("x", session.spec).predictor)
    for trace in session.hottrace.traces.values():
        if kind == "prediction":
            trace.results = flip(list(trace.results))
        else:
            trace.post_state = wrong
    before = canonical_state(session.predictor)
    try:
        via = step(1)
    except ShadowMismatch:
        # Raised before the commit: the session is untouched.
        assert engine_.counters.abort_mismatch == 1
        assert canonical_state(session.predictor) == before
        raise
    assert via == VIA_HOTTRACE
    return [via]


def fig9(policy, kind, monkeypatch):
    calls = lie(monkeypatch, fp_cht, "tagless_replay", kind,
                lambda c: c.train(0x9999, True)) if kind else None
    cht_accuracy.replay(grid("cht", 41, 1000), TaglessCHT(n_entries=512),
                        policy=policy)
    return calls


def fig10(policy, kind, monkeypatch):
    calls = lie(monkeypatch, fp_hitmiss, "replay_hits", kind,
                lambda p: p.update(0x9999, False)) if kind else None
    hitmiss_stats.replay(grid("hitmiss", 51, 1000), HybridHMP(),
                         policy=policy)
    return calls


def fig12(policy, kind, monkeypatch):
    calls = lie(monkeypatch, fp_bank, "replay_banks", kind,
                lambda p: p.update(0x9999, 1)) if kind else None
    bank_metric.evaluate(make_predictor_c(), grid("bank", 61, 1000),
                         policy=policy)
    return calls


#: Each path: ``run(policy, lie kind or None, monkeypatch)`` drives it
#: once and returns the lie's call log (None when honest).
PATHS = {"engine": engine, "serve-window": serve_window,
         "hottrace-hit": hottrace_hit, "fig9": fig9, "fig10": fig10,
         "fig12": fig12}

#: What the oracle's message names for each kind of lie.
CAUGHT = {"prediction": "diverged from the scalar reference at",
          "state": "left state diverging"}


@pytest.mark.parametrize("kind", LIES)
@pytest.mark.parametrize("path", sorted(PATHS))
def test_lying_fast_path_is_caught(path, kind, monkeypatch):
    PATHS[path](ARMED, None, monkeypatch)  # the honest path passes
    with pytest.raises(ShadowMismatch, match=CAUGHT[kind]):
        PATHS[path](ARMED, kind, monkeypatch)


ARMING = [pytest.param("on", None, True, id="on-without-env"),
          pytest.param("off", "1", False, id="off-despite-env"),
          pytest.param("auto", "0", False, id="auto-env-zero"),
          pytest.param("auto", "1", True, id="auto-env-one")]


@pytest.mark.parametrize("mode,env,arms", ARMING)
@pytest.mark.parametrize("path", sorted(PATHS))
def test_arming_rules(path, mode, env, arms, monkeypatch):
    if env is None:
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    else:
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", env)
    policy = ExecutionPolicy(backend="vectorized", check_invariants=mode)
    if arms:
        with pytest.raises(ShadowMismatch):
            PATHS[path](policy, "prediction", monkeypatch)
    else:
        assert PATHS[path](policy, "prediction", monkeypatch)  # lie ran

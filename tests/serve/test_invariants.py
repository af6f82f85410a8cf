"""The serving invariant oracle: kernel divergence must be caught.

When the shard's ``ExecutionPolicy`` arms the oracle, every
kernel-executed run is shadow-replayed scalar on a copy of the
pre-batch predictor; both the results and the post-run predictor state
must match bit-for-bit.  These tests prove the oracle *fails* when the
kernel misbehaves — an oracle that cannot fail verifies nothing — and
that it follows the policy, not the environment behind its back.
"""

import asyncio

import pytest

from repro.api import ExecutionPolicy, spec_for
from repro.serve import PredictRequest, PredictionService, ServeConfig
from repro.serve.batch import (
    VIA_KERNEL,
    ServeInvariantViolation,
    execute_steps_ex,
)
from repro.serve.session import Session

numpy = pytest.importorskip("numpy")


def _requests(n=32):
    return [PredictRequest("s", op="step", pc=0x40 + 4 * (i % 3),
                           outcome=i % 2, seq=i) for i in range(n)]


def _lying_kernel(monkeypatch):
    """Patch the step kernel to flip prediction 5; returns its call
    log so a test can prove the kernel (not the scalar path) ran."""
    from repro.fastpath import batchapi
    real = batchapi.replay_steps
    calls = []

    def lying_kernel(family, predictor, pcs, outcomes, extras):
        calls.append(len(pcs))
        out = numpy.array(real(family, predictor, pcs, outcomes, extras))
        out[5] ^= 1  # flip one prediction
        return out

    monkeypatch.setattr(batchapi, "replay_steps", lying_kernel)
    return calls


def _serve_window(policy):
    """One 16-step window through a single-shard vectorized service."""
    async def main():
        config = ServeConfig(n_shards=1, min_kernel_run=4, policy=policy)
        async with PredictionService(config) as service:
            await service.open_session("s", spec_for("hmp.local",
                                                     size=64, history=2))
            return await asyncio.gather(*[
                service.submit(r) for r in _requests(16)])
    return asyncio.run(main())


def test_policy_on_arms_oracle_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    calls = _lying_kernel(monkeypatch)
    responses = _serve_window(ExecutionPolicy(backend="vectorized",
                                              check_invariants="on"))
    assert calls
    assert any(not r.ok and "ServeInvariantViolation" in r.error
               for r in responses)


def test_policy_off_disarms_oracle_despite_env(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    calls = _lying_kernel(monkeypatch)
    responses = _serve_window(ExecutionPolicy(backend="vectorized",
                                              check_invariants="off"))
    assert calls
    assert all(r.ok for r in responses)


def test_policy_auto_with_env_zero_is_off(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
    calls = _lying_kernel(monkeypatch)
    responses = _serve_window(ExecutionPolicy(backend="vectorized"))
    assert calls
    assert all(r.ok for r in responses)


def test_clean_kernel_passes_under_invariants():
    session = Session("s", spec_for("hmp.local", size=64, history=2),
                      backend="vectorized")
    results, via = execute_steps_ex(session, _requests(), "vectorized",
                                    min_kernel_run=4, check=True)
    assert via == VIA_KERNEL
    assert len(results) == 32


def test_corrupted_results_raise(monkeypatch):
    _lying_kernel(monkeypatch)
    session = Session("s", spec_for("hmp.local", size=64, history=2),
                      backend="vectorized")
    with pytest.raises(ServeInvariantViolation, match="index 5"):
        execute_steps_ex(session, _requests(), "vectorized",
                         min_kernel_run=4, check=True)


def test_corrupted_state_raises(monkeypatch):
    from repro.fastpath import batchapi
    real = batchapi.replay_steps

    def state_scrambling_kernel(family, predictor, pcs, outcomes, extras):
        out = real(family, predictor, pcs, outcomes, extras)
        predictor.update(0x9999, False)  # extra, unreplayed training
        return out

    monkeypatch.setattr(batchapi, "replay_steps", state_scrambling_kernel)
    session = Session("s", spec_for("hmp.local", size=64, history=2),
                      backend="vectorized")
    with pytest.raises(ServeInvariantViolation, match="state"):
        execute_steps_ex(session, _requests(), "vectorized",
                         min_kernel_run=4, check=True)


def test_divergence_surfaces_in_band_not_fatally(monkeypatch):
    """Through the full service, a violation resolves the affected
    requests with an internal error and the shard survives."""
    from repro.fastpath import batchapi

    def broken_kernel(family, predictor, pcs, outcomes, extras):
        raise ServeInvariantViolation("synthetic divergence")

    monkeypatch.setattr(batchapi, "replay_steps", broken_kernel)

    async def main():
        config = ServeConfig(n_shards=1, min_kernel_run=4,
                             policy=ExecutionPolicy(
                                 backend="vectorized",
                                 check_invariants="on"))
        async with PredictionService(config) as service:
            await service.open_session("s", spec_for("hmp.local",
                                                     size=64))
            responses = await asyncio.gather(*[
                service.submit(r) for r in _requests(16)])
            assert all(not r.ok for r in responses)
            assert all("ServeInvariantViolation" in r.error
                       for r in responses)
            # The shard is still alive and serving.
            ping = await service.request(PredictRequest(
                "s", op="predict", pc=0x40))
            assert ping.ok
    asyncio.run(main())

"""The serving side of the shadow oracle.

When the shard's ``ExecutionPolicy`` arms the oracle, every
kernel-executed run goes through :func:`repro.api.shadow_check`.  A
clean kernel passes it, and a divergence surfaces in-band as failed
responses while the shard keeps serving.  That the oracle catches each
lying fast path, and follows the policy rather than the environment,
is ``tests/fastpath/test_shadow.py``'s.
"""

import asyncio

import pytest

from repro.api import ExecutionPolicy, spec_for
from repro.fastpath.hottrace import HotTraceEngine
from repro.serve import PredictRequest, PredictionService, ServeConfig
from repro.serve.batch import VIA_KERNEL, execute_steps_ex
from repro.serve.session import Session

numpy = pytest.importorskip("numpy")


def _requests(n=32):
    return [PredictRequest("s", op="step", pc=0x40 + 4 * (i % 3),
                           outcome=i % 2, seq=i) for i in range(n)]


def test_clean_kernel_passes_under_invariants():
    session = Session("s", spec_for("hmp.local", size=64, history=2))
    results, via, _ = execute_steps_ex(
        session, _requests(), "vectorized", min_kernel_run=4,
        memo=HotTraceEngine(), check=True)
    assert via == VIA_KERNEL
    assert len(results) == 32


def test_divergence_surfaces_in_band_not_fatally(monkeypatch):
    """Through the full service, a kernel that flips one prediction
    resolves the affected requests with an internal error naming the
    oracle, and the shard survives."""
    from repro.fastpath import batchapi
    real = batchapi.replay_steps

    def lying_kernel(family, predictor, pcs, outcomes, extras):
        out = real(family, predictor, pcs, outcomes, extras)
        out[5] ^= 1
        return out

    monkeypatch.setattr(batchapi, "replay_steps", lying_kernel)

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
            assert all("ShadowMismatch" in r.error for r in responses)
            # The shard is still alive and serving.
            ping = await service.request(PredictRequest(
                "s", op="predict", pc=0x40))
            assert ping.ok
    asyncio.run(main())

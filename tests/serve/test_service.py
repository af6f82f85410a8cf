"""PredictionService: sessions, sharding, batching, drain, controls."""

import asyncio
import pickle

import pytest

from repro.api import ExecutionPolicy, spec_for
from repro.serve import (
    ERR_CLOSED,
    ERR_RETRY,
    ERR_UNKNOWN_SESSION,
    PredictRequest,
    PredictionService,
    ServeConfig,
    stable_shard_hash,
)


def run(coro):
    return asyncio.run(coro)


def test_stable_shard_hash_is_process_independent():
    # Pinned values: the routing must not depend on hash() salting,
    # or snapshots would restore onto the wrong shard.
    assert stable_shard_hash("alice") == stable_shard_hash("alice")
    assert stable_shard_hash("alice") != stable_shard_hash("bob")
    assert stable_shard_hash("") == 0xE3B0C44298FC1C14


def test_session_pinned_to_one_shard():
    async def main():
        config = ServeConfig(n_shards=4, max_batch=8, max_delay_us=100)
        async with PredictionService(config) as service:
            await service.open_session("s", spec_for("hmp.local"))
            home = service.shard_of("s")
            responses = await asyncio.gather(*[
                service.submit(PredictRequest("s", op="step", pc=0x40,
                                              outcome=1, seq=i))
                for i in range(32)])
            assert all(r.ok for r in responses)
            assert home.served == 32
            for shard in service.shards:
                if shard is not home:
                    assert shard.served == 0
    run(main())


def test_step_predict_update_semantics():
    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            await service.open_session("s", spec_for("hmp.local",
                                                     size=64, history=2))
            # Saturate towards miss, then a pure predict sees it.
            for i in range(8):
                r = await service.request(PredictRequest(
                    "s", op="step", pc=0x40, outcome=0, seq=i))
                assert r.ok
            lookup = await service.request(PredictRequest(
                "s", op="predict", pc=0x40))
            assert lookup.ok and lookup.result == 0  # predicted miss
            trained = await service.request(PredictRequest(
                "s", op="update", pc=0x40, outcome=1))
            assert trained.ok and trained.result is None
    run(main())


def test_update_requires_outcome():
    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            await service.open_session("s", spec_for("hmp.local"))
            r = await service.request(PredictRequest("s", op="update",
                                                     pc=0x40))
            assert not r.ok and "outcome" in r.error
    run(main())


def test_unknown_session_is_in_band():
    async def main():
        async with PredictionService(ServeConfig(n_shards=2)) as service:
            r = await service.request(PredictRequest("ghost", op="step",
                                                     pc=4, outcome=1))
            assert not r.ok and r.error == ERR_UNKNOWN_SESSION
    run(main())


def test_open_idempotent_same_spec_conflict_on_other():
    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            spec = spec_for("cht.tagless", size=64)
            await service.open_session("s", spec)
            await service.open_session("s", spec)  # idempotent
            with pytest.raises(ValueError, match="different spec"):
                await service.open_session("s", spec_for("cht.tagless",
                                                         size=128))
    run(main())


def test_close_session_returns_served_count():
    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            await service.open_session("s", spec_for("hmp.local"))
            for i in range(5):
                await service.request(PredictRequest("s", op="step",
                                                     pc=4, outcome=1))
            assert await service.close_session("s") == 5
            assert await service.close_session("s") is None
            r = await service.request(PredictRequest("s", op="step",
                                                     pc=4, outcome=1))
            assert r.error == ERR_UNKNOWN_SESSION
    run(main())


def test_submit_after_stop_resolves_closed():
    async def main():
        service = PredictionService(ServeConfig(n_shards=1))
        await service.start()
        await service.stop()
        r = await service.submit(PredictRequest("s", op="step", pc=4,
                                                outcome=1))
        assert not r.ok and r.error == ERR_CLOSED
        with pytest.raises(RuntimeError):
            await service.open_session("s", spec_for("hmp.local"))
    run(main())


def test_backpressure_rejects_with_retry_after():
    async def main():
        config = ServeConfig(n_shards=1, queue_depth=4, max_batch=4,
                             max_delay_us=0, retry_after_us=777)
        async with PredictionService(config) as service:
            await service.open_session("s", spec_for("hmp.local"))
            # Submit far more than the queue holds in one sweep, without
            # yielding, so the shard cannot drain in between.
            futures = [service.submit(PredictRequest("s", op="step",
                                                     pc=4, outcome=1,
                                                     seq=i))
                       for i in range(64)]
            responses = await asyncio.gather(*futures)
            rejected = [r for r in responses if r.error == ERR_RETRY]
            accepted = [r for r in responses if r.ok]
            assert rejected, "bounded queue never pushed back"
            assert all(r.retry_after_us == 777 for r in rejected)
            assert len(accepted) + len(rejected) == 64
            assert service.stats()["totals"]["rejected"] == len(rejected)
    run(main())


def test_drain_completes_admitted_requests():
    async def main():
        config = ServeConfig(n_shards=2, max_batch=1024,
                             max_delay_us=5000)
        service = PredictionService(config)
        await service.start()
        await service.open_session("s", spec_for("hmp.local"))
        futures = [service.submit(PredictRequest("s", op="step", pc=4,
                                                 outcome=1, seq=i))
                   for i in range(200)]
        await service.stop()  # graceful: everything admitted completes
        responses = [f.result() for f in futures]
        assert all(r.ok for r in responses)
        assert service.stats()["totals"]["served"] == 200
    run(main())


def test_micro_batches_coalesce():
    async def main():
        config = ServeConfig(n_shards=1, max_batch=256, max_delay_us=2000)
        async with PredictionService(config) as service:
            await service.open_session("s", spec_for("hmp.local"))
            responses = await asyncio.gather(*[
                service.submit(PredictRequest("s", op="step", pc=4,
                                              outcome=1, seq=i))
                for i in range(128)])
            assert all(r.ok for r in responses)
            stats = service.stats()["shards"][0]
            # 128 requests submitted in one sweep must not take 128
            # one-item batches.
            assert stats["batches"] < 64
            assert stats["max_batch"] > 1
    run(main())


def test_snapshot_restore_across_shard_counts():
    async def main():
        spec = spec_for("hmp.local", size=64, history=2)
        async with PredictionService(ServeConfig(n_shards=4)) as service:
            for sid in ("a", "b", "c"):
                await service.open_session(sid, spec)
            for i in range(16):
                await service.request(PredictRequest("a", op="step",
                                                     pc=0x40, outcome=0,
                                                     seq=i))
            payload = await service.snapshot_payload()
        assert set(payload["sessions"]) == {"a", "b", "c"}

        async with PredictionService(ServeConfig(n_shards=2)) as other:
            assert await other.restore_payload(payload) == 3
            r = await other.request(PredictRequest("a", op="predict",
                                                   pc=0x40))
            assert r.ok and r.result == 0  # trained state survived
            # Served count survived too: 16 steps + the predict above.
            assert await other.close_session("a") == 17
    run(main())


def test_snapshot_is_a_copy_not_the_live_predictors():
    """The payload is state at the barrier: restoring it elsewhere must
    not share predictors with the source, and stepping the source
    afterwards moves neither the payload nor the restored service."""
    async def main():
        spec = spec_for("hmp.local", size=64, history=2)
        pcs = [0x40 + 4 * i for i in range(8)]

        async def answers(service):
            return [(await service.request(PredictRequest(
                "a", op="predict", pc=pc))).result for pc in pcs]

        async with PredictionService(ServeConfig(n_shards=2)) as source, \
                PredictionService(ServeConfig(n_shards=3)) as copy:
            await source.open_session("a", spec)
            for i in range(64):
                await source.request(PredictRequest(
                    "a", op="step", pc=pcs[i % 8], outcome=0, seq=i))
            payload = await source.snapshot_payload()
            frozen = pickle.dumps(payload)
            await copy.restore_payload(payload)
            restored = await answers(copy)
            for i in range(200):
                await source.request(PredictRequest(
                    "a", op="step", pc=pcs[i % 8], outcome=1, seq=64 + i))
            assert await answers(source) != restored  # the source moved
            assert await answers(copy) == restored
            assert pickle.dumps(payload) == frozen
    run(main())


def test_stats_shape():
    async def main():
        async with PredictionService(ServeConfig(n_shards=3)) as service:
            stats = service.stats()
            assert stats["config"]["n_shards"] == 3
            # The default "auto" policy reports what it resolved to.
            assert stats["config"]["backend"] == \
                ExecutionPolicy().resolved_backend()
            assert len(stats["shards"]) == 3
            assert set(stats["totals"]) >= {"sessions", "served",
                                            "batches", "kernel_batches",
                                            "rejected"}
    run(main())


def test_degrades_counted_from_one_eligibility_check_per_window(
        monkeypatch):
    """The executor asks ``supports_steps`` once per kernel-length
    window and the shard counts the degrade from its answer: one per
    scalar window of a predictor without a kernel, none for a short
    window, and none for a window whose lanes overflow int64 (that
    predictor has a kernel)."""
    pytest.importorskip("numpy")
    from repro.fastpath import batchapi

    calls = []
    real = batchapi.supports_steps

    def counting(family, predictor):
        calls.append(family)
        return real(family, predictor)

    monkeypatch.setattr(batchapi, "supports_steps", counting)

    def replay(sid, seq, pcs):
        return PredictRequest(sid, op="replay", seq=seq, pcs=tuple(pcs),
                              outcomes=tuple(i % 2 for i in range(len(pcs))))

    async def main():
        config = ServeConfig(n_shards=1,
                             policy=ExecutionPolicy(backend="vectorized"))
        async with PredictionService(config) as service:
            await service.open_session("slow", spec_for("cht.full"))
            await service.open_session("fast", spec_for("hmp.local"))
            for k in range(3):  # distinct windows: no hot-trace hits
                response = await service.request(replay(
                    "slow", k, [0x40 + 4 * (i + k) for i in range(16)]))
                assert response.ok, response.error
            assert calls == ["cht"] * 3
            assert service.stats()["totals"]["degraded"] == 3

            response = await service.request(replay("slow", 3, [0x40] * 4))
            assert response.ok, response.error
            response = await service.request(replay(
                "fast", 0, [2 ** 64 + 0x40] * 16))
            assert response.ok, response.error
            assert calls == ["cht"] * 3 + ["hitmiss"]
            assert service.stats()["totals"]["degraded"] == 3
    run(main())

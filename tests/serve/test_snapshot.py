"""Durable snapshots through the ResultCache envelope machinery."""

import asyncio

import pytest

from repro.api import spec_for
from repro.serve import (
    PredictRequest,
    PredictionService,
    ServeConfig,
    load_snapshot,
    save_snapshot,
    snapshot_key,
)
from repro.serve.snapshot import SNAPSHOT_SCHEMA


def test_snapshot_key_binds_label():
    key_a, material_a = snapshot_key("nightly")
    key_b, _ = snapshot_key("weekly")
    assert key_a != key_b
    assert len(key_a) == 64
    assert "serve-snapshot" in material_a
    assert snapshot_key("nightly")[0] == key_a  # deterministic


def test_missing_snapshot_is_none(tmp_path):
    assert load_snapshot(str(tmp_path), "never-saved") is None


def test_round_trip_through_cache(tmp_path):
    async def capture():
        async with PredictionService(ServeConfig(n_shards=2)) as service:
            await service.open_session("s", spec_for("hmp.local",
                                                     size=64, history=2))
            for i in range(12):
                await service.request(PredictRequest(
                    "s", op="step", pc=0x80, outcome=0, seq=i))
            return await service.snapshot_payload()

    payload = asyncio.run(capture())
    key = save_snapshot(str(tmp_path), "test", payload)
    assert len(key) == 64

    loaded = load_snapshot(str(tmp_path), "test")
    assert loaded is not None
    assert loaded["schema"] == SNAPSHOT_SCHEMA
    assert set(loaded["sessions"]) == {"s"}
    # Sessions are stored as the blob the shard encoded, unread.
    assert loaded["sessions"]["s"] == payload["sessions"]["s"]
    assert isinstance(loaded["sessions"]["s"], bytes)

    async def restore():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            assert await service.restore_payload(loaded) == 1
            r = await service.request(PredictRequest("s", op="predict",
                                                     pc=0x80))
            return r

    r = asyncio.run(restore())
    assert r.ok and r.result == 0  # trained miss state survived disk


def test_restore_refuses_another_schema():
    async def main():
        async with PredictionService(ServeConfig(n_shards=1)) as service:
            with pytest.raises(ValueError, match="schema 1"):
                await service.restore_payload({"schema": 1, "sessions": {}})

    asyncio.run(main())


def test_corrupt_snapshot_degrades_to_none(tmp_path):
    payload = {"schema": SNAPSHOT_SCHEMA, "sessions": {}}
    save_snapshot(str(tmp_path), "x", payload)
    # Scribble over every cache file: loads must degrade, not explode.
    count = 0
    for path in tmp_path.rglob("*"):
        if path.is_file():
            path.write_bytes(b"\x00garbage")
            count += 1
    assert count > 0
    assert load_snapshot(str(tmp_path), "x") is None


def _with_backend_attributes(predictor):
    """Give a predictor tree the per-object ``backend`` instance
    attribute that predictors carried before the run's policy alone
    picked the execution path (the schema-3 blobs of that layout)."""
    stack = [predictor]
    while stack:
        obj = stack.pop()
        obj.backend = "vectorized"
        stack.extend(getattr(obj, "components", ()))
        stack.extend(getattr(obj, name) for name in ("_chooser",
                                                     "_miss_predictor")
                     if hasattr(obj, name))


@pytest.mark.parametrize("kind", ("binary.gshare", "cht.tagless",
                                  "hmp.hybrid", "bank.a"))
def test_blob_with_backend_attributes_restores(kind):
    import pickle
    import random

    from repro.serve.session import Session

    spec = spec_for(kind)
    old = Session("old", spec)
    _with_backend_attributes(old.predictor)
    blob = pickle.dumps(old.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)
    assert b"backend" in blob
    payload = {"schema": SNAPSHOT_SCHEMA, "sessions": {"old": blob}}

    rng = random.Random(7)
    windows = []
    for _ in range(2):
        pcs = tuple(0x400 + 4 * rng.randrange(24) for _ in range(300))
        outcomes = tuple(rng.randrange(2) for _ in pcs)
        windows.append((pcs, outcomes))

    async def main():
        async with PredictionService(ServeConfig(n_shards=2)) as service:
            assert await service.restore_payload(payload) == 1
            await service.open_session("new", spec)
            answers = {}
            for sid in ("old", "new"):
                for seq, (pcs, outcomes) in enumerate(windows):
                    r = await service.request(PredictRequest(
                        sid, op="replay", pcs=pcs, outcomes=outcomes,
                        seq=seq))
                    assert r.ok, r.error
                    answers.setdefault(sid, []).append(r.result)
            return answers

    answers = asyncio.run(main())
    assert answers["old"] == answers["new"]

"""A stored schema-3 snapshot still restores and predicts the same.

``fixtures/snapshot_schema3.json`` holds one snapshot payload taken by
a service whose predictors re-derived their table widths on every
call: one ``hmp.local``, one ``hmp.hybrid`` and one ``hmp.gshare``
session, each trained on :func:`step_stream` seed 1.  Beside the
base64 blobs it records, per session, the SHA-256 of the restored
predictor's canonical pickle and the predictions and final state of
the next :data:`N_STEPS` steps of seed 2.  It is a compatibility
record, never regenerated: a predictor that stores a derived field,
renames an attribute or indexes its tables differently fails here.
"""

import asyncio
import base64
import hashlib
import json
import os
import pickle
import random

import pytest

from repro.api import canonical_state
from repro.serve import PredictRequest, PredictionService, ServeConfig
from repro.serve.batch import scalar_steps
from repro.serve.snapshot import SNAPSHOT_SCHEMA

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "snapshot_schema3.json")

#: Steps predicted after the restore.
N_STEPS = 1000

#: 48 load PCs, each with its own hit period and phase.
_PCS = tuple(0x400000 + 0x44 * k for k in range(48))


def step_stream(seed, n):
    """``n`` seeded (pc, hit) steps: periodic per-PC misses, 10 % noise."""
    rng = random.Random(seed)
    steps = []
    for _ in range(n):
        k = rng.randrange(len(_PCS))
        hit = (rng.randrange(1 << 30) + k) % (2 + k % 5) != 0
        if rng.random() < 0.1:
            hit = not hit
        steps.append((_PCS[k], int(hit)))
    return steps


def state_sha(predictor) -> str:
    return hashlib.sha256(canonical_state(predictor)).hexdigest()


def _fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        record = json.load(handle)
    payload = {"schema": record["schema"],
               "sessions": {sid: base64.b64decode(blob)
                            for sid, blob in record["sessions"].items()}}
    return record, payload


def _expected_results(record, sid):
    return [int(c) for c in record["expected"][sid]["results"]]


def test_fixture_is_schema_3_with_three_hmp_kinds():
    record, payload = _fixture()
    assert payload["schema"] == SNAPSHOT_SCHEMA == 3
    kinds = sorted(pickle.loads(blob)["spec"]["kind"]
                   for blob in payload["sessions"].values())
    assert kinds == ["hmp.gshare", "hmp.hybrid", "hmp.local"]
    assert record["steps"] == N_STEPS


def test_restored_predictors_pickle_as_stored():
    """Loading adds nothing to a predictor's pickle: derived widths are
    rebuilt on unpickle and left out of the state."""
    record, payload = _fixture()
    for sid, blob in payload["sessions"].items():
        predictor = pickle.loads(blob)["predictor"]
        assert state_sha(predictor) == record["expected"][sid]["restored"]


@pytest.mark.parametrize("path", ["scalar", "kernel"])
def test_restored_sessions_predict_the_next_steps(path):
    record, payload = _fixture()
    stream = step_stream(2, N_STEPS)
    pcs = [pc for pc, _ in stream]
    outcomes = [hit for _, hit in stream]
    for sid, blob in payload["sessions"].items():
        predictor = pickle.loads(blob)["predictor"]
        if path == "scalar":
            results = scalar_steps("hitmiss", predictor, pcs, outcomes)
        else:
            np = pytest.importorskip("numpy")
            from repro.fastpath.batchapi import replay_steps
            results = replay_steps("hitmiss", predictor, np.array(pcs),
                                   np.array(outcomes)).tolist()
        assert results == _expected_results(record, sid), sid
        assert state_sha(predictor) == record["expected"][sid]["final"]


def test_service_restores_the_fixture_and_predicts_the_same():
    record, payload = _fixture()
    stream = step_stream(2, N_STEPS)

    async def main():
        async with PredictionService(ServeConfig(n_shards=2)) as service:
            assert await service.restore_payload(payload) == 3
            answers = {}
            for sid in payload["sessions"]:
                responses = await asyncio.gather(*[
                    service.submit(PredictRequest(sid, op="step", pc=pc,
                                                  outcome=hit, seq=i))
                    for i, (pc, hit) in enumerate(stream)])
                assert all(r.ok for r in responses)
                answers[sid] = [r.result for r in responses]
            return answers

    answers = asyncio.run(main())
    for sid in payload["sessions"]:
        assert answers[sid] == _expected_results(record, sid), sid

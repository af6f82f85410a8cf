"""In-band failures on the fleet worker's inline path.

A fleet worker executes each router frame in place, on one shard.  A
failure inside that frame must stay in band: the requests it hits get
an error response, every other request in the frame gets its answer,
and the worker goes on serving the next frame.  These tests drive real
worker processes through the router.
"""

import asyncio
import json
import os
import pickle

import tests
from repro.api import build_predictor, spec_for
from repro.serve import (
    ERR_INTERNAL,
    ERR_UNKNOWN_SESSION,
    PredictRequest,
)
from repro.serve.fleet import ServeFleet
from repro.serve.snapshot import SNAPSHOT_SCHEMA, save_snapshot
from tests.robust.saboteurs import RaisingHMP
from tests.serve.helpers import CONFIG, SPEC, scalar_oracle, step_stream

#: The sabotaged session's spec: a hit-miss family, so the saboteur
#: wrapper is a drop-in predictor for it.
BAD_SPEC = spec_for("hmp.local", size=64, history=4)


def _submit(fleet, sid, stream, seq0=0):
    return [fleet.submit(PredictRequest(sid, op="step", pc=pc,
                                        outcome=outcome, seq=seq0 + i))
            for i, (pc, outcome) in enumerate(stream)]


def _seed_state_dir(state_dir, sessions):
    """Lay down a one-worker fleet's durable state holding ``sessions``
    ({id: (spec, predictor)}), so ``start()`` restores them as a router
    restart would — the one way to put a predictor object the spec
    registry cannot build into a worker."""
    blobs = {sid: pickle.dumps({"spec": spec.to_json_dict(),
                                "predictor": predictor, "served": 0})
             for sid, (spec, predictor) in sessions.items()}
    save_snapshot(state_dir, "snap-w0",
                  {"schema": SNAPSHOT_SCHEMA, "sessions": blobs})
    with open(os.path.join(state_dir, "fleet.json"), "w") as fh:
        json.dump({"schema": 1, "workers": ["w0"]}, fh)


def test_raising_session_fails_in_band_and_the_frame_mates_are_served(
        tmp_path, monkeypatch):
    # The worker unpickles the saboteur: let it import the tests package.
    root = os.path.dirname(os.path.dirname(os.path.abspath(tests.__file__)))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    bad = RaisingHMP(build_predictor(BAD_SPEC), fail_at=5)
    _seed_state_dir(str(tmp_path), {"bad": (BAD_SPEC, bad)})
    good = {f"g{i}": step_stream(70 + i, 24) for i in range(3)}
    bad_steps = step_stream(90, 12)

    async def main():
        async with ServeFleet(n_workers=1, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            for sid in good:
                await fleet.open_session(sid, SPEC)
            # One frame: no await between these submits.
            first = {sid: _submit(fleet, sid, stream[:12])
                     for sid, stream in good.items()}
            first["bad"] = _submit(fleet, "bad", bad_steps)
            first = {sid: await asyncio.gather(*fs)
                     for sid, fs in first.items()}
            # The next frame: the worker is still serving, every
            # session of it included.
            second = {sid: _submit(fleet, sid, stream[12:], seq0=12)
                      for sid, stream in good.items()}
            second["bad"] = _submit(fleet, "bad", bad_steps, seq0=12)
            second = {sid: await asyncio.gather(*fs)
                      for sid, fs in second.items()}
            return first, second, fleet.stats()["totals"]

    first, second, totals = asyncio.run(main())
    for response in first["bad"]:
        assert not response.ok
        assert response.error.startswith(f"{ERR_INTERNAL}: RuntimeError: "
                                         "injected predictor fault")
        assert "caused by ValueError: table write refused" in \
            response.error
    for sid, stream in good.items():
        answered = first[sid] + second[sid]
        assert all(r.ok for r in answered), sid
        assert [r.result for r in answered] == scalar_oracle(stream), sid
    assert all(r.ok for r in second["bad"])
    assert totals["worker_deaths"] == 0


def test_unknown_session_in_a_frame_is_answered_in_band(tmp_path):
    steps = step_stream(5, 8)

    async def main():
        async with ServeFleet(n_workers=1, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            await fleet.open_session("known", SPEC)
            known = _submit(fleet, "known", steps)
            ghost = _submit(fleet, "ghost", steps)
            return (await asyncio.gather(*known),
                    await asyncio.gather(*ghost))

    known, ghost = asyncio.run(main())
    assert [r.result for r in known] == scalar_oracle(steps)
    assert [(r.ok, r.error) for r in ghost] == \
        [(False, ERR_UNKNOWN_SESSION)] * len(steps)


def test_controls_stay_barriers_between_unawaited_frames(tmp_path):
    """open → steps → close → steps, each written to the worker before
    any of them is answered: the worker executes them in that order."""
    before, after = step_stream(11, 10), step_stream(12, 6)

    async def main():
        async with ServeFleet(n_workers=1, config=CONFIG,
                              state_dir=str(tmp_path)) as fleet:
            # Each yield lets exactly the step just queued reach the
            # link: the control's frame, or the router's flush of the
            # steps submitted before it.
            opened = asyncio.ensure_future(fleet.open_session("s", SPEC))
            await asyncio.sleep(0)
            live = _submit(fleet, "s", before)
            closed = asyncio.ensure_future(fleet.close_session("s"))
            await asyncio.sleep(0)
            late = _submit(fleet, "s", after, seq0=len(before))
            assert not opened.done() and not closed.done()
            await opened
            return (await asyncio.gather(*live), await closed,
                    await asyncio.gather(*late))

    live, served, late = asyncio.run(main())
    assert [r.result for r in live] == scalar_oracle(before)
    assert served == len(before)
    assert [r.error for r in late] == [ERR_UNKNOWN_SESSION] * len(after)

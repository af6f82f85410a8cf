"""Simulator-throughput benchmark: uops/second per ordering scheme.

Unlike the figure benchmarks (which measure the *simulated machine*),
this measures the *simulator*: how many trace uops per wall-clock
second ``Machine.run`` retires under each ordering scheme on each
backend (the ``engine`` section), and what the observability layer
costs when enabled.  Results land in
``BENCH_throughput.json`` so the perf trajectory is tracked run over
run, and CI uploads the file as a workflow artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py
    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --uops 30000 --repeats 3 --out BENCH_throughput.json

The trace is seeded (derived from the trace name, as everywhere else),
so numbers are comparable across checkouts.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api import ExecutionPolicy  # noqa: E402
from repro.engine.machine import Machine  # noqa: E402
from repro.engine.ordering import make_scheme  # noqa: E402
from repro.obs import EventBus, JsonlSink, instrument  # noqa: E402
from repro.obs.provenance import collect_provenance  # noqa: E402
from repro.obs.sinks import git_revision  # noqa: E402
from repro.parallel import ResultCache, load_or_build_trace  # noqa: E402
from repro.trace.workloads import profile_for, trace_seed  # noqa: E402

DEFAULT_SCHEMES = ("traditional", "opportunistic", "inclusive",
                   "exclusive", "perfect")


def _best_run(make_machine, trace, repeats: int,
              policy: ExecutionPolicy) -> Dict[str, float]:
    """Run ``repeats`` times, keep the fastest wall-clock (least noise);
    a run that leaves ``policy``'s backend is an error, not a sample."""
    best: Optional[Dict[str, float]] = None
    for _ in range(max(1, repeats)):
        machine = make_machine()
        start = time.perf_counter()
        result = machine.run(trace, policy=policy)
        elapsed = time.perf_counter() - start
        if machine.last_degrade_reason is not None:
            raise RuntimeError(f"{policy.backend} arm degraded: "
                               f"{machine.last_degrade_reason}")
        sample = {
            "wall_seconds": elapsed,
            "uops_per_sec": result.retired_uops / elapsed,
            "cycles": result.cycles,
            "retired_uops": result.retired_uops,
        }
        if best is None or sample["wall_seconds"] < best["wall_seconds"]:
            best = sample
    assert best is not None
    return best


def measure_engine_backends(trace, schemes, repeats: int) -> Dict[str, object]:
    """Per-backend throughput of whole-machine replay (docs/engine.md).

    Pits the scalar loop (``ExecutionPolicy(backend="reference")``)
    against the event-driven array kernel on the same trace, per
    scheme.  Unlike the fastpath sweeps these replay the *full* §3.1
    machine, so the speedup is bounded by the shared scalar
    hierarchy/predictor calls.
    """
    from repro.fastpath import HAS_NUMPY
    if not HAS_NUMPY:
        print("  engine: numpy unavailable, skipping")
        return {"skipped": "numpy unavailable"}

    def timed(backend: str, scheme: str) -> Dict[str, float]:
        return _best_run(lambda: Machine(scheme=make_scheme(scheme)),
                         trace, repeats,
                         policy=ExecutionPolicy(backend=backend))

    # The kernel's lanes are built once per trace and cached on it, like
    # the trace itself: build them untimed so the first scheme's
    # vectorized arm is not charged for every scheme's conversion.
    from repro.fastpath.uoparrays import trace_arrays
    trace_arrays(trace)
    out: Dict[str, object] = {}
    for name in schemes:
        ref = timed("reference", name)
        vec = timed("vectorized", name)
        speedup = ref["wall_seconds"] / vec["wall_seconds"]
        out[name] = {
            "reference_uops_per_sec": ref["uops_per_sec"],
            "vectorized_uops_per_sec": vec["uops_per_sec"],
            "speedup": speedup,
        }
        print(f"  {name:14s} ref {ref['uops_per_sec']:>12,.0f}"
              f"  vec {vec['uops_per_sec']:>12,.0f} uops/sec"
              f"   ({speedup:.2f}x)")
    return out


def measure_obs_overhead(trace, scheme: str, repeats: int,
                         jsonl_path: str) -> Dict[str, object]:
    """Compare obs-disabled vs JSONL-sink-enabled wall-clock on the
    scalar loop (an event bus keeps a run there), and the vectorized
    kernel with vs without occupancy and stall-breakdown collection
    (which stay on the kernel)."""
    reference = ExecutionPolicy(backend="reference")
    baseline = _best_run(lambda: Machine(scheme=make_scheme(scheme)),
                         trace, repeats, policy=reference)

    def make_observed() -> Machine:
        machine = Machine(scheme=make_scheme(scheme))
        bus = instrument(machine, EventBus())
        bus.attach(JsonlSink(jsonl_path))
        return machine

    observed = _best_run(make_observed, trace, repeats, policy=reference)
    overhead = (observed["wall_seconds"] / baseline["wall_seconds"]) - 1.0
    print(f"  observability: disabled "
          f"{baseline['uops_per_sec']:,.0f} uops/sec, jsonl "
          f"{observed['uops_per_sec']:,.0f} uops/sec "
          f"({overhead:+.1%} wall-clock)")
    out: Dict[str, object] = {
        "scheme": scheme,
        "disabled_uops_per_sec": baseline["uops_per_sec"],
        "jsonl_uops_per_sec": observed["uops_per_sec"],
        "jsonl_overhead_frac": overhead,
    }
    from repro.fastpath import HAS_NUMPY
    if not HAS_NUMPY:
        return out

    def make_collecting() -> Machine:
        machine = Machine(scheme=make_scheme(scheme),
                          collect_occupancy=True)
        machine.collect_stall_breakdown = True
        return machine

    vectorized = ExecutionPolicy(backend="vectorized")
    plain = _best_run(lambda: Machine(scheme=make_scheme(scheme)),
                      trace, repeats, policy=vectorized)
    collecting = _best_run(make_collecting, trace, repeats,
                           policy=vectorized)
    collect_overhead = (collecting["wall_seconds"]
                        / plain["wall_seconds"]) - 1.0
    print(f"  vectorized: disabled {plain['uops_per_sec']:,.0f} uops/sec, "
          f"occupancy+stalls {collecting['uops_per_sec']:,.0f} uops/sec "
          f"({collect_overhead:+.1%} wall-clock)")
    out.update({
        "vectorized_disabled_uops_per_sec": plain["uops_per_sec"],
        "observed_uops_per_sec": collecting["uops_per_sec"],
        "observed_overhead_frac": collect_overhead,
    })
    return out


def _best_replay(run, repeats: int, n_events: int) -> Dict[str, float]:
    """Fastest of ``repeats`` timings of one predictor replay."""
    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    assert best is not None
    return {"wall_seconds": best, "uops_per_sec": n_events / best}


#: The serve-sized sweeps replay this many windows of this many steps.
WINDOW_STEPS = 256
WINDOW_COUNT = 64


def _window_sweep(kind: str, pcs, outcomes, extras=None):
    """A ``run(backend)`` replaying ``WINDOW_STEPS``-step windows of the
    given lanes on a warm ``kind`` predictor, the way the serve tier
    flushes a session's step run: through the step kernel
    (``vectorized``) or the scalar loop (``reference``).

    Both backends start from the same state, warmed by one untimed pass
    over the windows.
    """
    import numpy as np

    from repro.api import build_predictor, spec_for
    from repro.fastpath.batchapi import replay_steps
    from repro.serve.batch import scalar_steps

    spec = spec_for(kind)
    lanes = [np.asarray(lane, dtype=np.int64)
             for lane in (pcs, outcomes, extras) if lane is not None]
    windows = [tuple(lane[lo:lo + WINDOW_STEPS] for lane in lanes)
               for lo in range(0, len(lanes[0]), WINDOW_STEPS)]
    scalar_windows = [tuple(lane.tolist() for lane in window)
                      for window in windows]
    warm = build_predictor(spec)
    for window in windows:
        replay_steps(spec.family, warm, *window)
    predictors = {"reference": copy.deepcopy(warm),
                  "vectorized": copy.deepcopy(warm)}

    def run(backend: str) -> None:
        predictor = predictors[backend]
        if backend == "vectorized":
            for window in windows:
                replay_steps(spec.family, predictor, *window)
        else:
            for window in scalar_windows:
                scalar_steps(spec.family, predictor, *window)

    return run


def measure_fastpath(n_events: int, repeats: int) -> Dict[str, object]:
    """Per-backend throughput of the predictor-only replay sweeps.

    These are the table-indexed hot loops the ``repro.fastpath`` batch
    kernels target; each sweep replays the same synthetic event grid
    through a fresh predictor under both backends and reports the
    vectorized/reference speedup.  The ``*_w256`` sweeps instead replay
    a fixed count of serve-sized windows (``WINDOW_COUNT`` ×
    ``WINDOW_STEPS`` steps through :func:`repro.fastpath.batchapi.
    replay_steps`), where a kernel's fixed per-call cost dominates.
    """
    from repro.fastpath import HAS_NUMPY
    if not HAS_NUMPY:
        print("  fastpath: numpy unavailable, skipping")
        return {"skipped": "numpy unavailable"}

    from repro.bank.history import make_predictor_a
    from repro.cht.tagless import TaglessCHT
    from repro.experiments.bank_metric import evaluate
    from repro.experiments.cht_accuracy import EventArrayCache, LoadEvent
    from repro.experiments.cht_accuracy import replay as cht_replay
    from repro.experiments.hitmiss_stats import HitMissEvent
    from repro.experiments.hitmiss_stats import replay as hm_replay
    from repro.fastpath.bank import stream_arrays
    from repro.fastpath.tracegen import (
        synthesize_bank_grid,
        synthesize_collision_grid,
        synthesize_outcome_grid,
    )
    from repro.hitmiss.hybrid import HybridHMP
    from repro.hitmiss.local import LocalHMP

    # ~1k static load sites, as a 2K-entry CHT would see on real code.
    pcs, cf, co, dist = synthesize_collision_grid(1, n_events, n_pcs=1021)
    cht_events = [LoadEvent(pc=p, conflicting=c, collided=k, distance=d)
                  for p, c, k, d in zip(pcs, cf, co, dist)]
    pcs, hits = synthesize_outcome_grid(2, n_events)
    hm_events = [HitMissEvent(pc=p, line=p >> 6, now=i, hit=h)
                 for i, (p, h) in enumerate(zip(pcs, hits))]
    bank_stream = synthesize_bank_grid(3, n_events)

    # The Figure 9 pattern: one recorded stream replayed through the
    # whole tagless size ladder (conversion shared, like the harness).
    tagless_sizes = (2048, 4096, 8192, 16384, 32768)

    def cht_sweep(backend: str) -> None:
        shared = EventArrayCache(cht_events)
        for size in tagless_sizes:
            cht_replay(cht_events, TaglessCHT(n_entries=size),
                       arrays=shared,
                       policy=ExecutionPolicy(backend=backend))

    sweeps = {
        "cht_tagless_sizes": (cht_sweep, n_events * len(tagless_sizes)),
        "hmp_local_2k": (lambda backend: hm_replay(
            hm_events, LocalHMP(n_entries=2048, history_bits=8),
            policy=ExecutionPolicy(backend=backend)), n_events),
        "hmp_hybrid": (lambda backend: hm_replay(
            hm_events, HybridHMP(),
            policy=ExecutionPolicy(backend=backend)), n_events),
        "bank_predictor_a": (lambda backend: evaluate(
            make_predictor_a(), bank_stream,
            policy=ExecutionPolicy(backend=backend)), n_events),
    }
    n_window_steps = WINDOW_COUNT * WINDOW_STEPS
    w_pcs, w_hits = synthesize_outcome_grid(4, n_window_steps)
    c_pcs, _, c_collided, c_dist = synthesize_collision_grid(
        5, n_window_steps, n_pcs=1021)
    b_pcs, b_banks = stream_arrays(synthesize_bank_grid(6, n_window_steps))
    sweeps.update({
        "hmp_hybrid_w256": (_window_sweep("hmp.hybrid", w_pcs, w_hits),
                            n_window_steps),
        "hmp_local_w256": (_window_sweep("hmp.local", w_pcs, w_hits),
                           n_window_steps),
        "cht_tagless_w256": (_window_sweep("cht.tagless", c_pcs, c_collided,
                                           c_dist), n_window_steps),
        "bank_predictor_a_w256": (_window_sweep("bank.a", b_pcs, b_banks),
                                  n_window_steps),
    })
    out: Dict[str, object] = {"n_events": n_events,
                              "window_steps": WINDOW_STEPS,
                              "window_count": WINDOW_COUNT}
    for name, (run, n_replayed) in sweeps.items():
        ref = _best_replay(lambda: run("reference"), repeats, n_replayed)
        vec = _best_replay(lambda: run("vectorized"), repeats, n_replayed)
        speedup = ref["wall_seconds"] / vec["wall_seconds"]
        out[name] = {
            "reference_uops_per_sec": ref["uops_per_sec"],
            "vectorized_uops_per_sec": vec["uops_per_sec"],
            "speedup": speedup,
        }
        print(f"  {name:21s} ref {ref['uops_per_sec']:>12,.0f}"
              f"  vec {vec['uops_per_sec']:>12,.0f} uops/sec"
              f"   ({speedup:.1f}x)")
    return out


#: The fleet_snapshot section's shape: ``fleet_steps``'s session spec,
#: sessions per worker, and the fleet's default ``wal_limit``.
SNAPSHOT_SPEC = ("hmp.gshare", {"history": 7})
SNAPSHOT_SESSIONS = 128
SNAPSHOT_WAL_RECORDS = 8192
#: Each step is milliseconds, too short for ``--repeats`` (2 by
#: default) to beat scheduler noise: keep the fastest of this many.
SNAPSHOT_ROUNDS = 7


def measure_fleet_snapshot() -> Dict[str, object]:
    """Per-layer cost of one fleet worker snapshot.

    ``SNAPSHOT_SESSIONS`` warm sessions on one service, timed the way a
    fleet snapshot runs them:

    * ``encode_us`` — the worker's share: the shard snapshot barrier
      plus encoding the session state as a ``snap_part`` frame;
    * ``persist_us`` — the router's ``save_snapshot`` of the payload as
      it holds it after decoding that frame;
    * ``truncate_us`` — ``WriteAheadLog.truncate`` at a snapshot mark
      taken after ``SNAPSHOT_WAL_RECORDS`` single-step records (64 per
      append, as admission flushes write them), with 512 more behind
      the mark.
    """
    import asyncio
    import pickle
    import random
    import shutil
    import tempfile

    from repro.api import spec_for
    from repro.serve import (
        PredictRequest,
        PredictionService,
        ServeConfig,
        save_snapshot,
    )
    from repro.serve.protocol import (
        FRAME_HEADER,
        encode_frame,
        request_to_wire,
    )
    from repro.serve.wal import WriteAheadLog

    kind, params = SNAPSHOT_SPEC
    spec = spec_for(kind, **params)
    rng = random.Random(7)
    steps = [PredictRequest(f"s{i % SNAPSHOT_SESSIONS}", op="step",
                            pc=0x400 + 4 * rng.randrange(256),
                            outcome=rng.randrange(2), seq=i)
             for i in range(SNAPSHOT_WAL_RECORDS + 512)]

    async def encode():
        async with PredictionService(ServeConfig()) as service:
            for i in range(SNAPSHOT_SESSIONS):
                await service.open_session(f"s{i}", spec)
            await asyncio.gather(*(service.submit(r) for r in steps))
            best, frame = None, b""
            for _ in range(SNAPSHOT_ROUNDS):
                start = time.perf_counter()
                payload = await service.snapshot_payload()
                frame = encode_frame(("snap_part", 1, payload["sessions"]))
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            return best, payload["schema"], frame

    encode_s, schema, frame = asyncio.run(encode())
    sessions = pickle.loads(frame[FRAME_HEADER.size:])[2]
    routed = {"schema": schema, "sessions": sessions}
    records = [("req", request_to_wire(r)) for r in steps]
    root = tempfile.mkdtemp(prefix="bench-snapshot-")
    persist: List[float] = []
    truncate: List[float] = []
    try:
        for round_ in range(SNAPSHOT_ROUNDS):
            start = time.perf_counter()
            save_snapshot(root, "snap-w0", routed)
            persist.append(time.perf_counter() - start)
            with WriteAheadLog(os.path.join(root, f"wal-{round_}.log")) as wal:
                for lo in range(0, SNAPSHOT_WAL_RECORDS, 64):
                    wal.append(records[lo:lo + 64])
                mark = wal.mark()
                for lo in range(SNAPSHOT_WAL_RECORDS, len(records), 64):
                    wal.append(records[lo:lo + 64])
                start = time.perf_counter()
                wal.truncate(mark)
                truncate.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out = {"sessions": SNAPSHOT_SESSIONS,
           "spec": spec.to_json_dict(),
           "wal_records": SNAPSHOT_WAL_RECORDS,
           "frame_bytes": len(frame),
           "encode_us": encode_s * 1e6,
           "persist_us": min(persist) * 1e6,
           "truncate_us": min(truncate) * 1e6}
    print(f"  encode {out['encode_us'] / 1e3:8.2f} ms   persist "
          f"{out['persist_us'] / 1e3:8.2f} ms   truncate "
          f"{out['truncate_us'] / 1e3:8.2f} ms   "
          f"({len(frame) / SNAPSHOT_SESSIONS:,.0f} B/session)")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="gcc")
    parser.add_argument("--uops", type=int,
                        default=int(os.environ.get("REPRO_BENCH_UOPS",
                                                   "30000")))
    parser.add_argument("--repeats", type=int, default=2,
                        help="keep the fastest of N runs (default 2)")
    parser.add_argument("--schemes", nargs="+", default=None,
                        choices=DEFAULT_SCHEMES, metavar="SCHEME")
    parser.add_argument("--out", default="BENCH_throughput.json")
    parser.add_argument("--skip-obs-overhead", action="store_true")
    parser.add_argument("--skip-fastpath", action="store_true",
                        help="skip the per-backend predictor sweeps")
    parser.add_argument("--skip-engine", action="store_true",
                        help="skip the per-backend machine replay sweep")
    parser.add_argument("--fastpath-events", type=int,
                        default=int(os.environ.get(
                            "REPRO_BENCH_FASTPATH_EVENTS", "200000")),
                        help="events per fastpath predictor sweep")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk trace cache (timings themselves "
                             "are never cached)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir")
    args = parser.parse_args(argv)

    schemes = args.schemes if args.schemes else list(DEFAULT_SCHEMES)
    print(f"throughput benchmark: trace {args.trace!r}, "
          f"{args.uops} uops, best of {args.repeats}")
    cache_dir = None if args.no_cache else args.cache_dir
    cache = ResultCache(cache_dir) if cache_dir else None
    trace = load_or_build_trace(profile_for(args.trace),
                                n_uops=args.uops,
                                seed=trace_seed(args.trace),
                                name=args.trace, cache=cache)

    report: Dict[str, object] = {
        "benchmark": "throughput",
        "trace": args.trace,
        "n_uops": args.uops,
        "seed": trace_seed(args.trace),
        "repeats": args.repeats,
        "python": sys.version.split()[0],
        "git_rev": git_revision(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        # Full run provenance (host, platform, numpy, cpu count) so
        # history rows from different machines are distinguishable.
        "provenance": collect_provenance(),
    }
    if not args.skip_engine:
        print("engine replay backends (reference vs vectorized):")
        report["engine"] = measure_engine_backends(trace, schemes,
                                                   args.repeats)
    if not args.skip_fastpath:
        print("fastpath predictor sweeps "
              f"({args.fastpath_events} events each):")
        report["fastpath"] = measure_fastpath(args.fastpath_events,
                                              args.repeats)
    print(f"fleet snapshot ({SNAPSHOT_SESSIONS} sessions, "
          f"{SNAPSHOT_WAL_RECORDS}-record WAL):")
    report["fleet_snapshot"] = measure_fleet_snapshot()
    if not args.skip_obs_overhead:
        jsonl_path = args.out + ".events.tmp.jsonl"
        try:
            report["observability"] = measure_obs_overhead(
                trace, schemes[0], args.repeats, jsonl_path)
        finally:
            if os.path.exists(jsonl_path):
                os.remove(jsonl_path)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

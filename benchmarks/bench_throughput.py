"""Simulator-throughput benchmark: uops/second per ordering scheme.

Unlike the figure benchmarks (which measure the *simulated machine*),
this measures the *simulator*: how many trace uops per wall-clock
second ``Machine.run`` retires under each ordering scheme, and what the
observability layer costs when enabled.  Results land in
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
from repro.parallel import (  # noqa: E402
    ExecutionPlan,
    ResultCache,
    SimJob,
    load_or_build_trace,
    run_jobs,
    sim_job,
)
from repro.trace.builder import build_trace  # noqa: E402
from repro.trace.workloads import profile_for, trace_seed  # noqa: E402

DEFAULT_SCHEMES = ("traditional", "opportunistic", "inclusive",
                   "exclusive", "perfect")


def _best_run(make_machine, trace, repeats: int,
              policy: Optional[ExecutionPolicy] = None) -> Dict[str, float]:
    """Run ``repeats`` times, keep the fastest wall-clock (least noise)."""
    best: Optional[Dict[str, float]] = None
    for _ in range(max(1, repeats)):
        machine = make_machine()
        start = time.perf_counter()
        result = machine.run(trace, policy=policy)
        elapsed = time.perf_counter() - start
        if policy is not None and machine.last_degrade_reason is not None:
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


@sim_job("bench-scheme")
def _bench_scheme_leaf(trace_name: str, scheme: str, n_uops: int,
                       repeats: int) -> Dict[str, float]:
    """Time one scheme in an isolated process (trace built untimed).

    Never cached (the job is marked non-cacheable): a wall-clock
    measurement replayed from disk would be a lie.
    """
    trace = build_trace(profile_for(trace_name), n_uops=n_uops,
                        seed=trace_seed(trace_name), name=trace_name)
    return _best_run(lambda: Machine(scheme=make_scheme(scheme)),
                     trace, repeats)


def measure_schemes(trace, schemes, repeats: int, workers: int = 0,
                    n_uops: Optional[int] = None) -> Dict[str, Dict]:
    if workers > 1:
        # One timing job per scheme; concurrent jobs share the machine,
        # so expect a few percent more noise than the serial path.
        jobs = [SimJob.make(_bench_scheme_leaf,
                            key=("bench-scheme", trace.name, name),
                            cacheable=False,
                            trace_name=trace.name, scheme=name,
                            n_uops=(n_uops if n_uops is not None
                                    else len(trace)),
                            repeats=repeats)
                for name in schemes]
        results = run_jobs(jobs, plan=ExecutionPlan(workers=workers))
        out = dict(zip(schemes, results))
    else:
        out = {name: _best_run(lambda: Machine(scheme=make_scheme(name)),
                               trace, repeats)
               for name in schemes}
    for name in schemes:
        print(f"  {name:14s} {out[name]['uops_per_sec']:>12,.0f} uops/sec"
              f"   ({out[name]['cycles']} cycles)")
    return out


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
        best: Optional[Dict[str, float]] = None
        for _ in range(max(1, repeats)):
            machine = Machine(scheme=make_scheme(scheme))
            start = time.perf_counter()
            result = machine.run(
                trace, policy=ExecutionPolicy(backend=backend))
            elapsed = time.perf_counter() - start
            sample = {"wall_seconds": elapsed,
                      "uops_per_sec": result.retired_uops / elapsed}
            if best is None or sample["wall_seconds"] < best["wall_seconds"]:
                best = sample
        assert best is not None
        return best

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
    """Compare obs-disabled vs JSONL-sink-enabled wall-clock, and the
    vectorized kernel with vs without occupancy and stall-breakdown
    collection (which stay on the kernel)."""
    baseline = _best_run(lambda: Machine(scheme=make_scheme(scheme)),
                         trace, repeats)

    def make_observed() -> Machine:
        machine = Machine(scheme=make_scheme(scheme))
        bus = instrument(machine, EventBus())
        bus.attach(JsonlSink(jsonl_path))
        return machine

    observed = _best_run(make_observed, trace, repeats)
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


def measure_fastpath(n_events: int, repeats: int) -> Dict[str, object]:
    """Per-backend throughput of the predictor-only replay sweeps.

    These are the table-indexed hot loops the ``repro.fastpath`` batch
    kernels target; each sweep replays the same synthetic event grid
    through a fresh predictor under both backends and reports the
    vectorized/reference speedup.
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
            cht_replay(cht_events,
                       TaglessCHT(n_entries=size, backend=backend),
                       arrays=shared)

    sweeps = {
        "cht_tagless_sizes": (cht_sweep, n_events * len(tagless_sizes)),
        "hmp_local_2k": (lambda backend: hm_replay(
            hm_events, LocalHMP(n_entries=2048, history_bits=8,
                                backend=backend)), n_events),
        "hmp_hybrid": (lambda backend: hm_replay(
            hm_events, HybridHMP(backend=backend)), n_events),
        "bank_predictor_a": (lambda backend: evaluate(
            make_predictor_a(backend=backend), bank_stream), n_events),
    }
    out: Dict[str, object] = {"n_events": n_events}
    for name, (run, n_replayed) in sweeps.items():
        ref = _best_replay(lambda: run("reference"), repeats, n_replayed)
        vec = _best_replay(lambda: run("vectorized"), repeats, n_replayed)
        speedup = ref["wall_seconds"] / vec["wall_seconds"]
        out[name] = {
            "reference_uops_per_sec": ref["uops_per_sec"],
            "vectorized_uops_per_sec": vec["uops_per_sec"],
            "speedup": speedup,
        }
        print(f"  {name:18s} ref {ref['uops_per_sec']:>12,.0f}"
              f"  vec {vec['uops_per_sec']:>12,.0f} uops/sec"
              f"   ({speedup:.1f}x)")
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
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="time each scheme in its own worker "
                             "process (slightly noisier; 0 = serial)")
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
        "workers": args.workers,
        "python": sys.version.split()[0],
        "git_rev": git_revision(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        # Full run provenance (host, platform, numpy, cpu count) so
        # history rows from different machines are distinguishable.
        "provenance": collect_provenance(),
        "schemes": measure_schemes(trace, schemes, args.repeats,
                                   workers=args.workers,
                                   n_uops=args.uops),
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

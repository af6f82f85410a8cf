"""Engine workloads: the Figure 7 and Figure 11 machine grids.

Both replay a grid of (trace, machine) runs through ``Machine.run``
with ``ExecutionPolicy(backend="vectorized")``, pass after pass, until
the run length is used up.  ``fig7_engine`` stays on the array kernel,
so the kernel, MOB, CHT and memory hierarchy do the work.
``fig11_observed`` uses a live hit-miss predictor on every load and
turns on stall-breakdown and occupancy collection, which today sends
every run back to the scalar loop (``engine.degraded_runs``).

A host-speed probe (``measure.probe_s``) runs between consecutive
``Machine.run`` calls; each run's time is scaled to the reference host
by the probes on either side of it, and so is each set-up.

Correctness: every result's ``SimResult.to_dict()`` hash must equal the
reference backend's.  Seed 0 at full scale reads the reference hashes
from ``expected_seed0.json``; any other seed or scale computes them
with ``backend="reference"`` before timing (``check_s``, not setup).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import measure

#: Uops per trace at scale 1.  The experiments default is 30k; 5k
#: keeps a grid pass to a few seconds, so a run holds several whole
#: passes and every median is taken over whole passes.
N_UOPS = 5_000

#: Added per seed step to each trace's canonical seed; seed 0 gives the
#: experiments' traces (``trace_seed(name)``).
SEED_STRIDE = 100_003

FIG7_TRACES = ("cd", "ex", "fl", "pd", "pm", "pp", "wd", "wp")
FIG7_SCHEMES = ("traditional", "postponing", "opportunistic", "inclusive",
                "exclusive", "perfect")
FIG11_TRACES = ("compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl",
                "vortex")
FIG11_HMPS = ("always-hit", "local", "chooser", "local+timing", "perfect")


def _fig7_machine(scheme: str):
    from repro.common.config import BASELINE_MACHINE
    from repro.engine.machine import Machine
    from repro.engine.ordering import make_scheme
    return Machine(config=BASELINE_MACHINE, scheme=make_scheme(scheme))


def _fig11_machine(kind: str):
    """Built like the Figure 11 harness: perfect disambiguation, 4 int /
    2 mem units, the requested hit-miss predictor."""
    from repro.api import build_predictor, spec_for
    from repro.common.config import BASELINE_MACHINE
    from repro.engine.machine import Machine
    from repro.engine.ordering import make_scheme
    from repro.hitmiss.oracle import OracleHMP
    from repro.hitmiss.timing import TimingHMP
    from repro.memory.hierarchy import MemoryHierarchy

    config = BASELINE_MACHINE.with_units(4, 2)
    hierarchy = MemoryHierarchy(config.memory)
    local = spec_for("hmp.local", size=2048, history=8)
    if kind == "always-hit":
        hmp = build_predictor(spec_for("hmp.always-hit"))
    elif kind == "local":
        hmp = build_predictor(local)
    elif kind == "chooser":
        hmp = build_predictor(spec_for("hmp.hybrid"))
    elif kind == "local+timing":
        hmp = TimingHMP(build_predictor(local), mshr=hierarchy.mshr,
                        serviced=hierarchy.serviced)
    else:
        line_bytes = config.memory.l1d.line_bytes
        hmp = OracleHMP(lambda pc, line, now: hierarchy.would_hit_l1(
            (line or 0) * line_bytes, now))
    machine = Machine(config=config, scheme=make_scheme("perfect"), hmp=hmp,
                      hierarchy=hierarchy, collect_occupancy=True)
    machine.collect_stall_breakdown = True
    return machine


#: workload -> (trace names, machine labels, machine factory)
GRIDS: Dict[str, Tuple[Sequence[str], Sequence[str], Callable]] = {
    "fig7_engine": (FIG7_TRACES, FIG7_SCHEMES, _fig7_machine),
    "fig11_observed": (FIG11_TRACES, FIG11_HMPS, _fig11_machine),
}


def n_uops_for(scale: float) -> int:
    return max(200, int(round(N_UOPS * scale)))


def result_hash(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_traces(workload: str, seed: int, n_uops: int) -> list:
    from repro.trace import build_trace, profile_for
    from repro.trace.workloads import trace_seed
    names, _, _ = GRIDS[workload]
    return [build_trace(profile_for(name), n_uops=n_uops,
                        seed=trace_seed(name) + seed * SEED_STRIDE,
                        name=name)
            for name in names]


def grid(workload: str, traces: list) -> List[Tuple[str, object, str]]:
    """``[(key, trace, label)]`` in run order."""
    _, labels, _ = GRIDS[workload]
    return [(f"{trace.name}/{label}", trace, label)
            for trace in traces for label in labels]


def reference_hashes(workload: str, traces: list) -> Dict[str, str]:
    from repro.api import ExecutionPolicy
    policy = ExecutionPolicy(backend="reference")
    factory = GRIDS[workload][2]
    return {key: result_hash(factory(label).run(trace, policy=policy))
            for key, trace, label in grid(workload, traces)}


def load_expected(path: str, workload: str, seed: int,
                  n_uops: int) -> Optional[Dict[str, str]]:
    """Stored reference hashes for exactly this (seed, size), or None."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle).get(workload)
    except (OSError, json.JSONDecodeError):
        return None
    if (not entry or entry.get("seed") != seed
            or entry.get("n_uops") != n_uops):
        return None
    return dict(entry["hashes"])


def _install(tracer: measure.Tracer, machine, run_id: str) -> None:
    """Wrap the layer boundaries the engine calls into.  Inner calls
    keep one span in 64; ``Machine.run`` is the parent span."""
    tracer.wrap(machine, "run", "engine.run", scope=True,
                ident=lambda args: run_id)
    for attr in ("load", "store"):
        tracer.wrap(machine.hierarchy, attr, "memory", sample=64)
    for attr in ("predict_hit", "observed_update"):
        tracer.wrap(machine.hmp, attr, "hitmiss", sample=64)
    cht = getattr(machine.scheme, "cht", None)
    if cht is not None:
        for attr in ("lookup", "observed_train"):
            tracer.wrap(cht, attr, "cht", sample=64)


def _pass(workload: str, runs, expected: Dict[str, str],
          tracer: Optional[measure.Tracer], index: int) -> dict:
    """One whole grid pass; returns its per-run times (scaled to the
    reference host by the probes on either side of each run) and
    totals."""
    from repro.api import ExecutionPolicy
    from repro.common.types import HitMissClass
    from repro.engine.vector import unsupported_reason

    policy = ExecutionPolicy(backend="vectorized")
    factory = GRIDS[workload][2]
    if tracer is not None:
        tracer.reset()
    out = {"durations": {}, "rates": [], "errors": [], "run_s": 0.0,
           "degraded": 0, "cycles": 0, "squashed": 0, "miss_rates": [],
           "hmp_right": 0, "hmp_total": 0, "scales": []}
    started = time.perf_counter()
    probe = measure.probe_s()
    out["probes"] = [probe]
    for key, trace, label in runs:
        machine = factory(label)
        if tracer is not None:
            # Wrapping must not move the run onto another path.
            gate = unsupported_reason(machine)
            _install(tracer, machine, f"{key}#{index}")
            if unsupported_reason(machine) != gate:
                out["errors"].append(f"{key}: tracing changed the path")
                continue
        try:
            start = time.perf_counter()
            result = machine.run(trace, policy=policy)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # counted and reported, never fatal
            out["errors"].append(f"{key}: {type(exc).__name__}: {exc}")
            continue
        after = measure.probe_s()
        scale = measure.host_scale(probe, after)
        probe = after
        out["probes"].append(probe)
        out["scales"].append(scale)
        out["durations"][key] = elapsed * scale
        out["rates"].append(result.retired_uops / (elapsed * scale))
        out["run_s"] += elapsed
        if result_hash(result) != expected.get(key):
            out["errors"].append(f"{key}: result differs from reference")
        out["degraded"] += machine.last_degrade_reason is not None
        out["cycles"] += result.cycles
        out["squashed"] += result.squashed_issues
        out["miss_rates"].append(result.l1_miss_rate)
        counts = result.hitmiss.counts
        out["hmp_total"] += sum(counts.values())
        out["hmp_right"] += (counts[HitMissClass.AH_PH]
                             + counts[HitMissClass.AM_PM])
    out["wall_s"] = time.perf_counter() - started
    if tracer is not None:
        scale = measure.median(out["scales"])
        for name in ("engine.run", "memory", "hitmiss", "cht"):
            layer = tracer.layer(name)
            out[name] = (layer.calls, layer.seconds * scale)
    return out


def run(workload: str, seed: int, seconds: float, scale: float,
        tracer: Optional[measure.Tracer], expected_path: str) -> dict:
    """Run one engine workload; returns the workload report."""
    from repro.api import ExecutionPolicy
    from repro.fastpath.batchapi import uop_lanes

    n_uops = n_uops_for(scale)

    # -- setup, repeated: trace build + struct-of-arrays lanes ---------
    setups, builds, lanes, probes = [], [], [], []
    for _ in range(measure.SETUP_REPEATS):
        before = measure.probe_s()
        t0 = time.perf_counter()
        traces = build_traces(workload, seed, n_uops)
        t1 = time.perf_counter()
        for trace in traces:
            uop_lanes(trace)
        t2 = time.perf_counter()
        probes.append(measure.probe_s())
        host = measure.host_scale(before, probes[-1])
        builds.append((t1 - t0) * host)
        lanes.append((t2 - t1) * host)
        setups.append((t2 - t0) * host)
    runs = grid(workload, traces)

    # -- expected results (kept out of setup) --------------------------
    t0 = time.perf_counter()
    expected = load_expected(expected_path, workload, seed, n_uops)
    source = "file"
    if expected is None:
        expected = reference_hashes(workload, traces)
        source = "reference"
    check_s = time.perf_counter() - t0

    # -- one untimed warm-up run, then whole passes until the next one
    # would end more than half a pass past the run length --------------
    _, trace, label = runs[0]
    GRIDS[workload][2](label).run(
        trace, policy=ExecutionPolicy(backend="vectorized"))
    passes: List[dict] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + passes[-1]["wall_s"] / 2 < seconds):
        passes.append(_pass(workload, runs, expected, tracer, len(passes)))

    errors = [e for p in passes for e in p["errors"]]
    metrics = {
        "ops_per_s": measure.median(r for p in passes for r in p["rates"]),
        "p50_ms": measure.median(d for p in passes
                                 for d in p["durations"].values()) * 1e3,
        # One grid pass at each run's median speed.
        "tail_ms": sum(measure.median(p["durations"][key] for p in passes
                                      if key in p["durations"])
                       for key, _, _ in runs) * 1e3,
        "setup_s": measure.median(setups),
        "peak_rss_mb": measure.self_peak_rss_mb(),
    }
    probes += [s for p in passes for s in p["probes"]]
    first = passes[0]
    layers = {
        "trace.build_s": measure.median(builds),
        "fastpath.lanes_s": measure.median(lanes),
        "engine.degraded_runs": first["degraded"],
        "sim.cycles": first["cycles"],
        "sim.squashed_issues": first["squashed"],
        "sim.l1_miss_rate": (sum(first["miss_rates"])
                             / max(1, len(first["miss_rates"]))),
        "sim.hmp_accuracy": first["hmp_right"] / max(1, first["hmp_total"]),
        "host.canary_ms": measure.median(probes) * 1e3,
    }
    if tracer is not None:
        def busy(name: str) -> float:
            return measure.median(p[name][1] for p in passes)
        inner = {name: busy(name) for name in ("memory", "hitmiss", "cht")}
        layers.update({
            "engine.run_s": busy("engine.run"),
            "engine.self_s": busy("engine.run") - sum(inner.values()),
        })
        for name, seconds_busy in inner.items():
            layers[f"{name}.calls"] = first[name][0]
            layers[f"{name}.self_s"] = seconds_busy
    return {
        "metrics": metrics, "layers": layers,
        "attempted": len(passes) * len(runs), "failed": len(errors),
        "errors": errors[:20],
        "info": {"n_uops": n_uops, "runs_per_pass": len(runs),
                 "passes": len(passes), "check_s": check_s,
                 "expected_from": source,
                 "timed_s": time.perf_counter() - start,
                 "grid_s": [p["run_s"] for p in passes],
                 "host_scale": [measure.median(p["scales"])
                                for p in passes],
                 "degraded_runs": [p["degraded"] for p in passes]},
    }


def record_expected(path: str, scale: float = 1.0) -> None:
    """Rewrite ``path`` with the reference backend's seed-0 hashes of
    both grids."""
    n_uops = n_uops_for(scale)
    payload = {}
    for workload in GRIDS:
        traces = build_traces(workload, 0, n_uops)
        payload[workload] = {"seed": 0, "n_uops": n_uops,
                             "backend": "reference",
                             "hashes": reference_hashes(workload, traces)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")

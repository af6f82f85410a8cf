"""Suite driver: run every workload, calibrate bounds, compare commits.

Run from the repository root::

    python -m benchmarks.e2e --seed 0 --out R.json          # all four
    python -m benchmarks.e2e --seed 0 --out R.json --traced # + per layer
    python -m benchmarks.e2e calibrate --runs 5             # bounds
    python -m benchmarks.e2e compare PARENT CHANGE          # paired runs
    python -m benchmarks.e2e record-expected                # seed-0 hashes

Every workload runs in a fresh ``run.py`` subprocess whose environment
has no ``REPRO_*`` variable.  End-to-end numbers always come from the
untraced run; ``--traced`` adds a second, traced run per workload,
reports its per-layer metrics and the tracing overhead, and writes all
spans to ``<out>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e import END_TO_END, WORKLOADS, measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
CALIBRATION = HERE / "calibration.json"
EXPECTED = HERE / "expected_seed0.json"

#: Largest bound the benchmark contract allows; setup time gets it.
MAX_BOUND = 0.25
MIN_BOUND = 0.05
CANARY = "host.canary_ms"


def _work_dir() -> str:
    """Run artefacts stay inside the benchmark directory, under
    ``.out/``."""
    path = HERE / ".out"
    path.mkdir(exist_ok=True)
    return str(path)


def run_workload(workload: str, seed: int, seconds: float, scale: float,
                 trace: bool, out: str, src: Optional[str] = None) -> dict:
    """One workload in a fresh subprocess; returns its full report."""
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--scale", str(scale), "--trace", "1" if trace else "0",
           "--out", out]
    if src is not None:
        cmd += ["--src", src]
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    if not os.path.exists(out):
        raise RuntimeError(f"{workload} (seed {seed}) produced no report; "
                           f"exit {proc.returncode}")
    with open(out, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    report["exit"] = proc.returncode
    return report


# -- the suite ------------------------------------------------------------


def suite(args) -> int:
    out = args.out or os.path.join(_work_dir(), "report.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    workloads = args.workloads or list(WORKLOADS)
    spans = out + ".spans.jsonl"
    if args.traced and os.path.exists(spans):
        os.remove(spans)
    rows: Dict[str, dict] = {}
    ok = True
    with tempfile.TemporaryDirectory(dir=_work_dir()) as scratch:
        for workload in workloads:
            plain = run_workload(workload, args.seed, args.seconds,
                                 args.scale, False,
                                 os.path.join(scratch, f"{workload}.json"))
            row = {"result": plain["result"], "info": plain["info"],
                   "metrics": plain["metrics"], "exit": plain["exit"]}
            ok &= plain["exit"] == 0
            if args.traced:
                path = os.path.join(scratch, f"{workload}.traced.json")
                traced = run_workload(workload, args.seed, args.seconds,
                                      args.scale, True, path)
                ok &= traced["exit"] == 0
                row["layers"] = traced["layers"]
                row["tracing_overhead"] = {
                    name: _overhead(name, plain["metrics"][name],
                                    traced["metrics"][name])
                    for name in ("ops_per_s", "p50_ms")}
                if workload in ("fig7_engine", "fig11_observed"):
                    untraced = plain["info"]["degraded_runs"][0]
                    if traced["layers"]["engine.degraded_runs"] != untraced:
                        print(f"error: {workload}: tracing changed the "
                              f"degraded-run count", file=sys.stderr)
                        ok = False
                _append_spans(path + ".spans.jsonl", workload, spans)
            rows[workload] = row
    report = {"seed": args.seed, "seconds": args.seconds,
              "scale": args.scale, "traced": args.traced,
              "host": _host(), "workloads": rows}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    units = {name: unit for name, unit, _ in END_TO_END}
    for workload, row in rows.items():
        for name, value in row["metrics"].items():
            print(f"{workload:15s} {name:14s} {value:>14.6g} {units[name]}")
        result = row["result"]
        print(f"{workload:15s} {'failed':14s} {result['failed']:>14d} "
              f"of {result['attempted']}")
        for name, frac in row.get("tracing_overhead", {}).items():
            print(f"{workload:15s} tracing overhead on {name}: "
                  f"{100 * frac:+.1f}%")
    print(f"report: {out}")
    return 0 if ok else 1


def _overhead(name: str, plain: float, traced: float) -> float:
    """How much worse the traced run read, as a share of the untraced."""
    better = dict((n, b) for n, _, b in END_TO_END)[name]
    if not plain or not traced:
        return 0.0
    return plain / traced - 1 if better == "higher" else traced / plain - 1


def _append_spans(src: str, workload: str, dest: str) -> None:
    """Add one workload's spans, tagged with its name, to ``dest``."""
    with open(src, "r", encoding="utf-8") as inp, \
            open(dest, "a", encoding="utf-8") as outp:
        for line in inp:
            span = json.loads(line)
            span["workload"] = workload
            outp.write(json.dumps(span) + "\n")


def _host() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


# -- calibration ----------------------------------------------------------


def needed_bound(name: str, row: dict) -> float:
    """The bound one (workload, metric) pair calls for: three times its
    worst spread or drift, so the spread stays below a third of the
    bound.  Only drift counts for ``setup_s``, whose spread no bound
    covers."""
    noise = [abs(row["drift"])]
    if name != "setup_s":
        noise += row["spreads"]
    return 3 * max(noise)


def suggest_bounds(table: Dict[str, Dict[str, dict]]) -> Dict[str, float]:
    """Per metric, the largest bound any workload calls for, rounded up
    to a hundredth, at least MIN_BOUND; ``setup_s`` gets MAX_BOUND.  A
    value above MAX_BOUND means no allowed bound covers the noise."""
    out: Dict[str, float] = {}
    for rows in table.values():
        for name, row in rows.items():
            if "drift" not in row:
                continue
            need = max(MIN_BOUND, math.ceil(needed_bound(name, row) * 100)
                       / 100)
            out[name] = max(out.get(name, 0.0), need)
    out["setup_s"] = max(MAX_BOUND, out.get("setup_s", 0.0))
    return out


def uncovered(table: Dict[str, Dict[str, dict]],
              declared: Dict[str, float]) -> List[str]:
    """Every (workload, metric) pair whose noise the declared bound does
    not cover three times over."""
    return [f"{workload} {name}: needs {needed_bound(name, row):.3f}, "
            f"declared {declared[name]:.2f}"
            for workload, rows in table.items()
            for name, row in rows.items()
            if "drift" in row and needed_bound(name, row) > declared[name]]


def calibrate(args) -> int:
    """Run each workload ``--runs`` times per set, seeds 1..runs, in
    rounds across workloads; record medians, quartiles and spreads."""
    workloads = args.workloads or list(WORKLOADS)
    values: Dict[int, Dict[str, Dict[str, List[float]]]] = {}
    failures = 0
    with tempfile.TemporaryDirectory(dir=_work_dir()) as scratch:
        for index in range(args.sets):
            per = values[index] = {w: {} for w in workloads}
            for seed in range(1, args.runs + 1):
                for workload in workloads:
                    report = run_workload(
                        workload, seed, args.seconds, 1.0, False,
                        os.path.join(scratch, "r.json"))
                    failures += report["result"]["failed"]
                    # The canary marks runs taken in a slow host phase.
                    row = dict(report["metrics"], **{
                        CANARY: report["layers"][CANARY]})
                    for name, value in row.items():
                        per[workload].setdefault(name, []).append(value)
                    print(f"set {index} seed {seed} {workload}: "
                          + " ".join(f"{k}={v:.4g}" for k, v
                                     in row.items()), flush=True)
    table: Dict[str, dict] = {}
    for workload in workloads:
        table[workload] = {}
        for name, _, better in END_TO_END:
            sets = [values[i][workload][name] for i in sorted(values)]
            medians = [measure.median(v) for v in sets]
            drift = 0.0
            if len(medians) > 1 and medians[0]:
                sign = 1 if better == "lower" else -1
                drift = sign * (medians[1] - medians[0]) / medians[0]
            table[workload][name] = {
                "values": sets, "medians": medians, "drift": drift,
                "spreads": [measure.spread(v) for v in sets]}
        table[workload][CANARY] = {
            "values": [values[i][workload][CANARY] for i in sorted(values)]}
    bounds = suggest_bounds(table)
    misses = uncovered(table, _declared_bounds())
    payload = {"runs": args.runs, "sets": args.sets, "seconds": args.seconds,
               "seeds": list(range(1, args.runs + 1)), "host": _host(),
               "date": time.strftime("%Y-%m-%d"), "failed": failures,
               "suggested_bounds": bounds, "uncovered": misses,
               "workloads": table}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, rows in table.items():
        for name, row in rows.items():
            if "drift" in row:
                print(f"{workload:15s} {name:14s} spreads "
                      + " ".join(f"{100 * s:5.1f}%" for s in row["spreads"])
                      + f"  drift {100 * row['drift']:+5.1f}%")
    for name, bound in bounds.items():
        flag = "" if bound <= MAX_BOUND else "  (above the allowed maximum)"
        print(f"{name:14s} suggested bound {bound:.2f}{flag}")
    for miss in misses:
        print(f"error: {miss}", file=sys.stderr)
    return 0 if failures == 0 and not misses else 1


# -- paired comparison ----------------------------------------------------


def _declared_bounds() -> Dict[str, float]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    return {m["name"]: m["bound"] for m in declared}


def _src(path: str) -> str:
    root = Path(path).resolve()
    return str(root / "src") if (root / "src").is_dir() else str(root)


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> dict:
    """The pairing rule of the benchmark's README for one metric.

    ``parent[i]`` and ``change[i]`` are one alternating pair.  A gain
    needs ≥ 9/10 pair wins and a median gap larger than the parent's
    interquartile range; a regression is a median worse by more than
    the bound; a spread wider than the bound leaves the metric
    unresolved unless every change run beats (or trails) every parent
    run."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    mp, mc = measure.median(parent), measure.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4)
                 if len(parent) > 1 else (mp, mp, mp))
    gap = sign * (mc - mp)
    noisy = max(measure.spread(parent), measure.spread(change)) > bound
    separated = (min(sign * c for c in change) > max(sign * p for p in parent)
                 or max(sign * c for c in change)
                 < min(sign * p for p in parent))
    if gap > 0 and wins >= 0.9 * len(parent) and gap > q3 - q1 \
            and (not noisy or separated):
        call = "better"
    elif noisy and not separated:
        call = "unresolved"
    elif -gap > bound * abs(mp):
        call = "worse"
    else:
        call = "same"
    return {"parent_median": mp, "change_median": mc, "wins": wins,
            "losses": losses, "parent_iqr": q3 - q1, "verdict": call}


def compare(args) -> int:
    bounds = _declared_bounds()
    sources = {"parent": _src(args.parent), "change": _src(args.change)}
    workloads = args.workloads or list(WORKLOADS)
    runs = {side: {w: {} for w in workloads} for side in sources}
    with tempfile.TemporaryDirectory(dir=_work_dir()) as scratch:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                                "parent")
            for workload in workloads:
                for side in order:
                    report = run_workload(
                        workload, pair + 1, args.seconds, 1.0, False,
                        os.path.join(scratch, "r.json"), sources[side])
                    if report["result"]["failed"]:
                        print(f"error: {side} failed on {workload}",
                              file=sys.stderr)
                    for name, value in report["metrics"].items():
                        runs[side][workload].setdefault(name,
                                                        []).append(value)
    table = {w: {name: verdict(runs["parent"][w][name],
                               runs["change"][w][name], better,
                               bounds[name])
                 for name, _, better in END_TO_END}
             for w in workloads}
    for workload, metrics in table.items():
        for name, row in metrics.items():
            print(f"{workload:15s} {name:14s} parent {row['parent_median']:>12.5g} "
                  f"change {row['change_median']:>12.5g} wins "
                  f"{row['wins']}/{args.pairs}  {row['verdict']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"pairs": args.pairs, "runs": runs, "table": table},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if any(row["verdict"] == "worse" for metrics in table.values()
                    for row in metrics.values()) else 0


def record(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.e2e import engine
    engine.record_expected(args.out, scale=args.scale)
    print(f"wrote {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seconds", type=float, default=20.0)
    common.add_argument("--workloads", nargs="+", choices=WORKLOADS)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", parents=[common],
                           help="run every workload once (the default)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--traced", action="store_true")
    cal = sub.add_parser("calibrate", parents=[common])
    cal.add_argument("--runs", type=int, default=5)
    cal.add_argument("--sets", type=int, default=2)
    cal.add_argument("--out", default=str(CALIBRATION))
    cmp_p = sub.add_parser("compare", parents=[common])
    cmp_p.add_argument("parent", help="checkout (or src dir) of the parent")
    cmp_p.add_argument("change", help="checkout (or src dir) of the change")
    cmp_p.add_argument("--pairs", type=int, default=10)
    cmp_p.add_argument("--out", default=None)
    rec = sub.add_parser("record-expected")
    rec.add_argument("--scale", type=float, default=1.0)
    rec.add_argument("--out", default=str(EXPECTED))
    if not argv or argv[0].startswith("-"):
        argv.insert(0, "run")
    args = parser.parse_args(argv)
    measure.scrub_environment()  # inherited by every run subprocess
    return {"run": suite, "calibrate": calibrate, "compare": compare,
            "record-expected": record}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

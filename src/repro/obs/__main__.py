"""Observability CLI: ``python -m repro.obs <command>``.

Commands::

    summarize PATH          # render a run artifact (dir / manifest /
                            # metrics.json / events.jsonl)
    diff A B                # compare the metrics of two run artifacts
    export EVENTS [-o OUT]  # events.jsonl -> Chrome trace_event JSON
    run [--trace gcc ...]   # run one observed simulation end to end
    trace SPANS [-o OUT]    # per-stage summary of a spans.jsonl
                            # (+ optional Chrome trace export)
    gate REPORT             # append to BENCH_history.jsonl and gate
                            # against a committed perf baseline

Examples::

    python -m repro.obs run --trace gcc --scheme inclusive --out obs_run
    python -m repro.obs summarize obs_run
    python -m repro.obs diff obs_base obs_run
    python -m repro.obs export obs_run/events.jsonl -o perfetto.json
    python -m repro.obs trace serve_spans.jsonl -o spans.trace.json
    python -m repro.obs gate BENCH_throughput.json \
        --baseline benchmarks/baselines/throughput.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Tuple

from repro.obs.render import render_diff, render_event_counts, render_manifest
from repro.obs.sinks import RunManifest, events_to_chrome_trace, read_jsonl


def _resolve(path: str) -> Tuple[str, str]:
    """Classify an artifact path -> ("manifest"|"metrics"|"events", file)."""
    if os.path.isdir(path):
        for name, kind in (("manifest.json", "manifest"),
                           ("metrics.json", "metrics"),
                           ("events.jsonl", "events")):
            candidate = os.path.join(path, name)
            if os.path.exists(candidate):
                return kind, candidate
        raise FileNotFoundError(
            f"{path!r} contains no manifest.json/metrics.json/events.jsonl")
    if path.endswith(".jsonl"):
        return "events", path
    with open(path, "r", encoding="utf-8") as handle:
        head = json.load(handle)
    if isinstance(head, dict) and "metrics" in head and "name" in head:
        return "manifest", path
    return "metrics", path


def _load_metrics(path: str) -> Tuple[str, Dict[str, float]]:
    kind, file = _resolve(path)
    if kind == "manifest":
        manifest = RunManifest.load(file)
        return manifest.name, dict(manifest.metrics)
    if kind == "metrics":
        with open(file, "r", encoding="utf-8") as handle:
            return os.path.basename(path), dict(json.load(handle))
    raise ValueError(f"{path!r} holds events, not metrics; "
                     "point diff at a manifest or metrics.json")


def cmd_summarize(args: argparse.Namespace) -> int:
    kind, file = _resolve(args.path)
    if kind == "manifest":
        print(render_manifest(RunManifest.load(file),
                              metrics=not args.no_metrics))
    elif kind == "metrics":
        from repro.obs.render import render_metrics
        with open(file, "r", encoding="utf-8") as handle:
            print(render_metrics(json.load(handle)))
    else:
        events = read_jsonl(file)
        counts: Dict[str, int] = {}
        for record in events:
            key = str(record.get("kind", "?"))
            counts[key] = counts.get(key, 0) + 1
        print(f"{file}: {len(events)} events")
        print(render_event_counts(counts))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    name_a, metrics_a = _load_metrics(args.a)
    name_b, metrics_b = _load_metrics(args.b)
    print(f"diff: {args.a} ({name_a})  vs  {args.b} ({name_b})")
    print(render_diff(metrics_a, metrics_b, label_a="a", label_b="b",
                      max_rows=args.max_rows))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    events = read_jsonl(args.events)
    document = events_to_chrome_trace(events, n_lanes=args.lanes)
    out = args.out
    if out is None:
        base, _ = os.path.splitext(args.events)
        out = base + ".trace.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    print(f"wrote {len(document['traceEvents'])} trace events to {out} "
          "(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import (
        read_spans,
        render_span_summary,
        spans_to_chrome_trace,
        summarize_spans,
    )
    spans = read_spans(args.spans)
    print(render_span_summary(summarize_spans(spans), n_spans=len(spans)))
    if spans:
        slowest = sorted(spans, key=lambda s: s.total_us,
                         reverse=True)[:args.slowest]
        print()
        print(f"slowest {len(slowest)} requests:")
        for span in slowest:
            stages = "  ".join(f"{stage}={duration}us" for stage, _,
                               duration in span.stage_durations())
            print(f"  #{span.trace_id} {span.session_id}"
                  f"[{span.seq}] total={span.total_us}us  {stages}")
    if args.out is not None:
        document = spans_to_chrome_trace(spans)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
        print(f"\nwrote {len(document['traceEvents'])} trace events to "
              f"{args.out} (open in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    from repro.obs import gate as gatemod

    with open(args.report, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    try:
        metrics = gatemod.extract_metrics(report)
    except ValueError as exc:
        print(f"gate: {exc}", file=sys.stderr)
        return 2
    if not metrics:
        print(f"gate: no gateable metrics in {args.report}",
              file=sys.stderr)
        return 2

    if not args.no_append:
        try:
            source = gatemod.history_source(args.history, args.report)
        except ValueError as exc:
            print(f"gate: {exc}", file=sys.stderr)
            return 2
        row = gatemod.history_row(report, source=source)
        if gatemod.append_history_once(args.history, row):
            print(f"gate: appended {len(metrics)} metrics to "
                  f"{args.history} "
                  f"(git {str(row['provenance'].get('git_rev'))[:12]}, "
                  f"host {row['provenance'].get('hostname')})")
        else:
            print(f"gate: {args.history} already holds this row "
                  f"(same git revision, source and metrics); "
                  f"not appended")

    if args.baseline is None:
        print("gate: no --baseline given; history-only mode, passing")
        return 0
    if args.update_baseline or not os.path.exists(args.baseline):
        baseline = gatemod.make_baseline(
            report, tolerance=(args.tolerance if args.tolerance
                               is not None
                               else gatemod.DEFAULT_TOLERANCE))
        gatemod.write_baseline(args.baseline, baseline)
        print(f"gate: wrote baseline {args.baseline} "
              f"({len(metrics)} metrics); passing")
        return 0

    baseline = gatemod.load_baseline(args.baseline)
    note = gatemod.machine_note(report.get("provenance"), baseline)
    if note:
        print(note, file=sys.stderr)
    violations = gatemod.compare(metrics, baseline,
                                 tolerance=args.tolerance)
    gated = [name for name in baseline.get("metrics", {})
             if name in metrics]
    if violations:
        print(f"gate: FAIL — {len(violations)} of {len(gated)} gated "
              f"metrics regressed beyond tolerance:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(f"gate: ok — {len(gated)} gated metrics within tolerance "
          f"of {args.baseline}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    # Imported lazily: artifact inspection must not pay engine imports.
    from repro.engine.machine import Machine
    from repro.engine.ordering import make_scheme
    from repro.obs import observed_run
    from repro.trace.builder import build_trace
    from repro.trace.workloads import profile_for, trace_seed

    trace = build_trace(profile_for(args.trace), n_uops=args.uops,
                        seed=(args.seed if args.seed is not None
                              else trace_seed(args.trace)),
                        name=args.trace)
    machine = Machine(scheme=make_scheme(args.scheme))
    result, manifest = observed_run(machine, trace, args.out,
                                    chrome_trace=not args.no_chrome)
    print(render_manifest(manifest, metrics=False))
    print()
    print(f"artifacts in {args.out}/: manifest.json, metrics.json, "
          "events.jsonl" + ("" if args.no_chrome else ", trace.json"))
    return 0 if result.cycles else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect, compare and export simulator run artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="render one run artifact")
    p.add_argument("path", help="artifact dir, manifest.json, "
                                "metrics.json or events.jsonl")
    p.add_argument("--no-metrics", action="store_true",
                   help="omit the full metrics section")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("diff", help="compare two run artifacts")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--max-rows", type=int, default=60)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("export",
                       help="convert events.jsonl to a Chrome trace")
    p.add_argument("events", help="path to an events.jsonl log")
    p.add_argument("-o", "--out", default=None,
                   help="output file (default: <events>.trace.json)")
    p.add_argument("--lanes", type=int, default=16,
                   help="pseudo-threads to spread uops over (default 16)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("trace",
                       help="summarize a request-span JSONL log")
    p.add_argument("spans", help="spans.jsonl written by a RequestTracer")
    p.add_argument("-o", "--out", default=None,
                   help="also export a Chrome trace_event JSON here")
    p.add_argument("--slowest", type=int, default=5,
                   help="how many slowest requests to detail (default 5)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("gate",
                       help="append bench history and gate vs baseline")
    p.add_argument("report", help="BENCH_throughput.json")
    p.add_argument("--history", default="BENCH_history.jsonl",
                   help="append-only trajectory file "
                        "(default BENCH_history.jsonl)")
    p.add_argument("--baseline", default=None,
                   help="committed baseline JSON; created when missing")
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative tolerance override (e.g. 0.5 = 50%%)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from this report and pass")
    p.add_argument("--no-append", action="store_true",
                   help="gate only; do not touch the history file")
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("run", help="run one observed simulation")
    p.add_argument("--trace", default="gcc",
                   help="workload name (default gcc)")
    p.add_argument("--scheme", default="traditional")
    p.add_argument("--uops", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="obs_run")
    p.add_argument("--no-chrome", action="store_true")
    p.set_defaults(func=cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

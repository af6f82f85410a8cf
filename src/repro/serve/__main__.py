"""CLI for the prediction service.

``python -m repro.serve serve``  — run the JSONL service over TCP
(default) or stdio.  With ``--workers N`` (N > 1) the listener fronts
a multi-process :class:`~repro.serve.fleet.ServeFleet` instead of a
single in-process service.  With ``--metrics-dir DIR`` a background
:class:`~repro.obs.timeseries.TimeSeriesExporter` samples the live
metrics registry into ``DIR/metrics.jsonl`` (one JSON object per
sample) and ``DIR/metrics.prom`` (Prometheus text exposition).

``python -m repro.serve bench``  — load generator; writes
``BENCH_serve.json`` comparing scalar per-request execution against
vectorized micro-batching, with queue-sojourn/service-time separation
and a telemetry on/off overhead comparison (see
:mod:`repro.serve.bench`).  ``--fleet`` adds the schema-3 ``fleet``
section: open-loop Zipf/Poisson scenarios (steady, overload,
rebalance, kill-a-worker chaos) against an N-process fleet.
``--hottrace`` adds the schema-4 ``hottrace`` section: guarded
hot-trace replay measured on vs off (hit rate, abort counters,
steps/s speedup) over recurring-window and fresh-window profiles.

``python -m repro.serve top``    — live terminal dashboard over the
exported metrics stream (rps, queue depth, batch-size distribution,
per-stage latency); run it next to a ``serve --metrics-dir`` process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import asyncio

from repro.serve.bench import run_bench, write_report
from repro.serve.config import ServeConfig
from repro.serve.service import PredictionService


def _add_config_flags(parser: "argparse.ArgumentParser") -> None:
    parser.add_argument("--shards", type=int, default=4,
                        help="number of single-writer worker shards")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="micro-batch flush size")
    parser.add_argument("--max-delay-us", type=int, default=500,
                        help="micro-batch flush deadline (µs)")
    parser.add_argument("--queue-depth", type=int, default=8192,
                        help="bounded per-shard queue depth")


async def _run_serve(args: "argparse.Namespace") -> int:
    config = ServeConfig(
        n_shards=args.shards, max_batch=args.max_batch,
        max_delay_us=args.max_delay_us, queue_depth=args.queue_depth,
        telemetry=not args.no_telemetry,
        trace_sample_shift=args.trace_sample_shift,
        policy=args.parsed_policy)
    if args.workers and args.workers > 1:
        from repro.serve.fleet import ServeFleet
        service = ServeFleet(n_workers=args.workers, config=config,
                             state_dir=args.state_dir)
    else:
        service = PredictionService(config)
    exporter = None
    if args.metrics_dir:
        from repro.obs.timeseries import TimeSeriesExporter
        os.makedirs(args.metrics_dir, exist_ok=True)
        exporter = TimeSeriesExporter(
            service.metrics_snapshot,
            interval_ms=args.metrics_interval_ms,
            jsonl_path=os.path.join(args.metrics_dir, "metrics.jsonl"),
            prom_path=os.path.join(args.metrics_dir, "metrics.prom"))
        exporter.start()
        print(f"exporting metrics to {args.metrics_dir} every "
              f"{args.metrics_interval_ms}ms", file=sys.stderr)
    await service.start()
    try:
        if args.stdio:
            from repro.serve.net import serve_stdio
            await serve_stdio(service)
        else:
            from repro.serve.net import serve_tcp
            server = await serve_tcp(service, args.host, args.port)
            addrs = ", ".join(str(sock.getsockname())
                              for sock in server.sockets or [])
            print(f"repro.serve listening on {addrs}", file=sys.stderr)
            async with server:
                await server.serve_forever()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await service.stop()
        if exporter is not None:
            exporter.stop()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Micro-batching load-prediction service")
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="run the JSONL service")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7199)
    serve_p.add_argument("--stdio", action="store_true",
                        help="serve over stdin/stdout instead of TCP")
    serve_p.add_argument("--policy", default=None, metavar="JSON",
                        help="ExecutionPolicy as JSON, e.g. "
                             "'{\"backend\": \"vectorized\", "
                             "\"hottrace\": true}' (default: the "
                             "process default chain)")
    serve_p.add_argument("--no-telemetry", action="store_true",
                        help="disable per-request span tracing")
    serve_p.add_argument("--trace-sample-shift", type=int, default=6,
                        help="trace 1 request in 2**N (0 = all)")
    serve_p.add_argument("--metrics-dir", default=None,
                        help="export metrics.jsonl + metrics.prom here")
    serve_p.add_argument("--metrics-interval-ms", type=int, default=500,
                        help="time-series sampling period")
    serve_p.add_argument("--workers", type=int, default=1,
                        help="worker processes; >1 serves a ServeFleet "
                             "(consistent-hash routed, WAL-recovered)")
    serve_p.add_argument("--state-dir", default=None,
                        help="fleet durable state (WALs, snapshots, "
                             "manifest); default: a fresh temp dir")
    _add_config_flags(serve_p)

    bench_p = sub.add_parser("bench", help="closed-loop load generator")
    bench_p.add_argument("--seconds", type=float, default=10.0,
                         help="wall-clock duration per side")
    bench_p.add_argument("--clients", type=int, default=64,
                         help="concurrent closed-loop clients")
    bench_p.add_argument("--window", type=int, default=1024,
                         help="pipelined requests outstanding per client "
                              "(= kernel run length)")
    bench_p.add_argument("--spec", default="hmp.hybrid",
                         help="PredictorSpec kind each session serves")
    bench_p.add_argument("--shards", type=int, default=2)
    bench_p.add_argument("--max-batch", type=int, default=4096)
    bench_p.add_argument("--max-delay-us", type=int, default=2000)
    bench_p.add_argument("--queue-depth", type=int, default=65536)
    bench_p.add_argument("--backend", default="both",
                         choices=("both", "reference", "vectorized"),
                         help="which side(s) to run")
    bench_p.add_argument("--warmup", type=float, default=0.1,
                         help="fraction of the run excluded from "
                              "latency quantiles (cold start)")
    bench_p.add_argument("--no-telemetry-compare", action="store_true",
                         help="skip the extra telemetry-off side")
    bench_p.add_argument("--out", default="BENCH_serve.json",
                         help="report path")
    bench_p.add_argument("--fleet", action="store_true",
                         help="also run the multi-process fleet "
                              "scenarios (schema-3 `fleet` section)")
    bench_p.add_argument("--fleet-workers", type=int, default=4,
                         help="worker processes in the fleet section")
    bench_p.add_argument("--fleet-seconds", type=float, default=None,
                         help="wall-clock budget of the fleet section "
                              "(default: --seconds)")
    bench_p.add_argument("--fleet-only", action="store_true",
                         help="run only the fleet section (sides are "
                              "skipped; implies --fleet)")
    bench_p.add_argument("--fleet-metrics", default=None,
                         help="export fleet metrics.jsonl time series "
                              "to this path during the fleet run")
    bench_p.add_argument("--fleet-spec", default="hmp.gshare",
                         help="PredictorSpec kind for the fleet "
                              "scenarios (compact state recommended; "
                              "see repro.serve.bench.run_fleet_bench)")
    bench_p.add_argument("--hottrace", action="store_true",
                         help="also run the hot-trace replay on/off "
                              "profiles (schema-4 `hottrace` section)")
    bench_p.add_argument("--hottrace-workers", type=int, default=2,
                         help="worker processes per hottrace arm")
    bench_p.add_argument("--hottrace-seconds", type=float, default=None,
                         help="wall-clock budget of the hottrace "
                              "section (default: --seconds)")
    bench_p.add_argument("--hottrace-only", action="store_true",
                         help="run only the hottrace section (sides "
                              "are skipped)")

    top_p = sub.add_parser("top", help="live metrics dashboard")
    top_p.add_argument("--metrics-dir", default=None,
                       help="directory a serve --metrics-dir writes to")
    top_p.add_argument("--path", default=None,
                       help="explicit metrics.jsonl path (overrides "
                            "--metrics-dir)")
    top_p.add_argument("--interval", type=float, default=1.0,
                       help="refresh period (seconds)")
    top_p.add_argument("--once", action="store_true",
                       help="render a single frame and exit")

    args = parser.parse_args(argv)
    if args.command == "serve":
        # Usage-error contract (docs/robustness.md): malformed JSON or
        # bad field values exit 2 with a clean error line, they never
        # reach the service as a traceback.
        from repro.api import ExecutionPolicy
        try:
            args.parsed_policy = (ExecutionPolicy.from_json(args.policy)
                                  if args.policy else ExecutionPolicy())
        except ValueError as exc:
            parser.error(f"--policy: {exc}")
        return asyncio.run(_run_serve(args))
    if args.command == "top":
        from repro.serve.top import run_top
        path = args.path or os.path.join(args.metrics_dir or ".",
                                         "metrics.jsonl")
        return run_top(path, interval_s=args.interval, once=args.once)

    if args.fleet_only or args.hottrace_only:
        from repro.obs.provenance import collect_provenance
        from repro.serve.bench import BENCH_SCHEMA
        import time as _time
        report = {"bench": "repro.serve", "schema": BENCH_SCHEMA,
                  "generated_unix": int(_time.time()),
                  "provenance": collect_provenance(), "sides": {}}
    else:
        report = run_bench(
            seconds=args.seconds, clients=args.clients,
            window=args.window, spec_kind=args.spec,
            n_shards=args.shards, max_batch=args.max_batch,
            max_delay_us=args.max_delay_us,
            queue_depth=args.queue_depth, sides=args.backend,
            warmup_frac=args.warmup,
            telemetry_compare=not args.no_telemetry_compare)
    if args.fleet or args.fleet_only:
        from repro.serve.bench import run_fleet_bench
        fleet_params = ((("history", 7),)
                        if args.fleet_spec == "hmp.gshare" else ())
        report["fleet"] = run_fleet_bench(
            workers=args.fleet_workers,
            seconds=(args.fleet_seconds if args.fleet_seconds is not None
                     else args.seconds),
            clients=args.clients, spec_kind=args.fleet_spec,
            spec_params=fleet_params,
            n_shards=args.shards, max_batch=args.max_batch,
            max_delay_us=args.max_delay_us,
            metrics_jsonl=args.fleet_metrics)
    if args.hottrace or args.hottrace_only:
        from repro.serve.bench import run_hottrace_bench
        report["hottrace"] = run_hottrace_bench(
            workers=args.hottrace_workers,
            seconds=(args.hottrace_seconds
                     if args.hottrace_seconds is not None
                     else args.seconds),
            clients=args.clients, n_shards=args.shards)
    path = write_report(report, args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

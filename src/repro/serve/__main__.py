"""CLI for the prediction service.

``python -m repro.serve serve``  — run the JSONL service over TCP
(default) or stdio.  With ``--workers N`` (N > 1) the listener fronts
a multi-process :class:`~repro.serve.fleet.ServeFleet` instead of a
single in-process service.  With ``--metrics-dir DIR`` a background
:class:`~repro.obs.timeseries.TimeSeriesExporter` samples the live
metrics registry into ``DIR/metrics.jsonl`` (one JSON object per
sample) and ``DIR/metrics.prom`` (Prometheus text exposition).

``python -m repro.serve top``    — live terminal dashboard over the
exported metrics stream (rps, queue depth, batch-size distribution,
per-stage latency); run it next to a ``serve --metrics-dir`` process.

The serve tier's performance is measured end to end by the declared
benchmark, ``benchmarks/e2e`` (workloads ``serve_phased`` and
``fleet_steps``), not from this CLI.
"""

from __future__ import annotations

import argparse
import os
import sys

import asyncio

from repro.serve.config import ServeConfig
from repro.serve.service import PredictionService


def _add_config_flags(parser: "argparse.ArgumentParser") -> None:
    parser.add_argument("--shards", type=int, default=4,
                        help="single-writer shards "
                             "(unused when --workers > 1)")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="micro-batch flush size "
                             "(unused when --workers > 1)")
    parser.add_argument("--max-delay-us", type=int, default=500,
                        help="micro-batch flush deadline in µs "
                             "(unused when --workers > 1)")
    parser.add_argument("--queue-depth", type=int, default=8192,
                        help="per-shard queue bound "
                             "(unused when --workers > 1)")


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
                             "\"check_invariants\": \"on\"}' "
                             "(default: the process default chain)")
    serve_p.add_argument("--no-telemetry", action="store_true",
                        help="disable per-request span tracing")
    serve_p.add_argument("--trace-sample-shift", type=int, default=6,
                        help="trace 1 request in 2**N (0 = all; "
                             "unused when --workers > 1)")
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
    from repro.serve.top import run_top
    path = args.path or os.path.join(args.metrics_dir or ".",
                                     "metrics.jsonl")
    return run_top(path, interval_s=args.interval, once=args.once)


if __name__ == "__main__":
    sys.exit(main())

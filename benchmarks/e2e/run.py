"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload fig7_engine --seed 0 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Lines before it list the same metrics for people.

Exit status: 0 when every output checked out, 1 when an operation
failed or returned a wrong result, 2 on a usage error or when the
checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def parse_args(argv):
    from benchmarks.e2e import WORKLOADS
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="Run one end-to-end benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the canonical traces")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap each layer and report per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink trace lengths and session counts "
                             "(smoke tests use 0.05)")
    parser.add_argument("--out", default=None,
                        help="also write the full report here (and the "
                             "spans of a traced run to <out>.spans.jsonl)")
    parser.add_argument("--expected", default=None,
                        help="reference result hashes of the engine grids "
                             "(default: expected_seed0.json beside this file)")
    parser.add_argument("--src", default=None,
                        help="source tree to measure (default: <root>/src)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def main(argv=None) -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    from benchmarks.e2e import END_TO_END, PER_LAYER, engine, measure, serve
    measure.scrub_environment()
    tracer = measure.Tracer() if args.trace else None
    started = time.perf_counter()
    if args.workload in engine.GRIDS:
        expected = args.expected or str(Path(__file__).with_name(
            "expected_seed0.json"))
        report = engine.run(args.workload, args.seed, args.seconds,
                            args.scale, tracer, expected)
    else:
        report = serve.run(args.workload, args.seed, args.seconds,
                           args.scale, tracer,
                           str(Path(__file__).parent / ".out" / "state"))
    report["info"]["wall_s"] = time.perf_counter() - started

    declared = PER_LAYER if args.trace else END_TO_END
    source = report["layers"] if args.trace else report["metrics"]
    metrics = {name: {"value": source.get(name, 0), "unit": spec[0]}
               for name, *spec in declared}
    result = {"correct": report["failed"] == 0,
              "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}

    if args.out:
        full = dict(report, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, scale=args.scale,
                    traced=bool(args.trace), result=result)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(full, handle, indent=1, sort_keys=True)
            handle.write("\n")
        if tracer is not None:
            tracer.write_spans(args.out + ".spans.jsonl")
    for error in report["errors"]:
        print(f"error: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:15s} {name:30s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

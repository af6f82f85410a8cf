"""Command-line entry point: ``python -m repro.experiments <figure>``.

Examples::

    python -m repro.experiments fig7
    python -m repro.experiments all --uops 50000 --traces-per-group 3
    python -m repro.experiments fig9 --json fig9.json
    python -m repro.experiments classification --workers 4 \\
        --cache-dir .exp-cache --json a.json

Figures accept either the paper's figure ids (``fig5``..``fig12``,
``ext-*``) or the experiment-module aliases (``classification`` =
fig5+fig6, ``hitmiss_speedup`` = fig11, ...).  ``--workers N`` shards
the experiment grid over a process pool; ``--cache-dir`` adds a
content-addressed on-disk result cache so repeated runs replay instead
of re-simulating (see docs/parallel.md).  Both are output-invariant:
the ``--json`` payload is byte-identical across serial, parallel and
cached runs.

Worker deaths rebuild the pool and then fall back to serial execution
— see docs/robustness.md.  A job that raises is not retried (jobs are
pure, so it would raise again): its figure is recorded and skipped
(or, with ``--fail-fast``, aborts the remaining figures); either way
every completed figure's data is still written to ``--json`` and the
run manifest gains a ``healing`` section describing the degradation.
``--chaos SPEC`` injects deterministic worker kills and cache
corruption for testing the above.

Exit codes
----------

==  ============================================================
0   every requested figure completed
2   usage error (bad figure, trace name, or flag value)
3   degraded: at least one job/figure ultimately failed; partial
    ``--json`` / manifest artifacts were still written
==  ============================================================
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.experiments import EXPERIMENTS
from repro.experiments.harness import ExperimentSettings
from repro.experiments import (
    bank_metric,
    classification,
    cht_accuracy,
    extensions,
    hitmiss_speedup,
    hitmiss_stats,
    machine_sweep,
    ordering_speedup,
)
from repro.parallel import ExecutionPlan, JobFailure, RunReport, execution
from repro.robust.faults import corrupt_cache, parse_chaos_spec

#: Exit status when the run completed but lost at least one job/figure.
EXIT_DEGRADED = 3

RENDERERS: Dict[str, Callable] = {
    "fig5": classification.render_fig5,
    "fig6": classification.render_fig6,
    "fig7": ordering_speedup.render_fig7,
    "fig8": machine_sweep.render_fig8,
    "fig9": cht_accuracy.render_fig9,
    "fig10": hitmiss_stats.render_fig10,
    "fig11": hitmiss_speedup.render_fig11,
    "fig12": bank_metric.render_fig12,
    "ext-penalty": extensions.render_penalty_sweep,
    "ext-prior-art": extensions.render_prior_art,
    "ext-smt": extensions.render_smt,
    "ext-bank-perf": extensions.render_bank_perf,
    "ext-prefetch": extensions.render_prefetch,
}

#: Module-name aliases: one experiment module = one or more figures.
ALIASES: Dict[str, Tuple[str, ...]] = {
    "classification": ("fig5", "fig6"),
    "ordering_speedup": ("fig7",),
    "machine_sweep": ("fig8",),
    "cht_accuracy": ("fig9",),
    "hitmiss_stats": ("fig10",),
    "hitmiss_speedup": ("fig11",),
    "bank_metric": ("fig12",),
    "extensions": ("ext-bank-perf", "ext-penalty", "ext-prefetch",
                   "ext-prior-art", "ext-smt"),
}


def _expand_figures(selector: str) -> List[str]:
    if selector == "all":
        # Paper figures first, extension studies after.
        figures = sorted(n for n in EXPERIMENTS if n.startswith("fig"))
        figures += sorted(n for n in EXPERIMENTS if n.startswith("ext"))
        return figures
    if selector in ALIASES:
        return list(ALIASES[selector])
    return [selector]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures.")
    parser.add_argument("figure",
                        choices=sorted(EXPERIMENTS) + sorted(ALIASES)
                        + ["all"],
                        help="which figure (or experiment module) to "
                             "regenerate")
    parser.add_argument("--uops", type=int, default=30_000,
                        help="dynamic uops per trace (default 30000)")
    parser.add_argument("--traces-per-group", type=int, default=2,
                        help="traces per group; 0 = the full roster")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="shard the experiment grid over N worker "
                             "processes (0/1 = serial)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed on-disk result/trace "
                             "cache; repeated runs replay cached "
                             "simulations instead of recomputing them")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir (neither read nor "
                             "write cache entries)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first figure whose jobs "
                             "fail instead of continuing with the "
                             "remaining figures")
    parser.add_argument("--chaos", metavar="SPEC", default=None,
                        help="inject deterministic faults, e.g. "
                             "'worker-kill,cache-corrupt' or "
                             "'worker-kill=0.5,kind=classification' "
                             "(see docs/robustness.md for the grammar)")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        metavar="SEED",
                        help="seed for the --chaos fault plan "
                             "(default 0)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the raw result data as JSON "
                             "(a dict keyed by figure name)")
    parser.add_argument("--obs-dir", metavar="DIR", default=None,
                        help="write observability artifacts (run "
                             "manifest with per-figure perf_counter "
                             "timings, per-job records and worker "
                             "timing breakdowns, plus the raw data) "
                             "into DIR")
    args = parser.parse_args(argv)
    if args.uops < 1:
        parser.error(f"--uops must be >= 1, got {args.uops}")
    if args.traces_per_group < 0:
        parser.error("--traces-per-group must be >= 0, "
                     f"got {args.traces_per_group}")
    fault_plan = None
    if args.chaos:
        try:
            fault_plan = parse_chaos_spec(args.chaos,
                                          seed=args.chaos_seed)
        except ValueError as exc:
            parser.error(f"--chaos: {exc}")

    settings = ExperimentSettings(
        n_uops=args.uops,
        traces_per_group=(None if args.traces_per_group == 0
                          else args.traces_per_group))
    plan = ExecutionPlan(workers=args.workers, cache_dir=args.cache_dir,
                         use_cache=not args.no_cache,
                         fault_plan=fault_plan)
    if (fault_plan is not None and fault_plan.corrupt_cache_fraction
            and plan.effective_cache_dir
            and os.path.isdir(plan.effective_cache_dir)):
        hit = corrupt_cache(plan.effective_cache_dir,
                            fraction=fault_plan.corrupt_cache_fraction,
                            seed=fault_plan.seed)
        print(f"[chaos: corrupted {len(hit)} cache entries in "
              f"{plan.effective_cache_dir}]")

    figures = _expand_figures(args.figure)
    collected: Dict[str, object] = {}
    timings: Dict[str, float] = {}
    report = RunReport(workers=plan.workers,
                       cache_dir=plan.effective_cache_dir)
    wall_start = time.perf_counter()
    for figure in figures:
        # perf_counter, not time.time: monotonic and immune to
        # wall-clock adjustments (NTP slew would skew the timings).
        start = time.perf_counter()
        failure = None
        try:
            with execution(plan) as fig_report:
                data = EXPERIMENTS[figure](settings)
        except JobFailure as exc:
            failure = exc
        elapsed = time.perf_counter() - start
        fig_report.tag(figure)
        report.extend(fig_report)
        timings[figure] = elapsed
        if failure is not None:
            # The figure is lost but the run keeps going: record the
            # failure, surface it, and move on (unless --fail-fast).
            report.failures.append({
                "figure": figure,
                "kind": failure.job.kind,
                "key": list(failure.job.key),
                "attempts": failure.attempts,
                "error": failure.detail,
            })
            collected[figure] = {"error": str(failure)}
            print(f"error: {figure}: job {failure.job.describe()} "
                  f"failed after {failure.attempts} attempt(s)",
                  file=sys.stderr)
            if args.fail_fast:
                print("[--fail-fast: skipping remaining figures]",
                      file=sys.stderr)
                break
            continue
        collected[figure] = data
        print(RENDERERS[figure](data))
        print(f"[{figure} done in {elapsed:.1f}s]")
        print()
    total_wall = time.perf_counter() - wall_start
    if plan.effective_cache_dir:
        print(f"[cache: {report.n_cache_hits}/{report.n_jobs} job hits "
              f"({report.cache_hit_rate:.0%}) in "
              f"{plan.effective_cache_dir}]")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=2, default=str)
        print(f"wrote raw data to {args.json}")
    if args.obs_dir:
        _write_obs_artifacts(args.obs_dir, figures, timings, collected,
                             settings, report, total_wall)
    if plan.effective_cache_dir:
        # Always leave a run manifest next to the cache, so warm-vs-cold
        # wall clock and hit rates are recorded even without --obs-dir.
        manifest = _build_manifest(figures, timings, settings, report,
                                   total_wall)
        manifest.write(os.path.join(plan.effective_cache_dir,
                                    "last_run_manifest.json"))
    if report.degraded:
        n = len(report.failures)
        print(f"error: run degraded: {n} failure(s); partial results "
              "were written (see the manifest's 'healing' section)",
              file=sys.stderr)
        return EXIT_DEGRADED
    return 0


def _build_manifest(figures, timings: Dict[str, float],
                    settings: ExperimentSettings, report: RunReport,
                    total_wall: float):
    """The run manifest: config, timings, and the parallel/cache story."""
    from repro.obs.registry import MetricsRegistry
    from repro.obs.sinks import RunManifest, git_revision

    registry = MetricsRegistry("experiments")
    registry.set("parallel.workers", report.workers)
    registry.set("parallel.jobs", report.n_jobs)
    registry.set("parallel.cache_hits", report.n_cache_hits)
    registry.set("parallel.cache_hit_rate", report.cache_hit_rate)
    registry.set("parallel.sim_seconds", report.sim_seconds)
    registry.set("parallel.wall_seconds", total_wall)
    registry.set("healing.degraded", int(report.degraded))
    registry.set("healing.pool_rebuilds", report.pool_rebuilds)
    registry.set("healing.serial_fallbacks", report.serial_fallbacks)
    registry.set("healing.failures", len(report.failures))
    for worker, stats in report.worker_breakdown().items():
        registry.ingest(f"workers.{worker}", stats)

    return RunManifest(
        name="experiments:" + ",".join(figures),
        config={"n_uops": settings.n_uops,
                "traces_per_group": settings.traces_per_group,
                "workers": report.workers,
                "cache_dir": report.cache_dir},
        git_rev=git_revision(),
        n_uops=settings.n_uops,
        wall_seconds=total_wall,
        phases=dict(timings),
        metrics=registry.snapshot(),
        extra={"figures": list(figures),
               "healing": report.healing_summary(),
               "parallel": {
                   "workers": report.workers,
                   "cache_dir": report.cache_dir,
                   "n_jobs": report.n_jobs,
                   "n_cache_hits": report.n_cache_hits,
                   "cache_hit_rate": report.cache_hit_rate,
                   "sim_seconds": report.sim_seconds,
                   "worker_breakdown": report.worker_breakdown(),
               }},
    )


def _write_obs_artifacts(obs_dir: str, figures, timings: Dict[str, float],
                         collected: Dict[str, object],
                         settings: ExperimentSettings,
                         report: RunReport, total_wall: float) -> None:
    """Emit run manifest + per-job records + raw data for this run."""
    os.makedirs(obs_dir, exist_ok=True)
    manifest = _build_manifest(figures, timings, settings, report,
                               total_wall)
    manifest.write(os.path.join(obs_dir, "manifest.json"))
    with open(os.path.join(obs_dir, "jobs.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, default=str)
    with open(os.path.join(obs_dir, "data.json"), "w",
              encoding="utf-8") as handle:
        json.dump(collected, handle, indent=2, default=str)
    print(f"wrote observability artifacts to {obs_dir}/ "
          "(manifest.json, jobs.json, data.json)")


if __name__ == "__main__":
    sys.exit(main())

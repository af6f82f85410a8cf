"""End-to-end benchmark of the simulator engine and the serve tier.

Four workloads, each run in its own process by ``run.py`` (the one-
workload entry point) or in sequence by ``python -m benchmarks.e2e``:

``fig7_engine``     the Figure 7 ordering grid on the vectorized kernel;
``fig11_observed``  the Figure 11 hit-miss grid with stall/occupancy
                    collection on (today that forces the scalar loop);
``serve_phased``    an in-process ``PredictionService`` answering
                    recurring 256-step ``replay`` windows;
``fleet_steps``     a two-worker ``ServeFleet`` answering single steps.

Every metric a workload reports is declared here with its unit;
``BENCHMARK.json`` at the repository root repeats the declarations and
the self-test (``test_e2e.py``) keeps the two in step.  README.md has
the definitions and the map from per-layer to end-to-end metrics.
"""

WORKLOADS = ("fig7_engine", "fig11_observed", "serve_phased", "fleet_steps")

ENGINE_WORKLOADS = WORKLOADS[:2]
SERVE_WORKLOADS = WORKLOADS[2:]

#: (name, unit, better) — measured with tracing off.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit) — measured by a separate traced run.  A workload that
#: never enters a layer reports 0 for it.
PER_LAYER = (
    ("trace.build_s", "s"),
    ("fastpath.lanes_s", "s"),
    ("engine.run_s", "s"),
    ("engine.self_s", "s"),
    ("engine.degraded_runs", "count"),
    ("memory.calls", "count"),
    ("memory.self_s", "s"),
    ("hitmiss.calls", "count"),
    ("hitmiss.self_s", "s"),
    ("cht.calls", "count"),
    ("cht.self_s", "s"),
    ("sim.cycles", "count"),
    ("sim.squashed_issues", "count"),
    ("sim.l1_miss_rate", "ratio"),
    ("sim.hmp_accuracy", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.batch_us_p50", "us"),
    ("serve.kernel_us_p50", "us"),
    ("serve.kernel_us_p99", "us"),
    ("serve.predict_us_p50", "us"),
    ("serve.kernel_batch_frac", "ratio"),
    ("serve.mean_batch", "count"),
    ("serve.cpu_us_per_step", "us"),
    ("serve.window_repeat_frac", "ratio"),
    ("fleet.submit_us_p50", "us"),
    ("fleet.wal_appends", "count"),
    ("fleet.wal_append_us_p50", "us"),
    ("fleet.snapshots", "count"),
    ("fleet.snapshot_s", "s"),
    ("fleet.router_cpu_us_per_req", "us"),
    ("fleet.worker_cpu_us_per_req", "us"),
    ("fleet.worker_mean_batch", "count"),
    ("fleet.worker_kernel_batch_frac", "ratio"),
    ("fleet.unattributed_us_p50", "us"),
    ("gen.late_ms_p99", "ms"),
    ("host.canary_ms", "ms"),
)

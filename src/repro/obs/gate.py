"""Perf regression gating over the bench artifacts.

``python -m repro.obs gate REPORT`` is the enforcement half of the
perf trajectory:

1. **extract** the gateable metrics from a bench report
   (``BENCH_serve.json`` or ``BENCH_throughput.json`` — recognised by
   shape, see :func:`extract_metrics`);
2. **append** one row — metrics + full provenance (git SHA, hostname,
   python/numpy versions, CPU count) — to ``BENCH_history.jsonl``, the
   append-only trajectory every future PR extends.  A row whose git
   revision, source and metrics are already recorded is not appended
   again, and a report outside the history file's repository is
   refused (:func:`history_source`);
3. **compare** against a committed baseline file with configurable
   relative tolerances and exit nonzero on any regression, which is
   what lets CI (the ``perf-gate`` job) and local runs refuse a change
   that quietly halves throughput.

Metric direction is inferred from the name: throughput-like metrics
(``*_rps``, ``*uops_per_sec``) regress by going *down*; latency-like
metrics (``*_us`` quantiles) regress by going *up*.  A baseline is just
``{"metrics": {name: value}, "tolerance": 0.5}`` — regenerate it with
``--update-baseline`` after an intentional perf change.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.obs.provenance import collect_provenance, same_machine

HISTORY_SCHEMA = 1
BASELINE_SCHEMA = 1

#: Default relative tolerance: generous, sized for smoke-length runs
#: whose numbers are noisy, but below 0.5 so a halved throughput (a
#: 2x regression) always fails; tighten per-baseline for long benches.
DEFAULT_TOLERANCE = 0.4


def metric_higher_is_better(name: str) -> bool:
    """Gate direction by metric name (module docstring).

    Latency quantiles regress *up*; so do the fleet's loss/error
    counters, whose baseline is zero — with a zero baseline the
    lower-is-better rule makes *any* lost request a violation, which
    is exactly the chaos guarantee the gate exists to hold.
    """
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_us") or leaf.startswith(("p50", "p90", "p99")):
        return False
    if leaf in ("lost", "errors", "abort_mismatch"):
        return False
    return True


# --------------------------------------------------------------------------
# Metric extraction from the two bench report shapes
# --------------------------------------------------------------------------


def extract_metrics(report: Mapping[str, object]) -> Dict[str, float]:
    """Flat gateable metrics from a bench report.

    * ``repro.serve`` reports → ``serve.<side>.throughput_rps`` plus
      the per-side ``service_us.p50`` when present; schema-3 reports
      with a ``fleet`` section additionally yield
      ``fleet.speedup_vs_single_process``,
      ``fleet.aggregate_steps_rps``, ``fleet.capacity_rps`` and, per
      scenario, ``fleet.<scenario>.{achieved_rps,lost,errors}`` and
      ``fleet.<scenario>.latency_us.p99``; schema-4 reports with a
      ``hottrace`` section yield ``hottrace.{speedup,hit_rate,
      abort_mismatch}`` plus the same leaves per profile;
    * throughput reports → ``schemes.<name>.uops_per_sec``,
      ``engine.<scheme>.{reference,vectorized}_uops_per_sec`` (the
      whole-machine replay backends, docs/engine.md),
      ``fastpath.<sweep>.{reference,vectorized}_uops_per_sec``,
      ``observability.observed_uops_per_sec`` (the kernel collecting
      occupancy and the stall breakdown) and
      ``fleet_snapshot.{encode,persist,truncate}_us`` (one fleet
      worker snapshot, layer by layer; lower is better).
    """
    out: Dict[str, float] = {}
    if report.get("bench") == "repro.serve":
        for side, data in dict(report.get("sides", {})).items():
            rps = data.get("throughput_rps")
            if isinstance(rps, (int, float)):
                out[f"serve.{side}.throughput_rps"] = float(rps)
            service = data.get("service_us")
            if isinstance(service, Mapping):
                p50 = service.get("p50")
                if isinstance(p50, (int, float)):
                    out[f"serve.{side}.service_us.p50"] = float(p50)
        fleet = report.get("fleet")
        if isinstance(fleet, Mapping):
            out.update(_extract_fleet_metrics(fleet))
        hottrace = report.get("hottrace")
        if isinstance(hottrace, Mapping):
            out.update(_extract_hottrace_metrics(hottrace))
        return out
    if report.get("benchmark") == "throughput":
        for scheme, data in dict(report.get("schemes", {})).items():
            ups = data.get("uops_per_sec")
            if isinstance(ups, (int, float)):
                out[f"schemes.{scheme}.uops_per_sec"] = float(ups)
        for section in ("engine", "fastpath"):
            table = report.get(section)
            if not isinstance(table, Mapping):
                continue
            for sweep, data in table.items():
                if not isinstance(data, Mapping):
                    continue
                for key in ("reference_uops_per_sec",
                            "vectorized_uops_per_sec"):
                    value = data.get(key)
                    if isinstance(value, (int, float)):
                        out[f"{section}.{sweep}.{key}"] = float(value)
        observability = report.get("observability")
        if isinstance(observability, Mapping):
            value = observability.get("observed_uops_per_sec")
            if isinstance(value, (int, float)):
                out["observability.observed_uops_per_sec"] = float(value)
        snapshot = report.get("fleet_snapshot")
        if isinstance(snapshot, Mapping):
            for key in ("encode_us", "persist_us", "truncate_us"):
                value = snapshot.get(key)
                if isinstance(value, (int, float)):
                    out[f"fleet_snapshot.{key}"] = float(value)
        return out
    raise ValueError(
        "unrecognised bench report: expected a repro.serve report "
        "(bench='repro.serve') or a throughput report "
        "(benchmark='throughput')")


def _extract_fleet_metrics(fleet: Mapping[str, object]) -> Dict[str, float]:
    """Gateable metrics from a schema-3 ``fleet`` bench section.

    The headline is the acceptance comparison (speedup vs the
    single-process scalar service, in steps/s); each scenario
    contributes its throughput, its tail latency and its loss/error
    counters — the latter gate at a zero baseline, so a single lost
    request under chaos fails the gate.
    """
    out: Dict[str, float] = {}
    for key, name in (("speedup_vs_single_process",
                       "fleet.speedup_vs_single_process"),
                      ("aggregate_steps_rps", "fleet.aggregate_steps_rps"),
                      ("fleet_capacity_rps", "fleet.capacity_rps")):
        value = fleet.get(key)
        if isinstance(value, (int, float)):
            out[name] = float(value)
    for scenario, data in dict(fleet.get("scenarios", {})).items():
        if not isinstance(data, Mapping):
            continue
        for leaf in ("achieved_rps", "lost", "errors"):
            value = data.get(leaf)
            if isinstance(value, (int, float)):
                out[f"fleet.{scenario}.{leaf}"] = float(value)
        latency = data.get("latency_us")
        if isinstance(latency, Mapping):
            p99 = latency.get("p99")
            if isinstance(p99, (int, float)):
                out[f"fleet.{scenario}.latency_us.p99"] = float(p99)
    return out


def _extract_hottrace_metrics(hottrace: Mapping[str, object]
                              ) -> Dict[str, float]:
    """Gateable metrics from a schema-4 ``hottrace`` bench section.

    ``hottrace.speedup`` and ``hottrace.hit_rate`` hold the steady
    Zipf profile's floor (hot-trace replay must keep paying for
    itself); ``hottrace.abort_mismatch`` gates lower-is-better at a
    zero baseline — a single speculative commit that diverged from its
    shadow re-execution fails the gate outright."""
    out: Dict[str, float] = {}
    for key in ("speedup", "hit_rate", "abort_mismatch"):
        value = hottrace.get(key)
        if isinstance(value, (int, float)):
            out[f"hottrace.{key}"] = float(value)
    for profile, data in dict(hottrace.get("profiles", {})).items():
        if not isinstance(data, Mapping):
            continue
        for leaf in ("speedup", "hit_rate", "abort_mismatch"):
            value = data.get(leaf)
            if isinstance(value, (int, float)):
                out[f"hottrace.{profile}.{leaf}"] = float(value)
    return out


def report_kind(report: Mapping[str, object]) -> str:
    """``"serve"`` for a ``BENCH_serve.json`` report, else ``"throughput"``."""
    return ("serve" if report.get("bench") == "repro.serve"
            else "throughput")


# --------------------------------------------------------------------------
# History
# --------------------------------------------------------------------------


def history_row(report: Mapping[str, object],
                source: str = "") -> Dict[str, object]:
    """One append-only trajectory row for ``BENCH_history.jsonl``.

    Provenance embedded in the report (both bench CLIs record it) is
    reused so the row describes the machine that *ran* the bench, not
    the one running the gate.
    """
    provenance = report.get("provenance")
    if not isinstance(provenance, Mapping):
        provenance = collect_provenance()
    return {
        "schema": HISTORY_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "kind": report_kind(report),
        "source": source,
        "provenance": dict(provenance),
        "metrics": extract_metrics(report),
    }


def append_history(path: str, row: Mapping[str, object]) -> None:
    """Append one JSON row to the history file (created on first use)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True))
        handle.write("\n")


def history_source(history_path: str, report_path: str) -> str:
    """``report_path`` relative to the history file's directory — the
    repository root the trajectory belongs to.

    Raises :class:`ValueError` for a report outside that root: a
    scratch file such as ``/tmp/ht_only.json`` is not a reproducible
    source and must not enter the trajectory.
    """
    root = os.path.dirname(os.path.realpath(history_path))
    report = os.path.realpath(report_path)
    if os.path.commonpath([root, report]) != root:
        raise ValueError(
            f"report {report_path!r} is outside {root!r}, the history "
            f"file's repository; pass --no-append to gate it without "
            f"recording")
    return os.path.relpath(report, root)


def _row_key(row: Mapping[str, object]) -> tuple:
    provenance = row.get("provenance")
    rev = (provenance.get("git_rev") if isinstance(provenance, Mapping)
           else None)
    return (rev, row.get("source"),
            json.dumps(row.get("metrics"), sort_keys=True))


def append_history_once(path: str, row: Mapping[str, object]) -> bool:
    """Append ``row`` unless one with the same git revision, source and
    metrics is already recorded; returns whether it appended."""
    key = _row_key(row)
    if any(_row_key(old) == key for old in read_history(path)):
        return False
    append_history(path, row)
    return True


def read_history(path: str) -> List[Dict[str, object]]:
    """All history rows, oldest first; ``[]`` when the file is absent."""
    rows: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return rows
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# --------------------------------------------------------------------------
# Baseline comparison
# --------------------------------------------------------------------------


@dataclass
class Violation:
    """One gated metric outside its tolerance."""

    metric: str
    baseline: float
    measured: float
    tolerance: float
    higher_is_better: bool

    @property
    def change_frac(self) -> float:
        if self.baseline == 0:
            return 0.0
        return self.measured / self.baseline - 1.0

    def __str__(self) -> str:
        direction = "down" if self.higher_is_better else "up"
        return (f"{self.metric}: {self.measured:,.1f} vs baseline "
                f"{self.baseline:,.1f} ({self.change_frac:+.1%}, "
                f"allowed {direction} to {self.tolerance:.0%})")


def make_baseline(report: Mapping[str, object],
                  tolerance: float = DEFAULT_TOLERANCE
                  ) -> Dict[str, object]:
    """Snapshot *report*'s gateable metrics as a committable baseline."""
    return {
        "schema": BASELINE_SCHEMA,
        "kind": report_kind(report),
        "tolerance": tolerance,
        "provenance": (dict(report["provenance"])
                       if isinstance(report.get("provenance"), Mapping)
                       else collect_provenance()),
        "metrics": extract_metrics(report),
    }


def load_baseline(path: str) -> Dict[str, object]:
    """Load a committed baseline written by :func:`write_baseline`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_baseline(path: str, baseline: Mapping[str, object]) -> None:
    """Write *baseline* as sorted, indented JSON (stable for review)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare(metrics: Mapping[str, float],
            baseline: Mapping[str, object],
            tolerance: Optional[float] = None) -> List[Violation]:
    """Gate ``metrics`` against ``baseline``; returns the violations.

    ``tolerance`` overrides the baseline's own; per-metric overrides in
    ``baseline["per_metric"]`` win over both.  Metrics present on only
    one side are ignored — a new bench sweep must not fail the gate
    until its baseline row exists.
    """
    default_tol = (tolerance if tolerance is not None
                   else float(baseline.get("tolerance",
                                           DEFAULT_TOLERANCE)))
    per_metric = dict(baseline.get("per_metric", {}))
    violations: List[Violation] = []
    for name, base_value in dict(baseline.get("metrics", {})).items():
        measured = metrics.get(name)
        if measured is None or not isinstance(base_value, (int, float)):
            continue
        tol = float(per_metric.get(name, default_tol))
        higher = metric_higher_is_better(name)
        if higher:
            failed = measured < float(base_value) * (1.0 - tol)
        else:
            failed = measured > float(base_value) * (1.0 + tol)
        if failed:
            violations.append(Violation(name, float(base_value),
                                        float(measured), tol, higher))
    return violations


def machine_note(report_provenance: Optional[Mapping[str, object]],
                 baseline: Mapping[str, object]) -> Optional[str]:
    """A warning when the baseline came from a different machine."""
    base_prov = baseline.get("provenance")
    if (isinstance(report_provenance, Mapping)
            and isinstance(base_prov, Mapping)
            and not same_machine(dict(report_provenance),
                                 dict(base_prov))):
        return (f"note: baseline from "
                f"{base_prov.get('hostname')!r} "
                f"({base_prov.get('cpu_count')} cpus), this run from "
                f"{report_provenance.get('hostname')!r} "
                f"({report_provenance.get('cpu_count')} cpus) — "
                "cross-machine comparison, treat deltas with care")
    return None

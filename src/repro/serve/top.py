"""``python -m repro.serve top`` — a live text dashboard.

Reads the JSONL time-series stream that a running service exports
(``python -m repro.serve serve --metrics-dir DIR`` writes
``DIR/metrics.jsonl`` via :class:`repro.obs.timeseries.
TimeSeriesExporter`) and renders a refreshing terminal view:

* request throughput (rate of ``serve.served`` between samples);
* queue depth and rejection rate;
* the micro-batch size distribution (count / mean / p50 / p99);
* per-stage request latency quantiles from the span tracer.

The dashboard is a *reader* — it shares no process with the service
and costs it nothing.  Rendering is a pure function of two consecutive
samples (:func:`render_frame`), which is what the tests exercise;
the loop around it is just tail-the-file + ANSI clear.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.timeseries import read_timeseries

#: Stage rows shown in canonical pipeline order (present ones only).
_STAGE_ORDER = ("decode", "queue", "batch", "hottrace", "kernel",
                "predict", "reply")

#: ANSI: cursor home + clear to end of screen (not full clear — less
#: flicker than ``\x1b[2J`` on every refresh).
_CLEAR = "\x1b[H\x1b[J"


def _rate(prev: Optional[Dict[str, object]],
          curr: Dict[str, object], key: str) -> Optional[float]:
    """Per-second rate of a monotone counter between two samples.

    Sample spacing comes from the exporter's monotonic stamp (``mt``)
    so a backwards wall-clock step (NTP correction) cannot produce a
    negative or wildly inflated interval; the wall stamp ``t`` is only
    a fallback for streams recorded before ``mt`` existed.
    """
    if prev is None:
        return None
    p_mt, c_mt = prev.get("mt"), curr.get("mt")
    if p_mt is not None and c_mt is not None:
        dt = float(c_mt) - float(p_mt)
    else:
        dt = float(curr["t"]) - float(prev["t"])
    if dt <= 0:
        return None
    now = curr["metrics"].get(key)
    before = prev["metrics"].get(key)
    if now is None or before is None:
        return None
    return max(0.0, (float(now) - float(before)) / dt)


def _fmt(value: Optional[float], unit: str = "", width: int = 12) -> str:
    if value is None:
        return "-".rjust(width)
    if abs(value) >= 1000:
        text = f"{value:,.0f}{unit}"
    else:
        text = f"{value:.1f}{unit}"
    return text.rjust(width)


def _stage_rows(metrics: Dict[str, float]) -> List[Tuple[str, Dict[str, float]]]:
    """Collect ``trace.stage_us.<stage>.*`` leaves into per-stage dicts."""
    stages: Dict[str, Dict[str, float]] = {}
    for path, value in metrics.items():
        if not path.startswith("trace.stage_us."):
            continue
        rest = path[len("trace.stage_us."):]
        if "." not in rest:
            continue
        stage, leaf = rest.split(".", 1)
        stages.setdefault(stage, {})[leaf] = value
    ordered = [(s, stages[s]) for s in _STAGE_ORDER if s in stages]
    ordered.extend(sorted(
        (s, d) for s, d in stages.items() if s not in _STAGE_ORDER))
    return ordered


def _worker_rows(metrics: Dict[str, float]) -> List[Tuple[str, Dict[str, float]]]:
    """Collect ``fleet.workers.<index>.*`` leaves into per-worker
    dicts, ordered by worker index."""
    workers: Dict[str, Dict[str, float]] = {}
    for path, value in metrics.items():
        if not path.startswith("fleet.workers."):
            continue
        rest = path[len("fleet.workers."):]
        if "." not in rest:
            continue
        index, leaf = rest.split(".", 1)
        workers.setdefault(index, {})[leaf] = value
    def _order(item: Tuple[str, Dict[str, float]]):
        index = item[0]
        return (0, int(index)) if index.isdigit() else (1, index)
    return sorted(workers.items(), key=_order)


def render_frame(prev: Optional[Dict[str, object]],
                 curr: Dict[str, object]) -> str:
    """Render one dashboard frame from two consecutive samples.

    ``prev`` may be ``None`` (first frame: rates show ``-``).  Pure —
    no I/O, no clock — so it is directly unit-testable.  Single-process
    streams render the ``serve.*`` view; fleet streams additionally get
    the per-worker table from the ``fleet.workers.*`` tree.
    """
    metrics = curr["metrics"]
    lines: List[str] = []
    stamp = time.strftime("%H:%M:%S", time.localtime(float(curr["t"])))
    lines.append(f"repro.serve top    sample @ {stamp}")
    lines.append("")
    lines.append("  throughput  "
                 + _fmt(_rate(prev, curr, "serve.served"), " rps"))
    lines.append("  rejects     "
                 + _fmt(_rate(prev, curr, "serve.rejected"), " /s"))
    lines.append("  queue depth "
                 + _fmt(metrics.get("serve.queue_depth")))
    lines.append("  sessions    "
                 + _fmt(metrics.get("serve.sessions")))
    lines.append("  served total"
                 + _fmt(metrics.get("serve.served")))
    batch = {leaf: metrics[f"serve.batch_size.{leaf}"]
             for leaf in ("count", "mean", "p50", "p99")
             if f"serve.batch_size.{leaf}" in metrics}
    if batch:
        lines.append("")
        lines.append("  batch size   count"
                     + _fmt(batch.get("count"), "", 10)
                     + "   mean" + _fmt(batch.get("mean"), "", 8)
                     + "   p50" + _fmt(batch.get("p50"), "", 8)
                     + "   p99" + _fmt(batch.get("p99"), "", 8))
    # Speculation + degrade health (single-process serve.* stream or
    # the fleet.* aggregate, whichever is present).
    prefix = ("serve.hottrace" if "serve.hottrace.windows" in metrics
              else "fleet.hottrace")
    windows_rate = _rate(prev, curr, f"{prefix}.windows")
    hits_rate = _rate(prev, curr, f"{prefix}.hits")
    hit_pct = (100.0 * hits_rate / windows_rate
               if hits_rate is not None and windows_rate else None)
    lines.append("")
    lines.append(
        "  hottrace      hits" + _fmt(hits_rate, "/s", 10)
        + "   hit%" + _fmt(hit_pct, "", 8)
        + "   aborts" + _fmt(metrics.get(f"{prefix}.aborts"), "", 8)
        + "   mismatch"
        + _fmt(metrics.get(f"{prefix}.abort_mismatch"), "", 4)
        + "   saved"
        + _fmt(_rate(prev, curr, f"{prefix}.steps_saved"), "/s"))
    degraded = metrics.get("serve.degraded",
                           metrics.get("fleet.degraded"))
    if degraded:
        # Only shown when nonzero: a vectorized policy that is
        # silently running scalar should be loud, not a log line.
        lines.append("")
        lines.append("  DEGRADED batches (backend fell back to scalar)"
                     + _fmt(degraded, "", 8))
    stages = _stage_rows(metrics)
    if stages:
        lines.append("")
        lines.append("  stage         count        mean         p50"
                     "         p99")
        for stage, leaves in stages:
            lines.append(
                f"  {stage:<10}"
                + _fmt(leaves.get("count"), "", 8)
                + _fmt(leaves.get("mean"), "us")
                + _fmt(leaves.get("p50"), "us")
                + _fmt(leaves.get("p99"), "us"))
    if "fleet.workers" in metrics or any(
            k.startswith("fleet.") for k in metrics):
        lines.append("")
        lines.append(
            "  fleet        workers"
            + _fmt(metrics.get("fleet.workers_alive"), "", 6)
            + "/" + str(int(metrics.get("fleet.workers", 0)))
            + "   deaths" + _fmt(metrics.get("fleet.worker_deaths"), "", 4)
            + "   rebalances"
            + _fmt(metrics.get("fleet.rebalances"), "", 4)
            + "   moved"
            + _fmt(metrics.get("fleet.sessions_moved"), "", 8))
        workers = _worker_rows(metrics)
        if workers:
            lines.append("  worker   alive         rps  outstanding"
                         "     sessions          wal       deaths")
            for index, leaves in workers:
                alive = leaves.get("alive")
                lines.append(
                    f"  w{index:<6} "
                    + ("  up " if alive else " DOWN").rjust(6)
                    + _fmt(_rate(prev, curr,
                                 f"fleet.workers.{index}.served"))
                    + _fmt(leaves.get("outstanding"))
                    + _fmt(leaves.get("sessions"))
                    + _fmt(leaves.get("wal_records"))
                    + _fmt(leaves.get("deaths")))
    lines.append("")
    return "\n".join(lines)


def run_top(path: str, interval_s: float = 1.0, once: bool = False,
            out=None, clear: bool = True) -> int:
    """Tail *path* (a metrics JSONL stream) and render frames.

    ``once`` renders a single frame from the file's current tail and
    returns — used by tests and for scripting.  Returns nonzero when
    the file does not exist yet (and ``once`` is set).
    """
    import sys
    out = out if out is not None else sys.stdout

    def _tail() -> List[Dict[str, object]]:
        if not os.path.exists(path):
            return []
        return read_timeseries(path)[-2:]

    if once:
        samples = _tail()
        if not samples:
            print(f"no samples at {path}", file=sys.stderr)
            return 1
        prev = samples[0] if len(samples) == 2 else None
        out.write(render_frame(prev, samples[-1]) + "\n")
        return 0

    last_t: Optional[float] = None
    try:
        while True:
            samples = _tail()
            if samples:
                curr = samples[-1]
                if last_t != curr["t"]:
                    last_t = curr["t"]
                    prev = samples[0] if len(samples) == 2 else None
                    frame = render_frame(prev, curr)
                    out.write((_CLEAR if clear else "") + frame + "\n")
                    out.flush()
            time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return 0

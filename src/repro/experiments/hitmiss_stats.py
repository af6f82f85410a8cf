"""Figure 10: hit-miss predictor statistical accuracy.

For each trace group (SpecFP95, SpecInt95, SysmarkNT, Others) the paper
reports — as fractions of all loads — the actual miss rate (MISSES),
the misses the predictor catches (AM-PM), and the hits it mispredicts
as misses (AH-PM), for the local-only predictor and for the hybrid
chooser.  Headlines: the local predictor catches 34-85 % of misses at
0.07-0.32 % false-miss cost; the chooser cuts the false misses several
fold "while sacrificing little in the AM-PM rate"; AM-PM outweighs
AH-PM by at least 5:1.

Methodology matches the paper's "statistical simulations (no effect on
scheduling)": one engine pass records the (pc, hit) outcome stream;
each predictor replays it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.api import ExecutionPolicy, PredictorSpec, build_predictor, shadow_check, spec_for
from repro.engine.machine import Machine
from repro.experiments.harness import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    format_table,
    get_trace,
    group_traces,
)
from repro.hitmiss.base import HitMissPredictor, HitMissStats
from repro.hitmiss.oracle import AlwaysHitHMP
from repro.parallel import SimJob, run_jobs, sim_job


@dataclass(frozen=True)
class HitMissEvent:
    """One dynamic load's L1 outcome, in execution order."""

    pc: int
    line: int
    now: int
    hit: bool


class _RecordingHMP(AlwaysHitHMP):
    """Baseline predictor that records the resolved outcome stream."""

    def __init__(self) -> None:
        self.events: List[HitMissEvent] = []

    def update(self, pc, hit, line=None, now=0):  # type: ignore[override]
        self.events.append(HitMissEvent(pc=pc, line=line or 0, now=now,
                                        hit=hit))


@lru_cache(maxsize=64)
def _hitmiss_events(name: str, n_uops: int) -> Tuple[HitMissEvent, ...]:
    trace = get_trace(name, n_uops)
    recorder = _RecordingHMP()
    Machine(hmp=recorder).run(trace)
    return tuple(recorder.events)


def hitmiss_events(names: Sequence[str],
                   settings: ExperimentSettings = DEFAULT_SETTINGS
                   ) -> List[Tuple[str, Tuple[HitMissEvent, ...]]]:
    """The recorded per-trace (pc, line, hit) outcome streams."""
    return [(n, _hitmiss_events(n, settings.n_uops)) for n in names]


def replay(events: Sequence[HitMissEvent], hmp: HitMissPredictor,
           warm: bool = False,
           policy: ExecutionPolicy | None = None) -> HitMissStats:
    """Replay an outcome stream through a predictor (predict → train).

    ``warm=True`` trains on one full pass first and measures the
    second, emulating the steady state the paper's 30M-instruction
    traces reach (cold-start mispredictions amortised away).

    When ``policy`` (default: ``ExecutionPolicy()``) resolves to the
    vectorized backend, a predictor with a kernel replays through the
    batch kernels of :mod:`repro.fastpath` — by contract bit-identical
    to :func:`scalar_lane`, and shadow-checked against it (lane and
    state, :func:`repro.api.shadow_check`) when the policy arms it.
    """
    policy = policy or ExecutionPolicy()
    if policy.resolved_backend() == "vectorized":
        from repro.fastpath import hitmiss as fp_hitmiss
        if fp_hitmiss.supports(hmp):
            from repro.common.types import HitMissClass
            pcs, hits = fp_hitmiss.event_arrays(events)
            if policy.invariants_active():
                predicted = shadow_check(
                    hmp, lambda p: _kernel_lane(p, pcs, hits, warm),
                    lambda p: scalar_lane(events, p, warm),
                    f"Figure 10 {type(hmp).__name__} replay")
            else:
                predicted = _kernel_lane(hmp, pcs, hits, warm)
            stats = HitMissStats()
            stats.counts[HitMissClass.AH_PH] = int((hits & predicted).sum())
            stats.counts[HitMissClass.AH_PM] = int((hits & ~predicted).sum())
            stats.counts[HitMissClass.AM_PH] = int((~hits & predicted).sum())
            stats.counts[HitMissClass.AM_PM] = int((~hits & ~predicted).sum())
            return stats
    stats = HitMissStats()
    for event, predicted_hit in zip(events, scalar_lane(events, hmp, warm)):
        stats.record(event.hit, predicted_hit)
    return stats


def scalar_lane(events: Sequence[HitMissEvent], hmp: HitMissPredictor,
                warm: bool = False) -> List[bool]:
    """The reference replay: each event's predicted-hit bit (after a
    discarded training pass when ``warm``)."""
    if warm:
        for event in events:
            hmp.update(event.pc, event.hit, event.line, event.now)
    lane = []
    for event in events:
        lane.append(hmp.predict_hit(event.pc, event.line, event.now))
        hmp.update(event.pc, event.hit, event.line, event.now)
    return lane


def _kernel_lane(hmp: HitMissPredictor, pcs, hits, warm: bool):
    """The fastpath replay: :func:`scalar_lane` on the batch kernel."""
    from repro.fastpath.hitmiss import replay_hits
    if warm:  # predictions are pure, so a discarded replay trains
        replay_hits(hmp, pcs, hits)
    return replay_hits(hmp, pcs, hits)


#: Figure 10's grouping ("Others" = Games + Java + TPC).
FIG10_GROUPS: Dict[str, Tuple[str, ...]] = {
    "SpecFP": ("SpecFP95",),
    "SpecINT": ("SpecInt95",),
    "SysmarkNT": ("SysmarkNT",),
    "Others": ("Games", "Java", "TPC"),
}

#: (label, spec) — Figure 10's two contenders, as
#: :class:`~repro.api.spec.PredictorSpec` values built through
#: :func:`repro.api.build_predictor`.
PREDICTORS: Tuple[Tuple[str, PredictorSpec], ...] = (
    ("local", spec_for("hmp.local", size=2048, history=8)),
    ("chooser", spec_for("hmp.hybrid")),
)


@sim_job("hitmiss-accuracy")
def _hitmiss_trace_leaf(name: str, n_uops: int,
                        warm: bool) -> Dict[str, HitMissStats]:
    """One trace: record the outcome stream, replay every predictor."""
    events = _hitmiss_events(name, n_uops)
    return {pred_label: replay(events, build_predictor(spec), warm=warm)
            for pred_label, spec in PREDICTORS}


def run_fig10(settings: ExperimentSettings = DEFAULT_SETTINGS,
              warm: bool = True) -> Dict:
    """Measure the Figure 10 predictor accuracies per group."""
    grid: List[Tuple[str, str]] = []
    for group_label, group_names in FIG10_GROUPS.items():
        for g in group_names:
            for name in group_traces(g, settings):
                grid.append((group_label, name))
    jobs = [SimJob.make(_hitmiss_trace_leaf,
                        key=("hitmiss-accuracy", name),
                        name=name, n_uops=settings.n_uops, warm=warm)
            for _, name in grid]
    per_trace = run_jobs(jobs, settings)
    by_group: Dict[str, List[Dict[str, HitMissStats]]] = {}
    for (group_label, _), stats in zip(grid, per_trace):
        by_group.setdefault(group_label, []).append(stats)
    rows: List[Dict] = []
    for group_label in FIG10_GROUPS:
        for pred_label, _ in PREDICTORS:
            total = HitMissStats()
            for stats in by_group[group_label]:
                total.merge(stats[pred_label])
            rows.append({
                "group": group_label,
                "predictor": pred_label,
                "misses": total.miss_rate,
                "am_pm": total.am_pm_fraction,
                "ah_pm": total.ah_pm_fraction,
                "coverage": total.miss_coverage,
                "ratio": total.catch_to_false_ratio,
            })
    return {"figure": "fig10", "rows": rows}


def render_fig10(data: Dict) -> str:
    """Render the Figure 10 table."""
    rows = [[r["group"], r["predictor"], r["misses"], r["am_pm"],
             r["ah_pm"], r["coverage"],
             ("inf" if r["ratio"] == float("inf") else round(r["ratio"], 1))]
            for r in data["rows"]]
    return format_table(
        ["group", "predictor", "MISSES", "AM-PM", "AH-PM", "coverage",
         "AM-PM:AH-PM"],
        rows,
        title="Figure 10 — hit-miss predictor accuracy "
              "(fractions of all loads)")

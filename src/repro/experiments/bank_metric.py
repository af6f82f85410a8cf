"""Figure 12: bank predictor comparison via the section 4.3 metric.

Each predictor (A, B, C, Addr) replays the load address stream of the
SpecINT95 and SpecFP95 traces, measuring its prediction rate P and
correct:wrong ratio R; the metric ``P·(1 − 2·Penalty/R)`` is then
plotted against the misprediction penalty (0..10).  The figure's
reading: the metric at penalty 0 *is* the prediction rate, and the
slope reveals the accuracy — A/B predict ~50 % of loads at ~97-98 %,
C/Addr ~70 %, making C and the address predictor the sliced-pipe
candidates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.api import ExecutionPolicy, PredictorSpec, build_predictor, shadow_check, spec_for
from repro.bank.base import BankPredictor, BankStats
from repro.bank.metric import metric
from repro.experiments.harness import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    format_table,
    get_trace,
    group_traces,
)
from repro.parallel import SimJob, run_jobs, sim_job

PENALTIES = tuple(range(0, 11))

#: (label, spec) — Figure 12's contenders as
#: :class:`~repro.api.spec.PredictorSpec` values built through
#: :func:`repro.api.build_predictor`.
PREDICTORS: Tuple[Tuple[str, PredictorSpec], ...] = (
    ("A", spec_for("bank.a")),
    ("B", spec_for("bank.b")),
    ("C", spec_for("bank.c")),
    ("Addr", spec_for("bank.address")),
)

N_BANKS = 2
LINE_BYTES = 64


@lru_cache(maxsize=64)
def _load_stream(name: str, n_uops: int) -> Tuple[Tuple[int, int], ...]:
    """The (pc, address) stream of every load in program order."""
    trace = get_trace(name, n_uops)
    return tuple((u.pc, u.mem.address) for u in trace.loads())


def evaluate(predictor: BankPredictor,
             stream: Sequence[Tuple[int, int]],
             policy: ExecutionPolicy | None = None) -> BankStats:
    """Replay the loads through ``predictor`` (predict → train).

    When ``policy`` (default: ``ExecutionPolicy()``) resolves to the
    vectorized backend, a predictor with a kernel replays through the
    batch kernels of :mod:`repro.fastpath` — by contract bit-identical
    to :func:`scalar_lane`, and shadow-checked against it (lane and
    state, :func:`repro.api.shadow_check`) when the policy arms it.
    """
    policy = policy or ExecutionPolicy()
    stats = BankStats()
    stats.loads = len(stream)
    if policy.resolved_backend() == "vectorized":
        from repro.fastpath import bank as fp_bank
        if fp_bank.supports(predictor):
            pcs, banks = fp_bank.stream_arrays(stream, LINE_BYTES, N_BANKS)
            if policy.invariants_active():
                predicted = shadow_check(
                    predictor,
                    lambda p: fp_bank.replay_banks(p, pcs, banks),
                    lambda p: scalar_lane(stream, p),
                    "Figure 12 bank replay")
            else:
                predicted = fp_bank.replay_banks(predictor, pcs, banks)
            stats.predicted = int((predicted != -1).sum())
            stats.correct = int((predicted == banks).sum())
            return stats
    for (_, address), bank in zip(stream, scalar_lane(stream, predictor)):
        if bank != -1:
            stats.predicted += 1
            stats.correct += bank == (address // LINE_BYTES) % N_BANKS
    return stats


def scalar_lane(stream: Sequence[Tuple[int, int]],
                predictor: BankPredictor) -> List[int]:
    """The reference replay: each load's predicted bank, ``-1`` for an
    abstention."""
    lane = []
    for pc, address in stream:
        p = predictor.predict(pc)
        lane.append(p.bank if p.predicted else -1)
        predictor.update(pc, (address // LINE_BYTES) % N_BANKS, address)
    return lane


@sim_job("bank-metric")
def _bank_trace_leaf(name: str, n_uops: int) -> Dict[str, BankStats]:
    """One trace's load stream replayed through every bank predictor."""
    stream = _load_stream(name, n_uops)
    return {label: evaluate(build_predictor(spec), stream)
            for label, spec in PREDICTORS}


def run_fig12(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict:
    """Measure the Figure 12 predictor profiles and metric curves."""
    grid = [(group, name) for group in ("SpecInt95", "SpecFP95")
            for name in group_traces(group, settings)]
    jobs = [SimJob.make(_bank_trace_leaf, key=("bank-metric", name),
                        name=name, n_uops=settings.n_uops)
            for _, name in grid]
    per_trace = run_jobs(jobs, settings)
    by_group: Dict[str, List[Dict[str, BankStats]]] = {}
    for (group, _), stats in zip(grid, per_trace):
        by_group.setdefault(group, []).append(stats)
    out: Dict[str, Dict] = {}
    for group in ("SpecInt95", "SpecFP95"):
        rows: List[Dict] = []
        for label, _ in PREDICTORS:
            total = BankStats()
            for stats in by_group[group]:
                total.merge(stats[label])
            ratio = total.ratio
            curve = [metric(total.prediction_rate,
                            min(ratio, 1e9), p, approximate=True)
                     for p in PENALTIES]
            rows.append({
                "predictor": label,
                "prediction_rate": total.prediction_rate,
                "accuracy": total.accuracy,
                "ratio": ratio,
                "curve": curve,
            })
        out[group] = {"rows": rows}
    return {"figure": "fig12", "groups": out, "penalties": list(PENALTIES)}


def render_fig12(data: Dict) -> str:
    """Render the Figure 12 tables and metric line plots."""
    from repro.experiments.reporting import line_plot
    blocks: List[str] = []
    for group, payload in data["groups"].items():
        rows = []
        for r in payload["rows"]:
            rows.append([r["predictor"], r["prediction_rate"],
                         r["accuracy"],
                         ("inf" if r["ratio"] == float("inf")
                          else round(r["ratio"], 1))]
                        + [round(m, 3) for m in r["curve"][:6]])
        headers = (["predictor", "P", "accuracy", "R"]
                   + [f"pen={p}" for p in data["penalties"][:6]])
        blocks.append(format_table(
            headers, rows,
            title=f"Figure 12 — bank predictor metric ({group})"))
        series = {
            r["predictor"]: list(zip(map(float, data["penalties"]),
                                     r["curve"]))
            for r in payload["rows"]
        }
        blocks.append(line_plot(series, title=f"metric vs penalty "
                                              f"({group})",
                                x_label="misprediction penalty",
                                y_label="fraction of ideal 2x gain"))
    return "\n\n".join(blocks)

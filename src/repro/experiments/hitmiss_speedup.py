"""Figure 11: speedup of hit-miss prediction.

Performance simulations "on top of our highest performing configuration
(4 gen. / 2 mem. EUs and perfect disambiguation)": speedup over the
no-HMP (always-predict-hit) machine for the local predictor, the hybrid
chooser, the local predictor with timing information, and a perfect
predictor.  The paper's headlines: perfect ≈ 6 %, local+timing ≈ 45 %
of that potential (~2.5 %), and a positive with-timing vs. no-timing
gap.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.api import build_predictor, spec_for
from repro.common.config import BASELINE_MACHINE, MachineConfig
from repro.common.stats import geometric_mean
from repro.engine.machine import Machine
from repro.engine.ordering import make_scheme
from repro.experiments.harness import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    format_table,
    get_trace,
    group_traces,
)
from repro.hitmiss.base import HitMissPredictor
from repro.hitmiss.oracle import OracleHMP
from repro.hitmiss.timing import TimingHMP
from repro.memory.hierarchy import MemoryHierarchy
from repro.parallel import SimJob, run_jobs, sim_job

#: The paper's Figure 11 machine: 4 integer / 2 memory units.
FIG11_CONFIG = BASELINE_MACHINE.with_units(4, 2)

HMP_KINDS = ("local", "chooser", "local+timing", "perfect")


#: Spec of the table-based local predictor Figure 11 builds on.
_LOCAL_SPEC = spec_for("hmp.local", size=2048, history=8)


def _build_machine(kind: Optional[str],
                   config: MachineConfig) -> Machine:
    """A perfect-disambiguation machine with the requested HMP.

    Table-backed predictors are constructed through
    :func:`repro.api.build_predictor`; the timing wrapper and the
    oracle close over live machine state, so they stay bespoke.
    """
    hierarchy = MemoryHierarchy(config.memory)
    hmp: HitMissPredictor
    if kind is None:
        hmp = build_predictor(spec_for("hmp.always-hit"))
    elif kind == "local":
        hmp = build_predictor(_LOCAL_SPEC)
    elif kind == "chooser":
        hmp = build_predictor(spec_for("hmp.hybrid"))
    elif kind == "local+timing":
        hmp = TimingHMP(build_predictor(_LOCAL_SPEC),
                        mshr=hierarchy.mshr, serviced=hierarchy.serviced)
    elif kind == "perfect":
        hmp = OracleHMP(partial(_l1_probe, hierarchy,
                                config.memory.l1d.line_bytes))
    else:
        raise ValueError(f"unknown HMP kind {kind!r}")
    return Machine(config=config, scheme=make_scheme("perfect"),
                   hmp=hmp, hierarchy=hierarchy)


def _l1_probe(hierarchy: MemoryHierarchy, line_bytes: int, pc: int,
              line: Optional[int], now: int) -> bool:
    """The perfect HMP's probe, bound by ``partial`` (not a closure) so
    a deep copy of the machine probes its own hierarchy."""
    return hierarchy.would_hit_l1((line or 0) * line_bytes, now)


@sim_job("hmp-speedups")
def _hmp_speedups_leaf(name: str, config: MachineConfig,
                       n_uops: int) -> Dict[str, float]:
    """One trace's HMP speedups over always-hit — one job."""
    trace = get_trace(name, n_uops)
    baseline = _build_machine(None, config).run(trace)
    out: Dict[str, float] = {}
    for kind in HMP_KINDS:
        result = _build_machine(kind, config).run(trace)
        out[kind] = result.speedup_over(baseline)
    return out


def speedups_for_trace(name: str,
                       config: MachineConfig = FIG11_CONFIG,
                       settings: ExperimentSettings = DEFAULT_SETTINGS
                       ) -> Dict[str, float]:
    """HMP speedups over the always-hit baseline for one trace."""
    return _hmp_speedups_leaf(name, config, settings.n_uops)


def run_fig11(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict:
    """Measure the Figure 11 speedups per group."""
    groups = {"SpecInt95": "SpecInt95", "SysmarkNT": "SysmarkNT"}
    grid = [(label, name) for label, group in groups.items()
            for name in group_traces(group, settings)]
    jobs = [SimJob.make(_hmp_speedups_leaf, key=("hmp-speedups", name),
                        name=name, config=FIG11_CONFIG,
                        n_uops=settings.n_uops)
            for _, name in grid]
    results = run_jobs(jobs, settings)
    per_group: Dict[str, Dict[str, float]] = {}
    acc_by_label: Dict[str, Dict[str, List[float]]] = {}
    for (label, _), speedups in zip(grid, results):
        acc = acc_by_label.setdefault(label,
                                      {k: [] for k in HMP_KINDS})
        for k in HMP_KINDS:
            acc[k].append(speedups[k])
    for label in groups:
        per_group[label] = {k: geometric_mean(v)
                            for k, v in acc_by_label[label].items()}
    average = {
        k: geometric_mean([per_group[g][k] for g in per_group])
        for k in HMP_KINDS
    }
    return {"figure": "fig11", "groups": per_group, "average": average}


def render_fig11(data: Dict) -> str:
    """Render the Figure 11 table."""
    headers = ["group"] + list(HMP_KINDS)
    rows: List[List[object]] = []
    for group, speedups in data["groups"].items():
        rows.append([group] + [speedups[k] for k in HMP_KINDS])
    rows.append(["average"] + [data["average"][k] for k in HMP_KINDS])
    return format_table(
        headers, rows,
        title="Figure 11 — hit-miss prediction speedup over no-HMP "
              "(perfect disambiguation, 4 EU / 2 MEM)")

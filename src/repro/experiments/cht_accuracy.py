"""Figure 9: CHT organisation/size accuracy sweep.

The paper evaluates four CHT organisations over sizes, reporting the
four Figure 1 cells as fractions of *conflicting* loads:

* Full CHT, 128..2K entries — balanced (2K: ~3.4 % ANC-PC, 0.9 %
  AC-PNC), best at limiting ANC-PC because counters can unlearn;
* Tagless, 2K..32K — improves steadily with size (less aliasing);
* Tagged-only, 128..2K — sticky: AC-PNC lowest (~0.2 %) but ANC-PC
  high (~11 %);
* Combined, 128..2K tag table + 4K tagless — safest (~0.16 % AC-PNC)
  at the cost of the most ANC-PC.

Methodology mirrors the paper's statistical simulations: one engine
pass records each load's (pc, conflicting, collided, distance) ground
truth at its dispatch opportunity; every CHT configuration then replays
the identical event stream (predict, then train).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.api import ExecutionPolicy, PredictorSpec, build_predictor, shadow_check, spec_for
from repro.cht.base import CollisionPredictor
from repro.cht.tagless import TaglessCHT
from repro.engine.machine import Machine
from repro.engine.ordering import TraditionalOrdering
from repro.experiments.harness import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    format_table,
    group_traces,
)
from repro.parallel import SimJob, run_jobs, sim_job
from repro.trace.builder import build_trace
from repro.trace.workloads import profile_for, trace_seed

#: Static-code multiplier: table capacity only matters when the static
#: load population stresses it, so Figure 9's traces carry a larger
#: (more SysmarkNT-like) code footprint than the other experiments'.
CODE_SCALE = 24


@dataclass(frozen=True)
class LoadEvent:
    """Ground truth for one dynamic load, in retirement order."""

    pc: int
    conflicting: bool
    collided: bool
    distance: int  # 0 when not colliding


class _RecordingOrdering(TraditionalOrdering):
    """Traditional ordering that records each load's ground truth."""

    def __init__(self) -> None:
        self.events: List[LoadEvent] = []

    def on_retire_load(self, load) -> None:
        info = load.load
        if info is None or info.conflicting is None:
            return
        self.events.append(LoadEvent(
            pc=load.uop.pc,
            conflicting=bool(info.conflicting),
            collided=bool(info.would_collide),
            distance=info.collide_distance or 0,
        ))


@lru_cache(maxsize=64)
def _collision_events(name: str, n_uops: int) -> Tuple[LoadEvent, ...]:
    trace = build_trace(profile_for(name, code_scale=CODE_SCALE),
                        n_uops=n_uops, seed=trace_seed(name), name=name)
    scheme = _RecordingOrdering()
    Machine(scheme=scheme).run(trace)
    return tuple(scheme.events)


def collision_events(names: Sequence[str],
                     settings: ExperimentSettings = DEFAULT_SETTINGS
                     ) -> List[Tuple[str, Tuple[LoadEvent, ...]]]:
    """The recorded per-trace ground-truth streams."""
    return [(n, _collision_events(n, settings.n_uops)) for n in names]


@dataclass
class ChtAccuracy:
    """The four Figure 1 cells, counted over one replay."""

    conflicting: int = 0
    ac_pc: int = 0
    ac_pnc: int = 0
    anc_pc: int = 0
    anc_pnc: int = 0

    def record(self, event: LoadEvent, predicted_colliding: bool) -> None:
        if not event.conflicting:
            return
        self.conflicting += 1
        if event.collided:
            if predicted_colliding:
                self.ac_pc += 1
            else:
                self.ac_pnc += 1
        elif predicted_colliding:
            self.anc_pc += 1
        else:
            self.anc_pnc += 1

    def fraction(self, count: int) -> float:
        return count / self.conflicting if self.conflicting else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "AC-PC": self.fraction(self.ac_pc),
            "AC-PNC": self.fraction(self.ac_pnc),
            "ANC-PC": self.fraction(self.anc_pc),
            "ANC-PNC": self.fraction(self.anc_pnc),
        }


class EventArrayCache:
    """Lazy one-shot conversion of a ``LoadEvent`` stream into the
    kernel arrays of :func:`repro.fastpath.cht.event_arrays`.

    Replaying the same stream through many CHT configurations (the
    Figure 9 sweep replays it through twenty) pays the Python-object
    decomposition once instead of per configuration.  The scalar path
    never touches it.
    """

    def __init__(self, events: Sequence[LoadEvent]) -> None:
        self._events = events
        self._arrays = None

    def get(self):
        if self._arrays is None:
            from repro.fastpath.cht import event_arrays
            self._arrays = event_arrays(self._events)
        return self._arrays


def replay(events: Sequence[LoadEvent], cht: CollisionPredictor,
           warm: bool = False,
           arrays: EventArrayCache = None,
           policy: ExecutionPolicy | None = None) -> ChtAccuracy:
    """Replay a ground-truth stream through one CHT (predict → train).

    With ``warm=True`` the stream is replayed twice and only the second
    pass is measured: the paper's 30M-instruction traces amortise each
    load's first (unavoidable) mispredictions to nothing, and the warm
    pass emulates that steady state on reduced traces.

    When ``policy`` (default: ``ExecutionPolicy()``) resolves to the
    vectorized backend, a :class:`TaglessCHT` replays through the batch
    kernels of :mod:`repro.fastpath` — by contract bit-identical to
    :func:`scalar_lane`, and shadow-checked against it (lane and state,
    :func:`repro.api.shadow_check`) when the policy arms it.  Callers
    replaying one stream through several CHTs can pass a shared
    :class:`EventArrayCache` built over the same ``events``.
    """
    policy = policy or ExecutionPolicy()
    if (policy.resolved_backend() == "vectorized"
            and type(cht) is TaglessCHT):
        if arrays is None:
            arrays = EventArrayCache(events)
        if policy.invariants_active():
            predicted = shadow_check(
                cht, lambda c: _kernel_lane(c, arrays, warm),
                lambda c: scalar_lane(events, c, warm),
                "Figure 9 tagless CHT replay")
        else:
            predicted = _kernel_lane(cht, arrays, warm)
        _, conflicting, collided, _ = arrays.get()
        acc = ChtAccuracy()
        acc.conflicting = int(conflicting.sum())
        acc.ac_pc = int((conflicting & collided & predicted).sum())
        acc.ac_pnc = int((conflicting & collided & ~predicted).sum())
        acc.anc_pc = int((conflicting & ~collided & predicted).sum())
        acc.anc_pnc = int((conflicting & ~collided & ~predicted).sum())
        return acc
    acc = ChtAccuracy()
    for event, predicted in zip(events, scalar_lane(events, cht, warm)):
        acc.record(event, predicted)
    return acc


def scalar_lane(events: Sequence[LoadEvent], cht: CollisionPredictor,
                warm: bool = False) -> List[bool]:
    """The reference replay: each event's predicted-colliding bit
    (after a discarded training pass when ``warm``)."""
    if warm:
        for event in events:
            cht.train(event.pc, event.collided,
                      event.distance if event.collided else None)
    lane = []
    for event in events:
        lane.append(cht.lookup(event.pc).colliding)
        cht.train(event.pc, event.collided,
                  event.distance if event.collided else None)
    return lane


def _kernel_lane(cht: TaglessCHT, arrays: EventArrayCache, warm: bool):
    """The fastpath replay: :func:`scalar_lane` on the batch kernel."""
    from repro.fastpath.cht import tagless_replay
    pcs, _, collided, distances = arrays.get()
    if warm:  # lookups are pure, so a discarded replay is a train pass
        tagless_replay(cht, pcs, collided, distances)
    return tagless_replay(cht, pcs, collided, distances)


#: (organisation label, size label, spec) — the Figure 9 sweep.  Every
#: configuration is a :class:`~repro.api.spec.PredictorSpec`, so the
#: sweep is serialisable and each table is built with
#: :func:`repro.api.build_predictor`.
CONFIGURATIONS: Tuple[Tuple[str, int, PredictorSpec], ...] = tuple(
    [("full", n, spec_for("cht.full", size=n, ways=4, bits=2))
     for n in (128, 256, 512, 1024, 2048)]
    + [("tagless", n, spec_for("cht.tagless", size=n, bits=1))
       for n in (2048, 4096, 8192, 16384, 32768)]
    + [("tagged-only", n, spec_for("cht.tagged", size=n, ways=4))
       for n in (128, 256, 512, 1024, 2048)]
    + [("combined", n, spec_for("cht.combined", tagged_size=n, ways=4,
                                tagless_size=4096))
       for n in (128, 256, 512, 1024, 2048)]
)


@sim_job("cht-accuracy")
def _cht_trace_leaf(name: str, n_uops: int, warm: bool) -> List[Dict]:
    """One trace: record ground truth, replay every CHT configuration.

    Returns raw per-configuration *counts* (not fractions) so the
    aggregation step can sum across traces exactly as the serial code
    always has.
    """
    events = _collision_events(name, n_uops)
    shared = EventArrayCache(events)
    out: List[Dict] = []
    for kind, size, spec in CONFIGURATIONS:
        acc = replay(events, build_predictor(spec), warm=warm,
                     arrays=shared)
        out.append({"kind": kind, "entries": size,
                    "conflicting": acc.conflicting, "ac_pc": acc.ac_pc,
                    "ac_pnc": acc.ac_pnc, "anc_pc": acc.anc_pc,
                    "anc_pnc": acc.anc_pnc})
    return out


def run_fig9(settings: ExperimentSettings = DEFAULT_SETTINGS,
             group: str = "SysmarkNT", warm: bool = True) -> Dict:
    """Sweep the CHT organisations/sizes over recorded events."""
    names = group_traces(group, settings)
    jobs = [SimJob.make(_cht_trace_leaf, key=("cht-accuracy", name),
                        name=name, n_uops=settings.n_uops, warm=warm)
            for name in names]
    per_trace = run_jobs(jobs, settings)
    rows: List[Dict] = []
    for i, (kind, size, _) in enumerate(CONFIGURATIONS):
        total = ChtAccuracy()
        for counts in per_trace:
            cell = counts[i]
            total.conflicting += cell["conflicting"]
            total.ac_pc += cell["ac_pc"]
            total.ac_pnc += cell["ac_pnc"]
            total.anc_pc += cell["anc_pc"]
            total.anc_pnc += cell["anc_pnc"]
        rows.append({"kind": kind, "entries": size, **total.as_dict()})
    return {"figure": "fig9", "group": group, "rows": rows}


def render_fig9(data: Dict) -> str:
    """Render the Figure 9 accuracy table."""
    rows = [[r["kind"], r["entries"], r["AC-PC"], r["AC-PNC"],
             r["ANC-PC"], r["ANC-PNC"]] for r in data["rows"]]
    return format_table(
        ["organisation", "entries", "AC-PC", "AC-PNC", "ANC-PC",
         "ANC-PNC"],
        rows,
        title="Figure 9 — CHT accuracy (fractions of conflicting loads)")

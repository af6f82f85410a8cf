"""Event sinks and run artifacts.

Three ways out of the event bus:

* :class:`MemorySink` — an in-process buffer (tests, ad-hoc analysis);
* :class:`JsonlSink` — one JSON object per event, streamed to disk;
* :class:`ChromeTraceSink` — the Chrome ``trace_event`` format, so a
  run opens directly in ``chrome://tracing`` or https://ui.perfetto.dev
  (one simulated cycle is mapped to one microsecond).

Plus the :class:`RunManifest`: the machine-readable "what was this run"
artifact — configuration, seed, git revision, throughput, per-phase
wall-clock timings and the metrics snapshot.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Union

from repro.obs.events import Event, EventKind


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit hash, ``<sha>-dirty`` when the working
    tree differs from it (uncommitted code is not its parent), or
    ``None`` outside a checkout."""
    try:
        head, status = (subprocess.run(["git", *args], cwd=cwd,
                                       capture_output=True, text=True,
                                       timeout=10)
                        for args in (("rev-parse", "HEAD"),
                                     ("status", "--porcelain")))
    except (OSError, subprocess.SubprocessError):
        return None
    sha = head.stdout.strip() if head.returncode == 0 else ""
    if not sha:
        return None
    dirty = status.returncode != 0 or status.stdout.strip()
    return sha + "-dirty" if dirty else sha


class MemorySink:
    """Buffers every event in a list; convenient for tests and notebooks."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """Streams events to a JSON-lines log (one object per line)."""

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self.n_events = 0

    def on_event(self, event: Event) -> None:
        self._handle.write(json.dumps(event.as_dict()))
        self._handle.write("\n")
        self.n_events += 1

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load an event log written by :class:`JsonlSink`."""
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


#: Event kinds rendered as instants (arrows) rather than slices.
_INSTANT_KINDS = frozenset((
    EventKind.SQUASH, EventKind.COLLISION, EventKind.VIOLATION,
    EventKind.BANK_CONFLICT, EventKind.FORWARD, EventKind.MISS,
))


class ChromeTraceSink:
    """Builds a Chrome ``trace_event`` JSON document from the stream.

    Retired uops become duration ("X") slices spanning rename→retire,
    spread over ``n_lanes`` pseudo-threads so overlapping lifetimes stay
    readable; squashes, collisions, bank conflicts and misses become
    instant ("i") markers on the lane of the uop involved.
    """

    PID = 1

    def __init__(self, n_lanes: int = 16) -> None:
        self.n_lanes = max(1, n_lanes)
        self._events: List[Dict[str, object]] = []

    def _lane(self, seq: int) -> int:
        return (seq % self.n_lanes) if seq >= 0 else self.n_lanes

    def on_event(self, event: Event) -> None:
        lane = self._lane(event.seq)
        ts = max(0, event.cycle)
        if event.kind == EventKind.RETIRE:
            rename = int(event.fields.get("rename_cycle", ts))
            args = dict(event.fields)
            args["seq"] = event.seq
            args["pc"] = f"0x{event.pc:x}"
            self._events.append({
                "ph": "X", "pid": self.PID, "tid": lane,
                "name": str(event.fields.get("uclass", "uop")),
                "cat": "uop",
                "ts": rename, "dur": max(1, ts - rename),
                "args": args,
            })
        elif event.kind in _INSTANT_KINDS:
            self._events.append({
                "ph": "i", "pid": self.PID, "tid": lane,
                "name": event.kind, "cat": "speculation",
                "ts": ts, "s": "t" if event.seq >= 0 else "p",
                "args": {"seq": event.seq, **event.fields},
            })
        # RENAME/ISSUE are implicit in the retire slice; predictor and
        # MOB bookkeeping would only add noise to the timeline view.

    def document(self) -> Dict[str, object]:
        meta: List[Dict[str, object]] = [{
            "ph": "M", "pid": self.PID, "tid": 0, "name": "process_name",
            "args": {"name": "repro pipeline"},
        }]
        for lane in range(self.n_lanes):
            meta.append({
                "ph": "M", "pid": self.PID, "tid": lane,
                "name": "thread_name",
                "args": {"name": f"lane {lane}"},
            })
        return {"traceEvents": meta + self._events,
                "displayTimeUnit": "ms",
                "otherData": {"time_unit": "1 cycle = 1us"}}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle)
            handle.write("\n")

    def close(self) -> None:  # buffered sink; nothing to flush early
        pass


def events_to_chrome_trace(events, n_lanes: int = 16) -> Dict[str, object]:
    """Convert dict-form events (e.g. from :func:`read_jsonl`) to a
    Chrome trace document."""
    sink = ChromeTraceSink(n_lanes=n_lanes)
    for record in events:
        fields = {k: v for k, v in record.items()
                  if k not in ("kind", "cycle", "seq", "pc")}
        sink.on_event(Event(str(record["kind"]), int(record["cycle"]),
                            int(record.get("seq", -1)),
                            int(record.get("pc", 0)), fields))
    return sink.document()


@dataclass
class RunManifest:
    """The machine-readable record of one simulator run.

    ``metrics`` is a flat :class:`~repro.obs.registry.MetricsRegistry`
    snapshot; ``phases`` maps phase names to wall-clock seconds
    (``time.perf_counter`` deltas); ``event_counts`` mirrors the event
    bus counters so artifact consumers can cross-check the event log.
    """

    name: str
    config: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    git_rev: Optional[str] = None
    created: str = ""
    n_uops: int = 0
    cycles: int = 0
    wall_seconds: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    schema: int = 1

    def __post_init__(self) -> None:
        if not self.created:
            self.created = time.strftime("%Y-%m-%dT%H:%M:%S")

    @property
    def uops_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_uops / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "name": self.name,
            "created": self.created,
            "git_rev": self.git_rev,
            "seed": self.seed,
            "config": self.config,
            "n_uops": self.n_uops,
            "cycles": self.cycles,
            "wall_seconds": self.wall_seconds,
            "uops_per_sec": self.uops_per_sec,
            "phases": self.phases,
            "metrics": self.metrics,
            "event_counts": self.event_counts,
            "extra": self.extra,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True,
                      default=str)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return cls(
            name=str(data.get("name", "?")),
            config=dict(data.get("config", {})),
            seed=data.get("seed"),
            git_rev=data.get("git_rev"),
            created=str(data.get("created", "")),
            n_uops=int(data.get("n_uops", 0)),
            cycles=int(data.get("cycles", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            phases=dict(data.get("phases", {})),
            metrics=dict(data.get("metrics", {})),
            event_counts=dict(data.get("event_counts", {})),
            extra=dict(data.get("extra", {})),
            schema=int(data.get("schema", 1)),
        )

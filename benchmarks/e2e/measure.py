"""Measurement helpers: quantiles, host probes and layer timing wrappers.

Layer wrappers are installed as *instance attributes* over a live
object's bound method (``machine.hierarchy.load = tracer.timed(...)``),
never as proxy subclasses: the engine's kernel gate
(``repro.engine.vector.unsupported_reason``) and the serve kernels check
exact types, so a proxy would quietly move work onto another path.

Host speed.  On a shared virtual machine the same code can run twice as
slowly for seconds to minutes at a time, and each vCPU slows on its own.
The workloads therefore time a fixed pure-Python loop (:func:`probe_s`)
right before and right after each measured piece of work, while the
system under test is idle, and report host seconds scaled to a
reference host on which the loop takes ``REFERENCE_PROBE_S``
(:func:`host_scale`).  The loop runs none of the program's code, so a
change to the program moves the scaled time exactly as it moves the
host time.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (need not be sorted)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def sliced_quantile(values: Sequence[float], q: float,
                    beyond: int = 10) -> float:
    """Median over contiguous slices of ``values`` of each slice's
    ``q`` quantile, with as many slices as keep ``beyond`` samples past
    the quantile in each; one slow stretch of a run then moves one
    slice, not the result."""
    per_slice = math.ceil(beyond / (1.0 - q))
    count = max(1, len(values) // per_slice)
    size = len(values) / count
    return median(quantile(values[round(i * size):round((i + 1) * size)], q)
                  for i in range(count))


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median: the run-to-run
    noise measure the bounds are set against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


#: Iterations of the host-speed probe loop, and the loop's time on the
#: reference host (about the development VM at its fastest).
PROBE_LOOPS = 50_000
REFERENCE_PROBE_S = 0.004


def probe_s(repeats: int = 1) -> float:
    """Host seconds for a fixed pure-Python loop; the median of
    ``repeats`` timings."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return median(times)


def host_scale(before: float, after: float) -> float:
    """Factor that turns host seconds measured between two probes into
    reference-host seconds."""
    return 2 * REFERENCE_PROBE_S / (before + after)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Layer:
    """Call count and busy time of one wrapped layer boundary, plus the
    per-call durations when a quantile of them is reported."""

    __slots__ = ("calls", "ns", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.durations: Optional[List[int]] = None

    @property
    def seconds(self) -> float:
        return self.ns / 1e9

    def us_quantile(self, q: float) -> float:
        return quantile(self.durations or (), q) / 1e3


class Tracer:
    """Timing wrappers that record a span per call.

    Spans are ``(span_id, name, start_ns, end_ns, parent_id, ident)``
    tuples kept in memory until :meth:`write_spans`.  Calls wrapped with
    ``sample`` > 1 (the engine's per-load hierarchy/predictor calls, a
    few hundred thousand per grid pass) keep one span in ``sample``;
    their counts and busy time stay exact.  While ``active`` is false
    the gated wrappers call straight through and record nothing.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        self.spans: List[Tuple] = []
        self.parent: Optional[int] = None
        self.ident: object = None
        self.active = True
        self._next_id = 0

    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        return layer

    def reset(self) -> None:
        """Zero every layer's counters (spans are kept)."""
        for layer in self.layers.values():
            layer.calls = layer.ns = 0
            if layer.durations is not None:
                layer.durations = []

    def timed(self, name: str, fn: Callable, *, sample: int = 1,
              keep_durations: bool = False, scope: bool = False,
              ident: Optional[Callable] = None,
              gated: bool = True) -> Callable:
        """Wrap ``fn``.  ``scope`` makes each call the parent of spans
        recorded while it runs (a ``Machine.run``); ``ident`` derives
        the run/request id from the call's arguments; a wrapper that is
        not ``gated`` records even while the tracer is inactive."""
        layer = self.layer(name)
        if keep_durations and layer.durations is None:
            layer.durations = []
        clock = time.perf_counter_ns
        spans = self.spans
        countdown = [1]

        def wrapper(*args, **kwargs):
            if gated and not self.active:
                return fn(*args, **kwargs)
            if scope:
                self._next_id += 1
                span_id = self._next_id
                outer, outer_ident = self.parent, self.ident
                self.parent = span_id
                if ident is not None:
                    self.ident = ident(args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                layer.calls += 1
                layer.ns += end - start
                if layer.durations is not None:
                    layer.durations.append(end - start)
                if scope:
                    self.parent, run = outer, self.ident
                    self.ident = outer_ident
                    spans.append((span_id, name, start, end, outer, run))
                else:
                    countdown[0] -= 1
                    if countdown[0] == 0:
                        countdown[0] = sample
                        self._next_id += 1
                        spans.append((self._next_id, name, start, end,
                                      self.parent,
                                      ident(args) if ident is not None
                                      else self.ident))

        return wrapper

    def wrap(self, owner: object, attr: str, name: str, **options) -> None:
        """Install ``timed(owner.attr)`` as an instance attribute."""
        setattr(owner, attr, self.timed(name, getattr(owner, attr),
                                        **options))

    def write_spans(self, path: str) -> None:
        """One JSON object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, ident in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "run": ident}))
                handle.write("\n")


def scrub_environment() -> None:
    """Remove every ``REPRO_*`` variable, from this process and the ones
    it starts, so ambient switches (backend, invariant oracle) cannot
    change what runs."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

"""Tests for the stride prefetcher."""

import pytest

from repro.common.config import BASELINE_MACHINE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetch import StridePrefetcher


def hierarchy():
    return MemoryHierarchy(BASELINE_MACHINE.memory)


class TestBasicPrefetching:
    def test_degree_validation(self):
        with pytest.raises(ValueError):
            StridePrefetcher(hierarchy(), degree=0)

    def test_strided_stream_prefetches_ahead(self):
        h = hierarchy()
        pf = StridePrefetcher(h, degree=2)
        addr, now = 0x10000, 0
        for _ in range(10):
            h.load(addr, now)
            pf.on_demand_access(0x100, addr, now)
            addr += 64
            now += 200  # past any fill latency
        assert pf.stats.issued > 0
        # The next line is already resident thanks to the prefetcher.
        assert h.would_hit_l1(addr, now)

    def test_demand_misses_fall(self):
        def run(with_prefetch):
            h = hierarchy()
            pf = StridePrefetcher(h, degree=2) if with_prefetch else None
            addr, now = 0x10000, 0
            for _ in range(200):
                h.load(addr, now)
                if pf:
                    pf.on_demand_access(0x100, addr, now)
                addr += 64
                now += 200
            return h.l1_miss_rate
        assert run(True) < run(False)

    def test_usefulness_tracked(self):
        h = hierarchy()
        pf = StridePrefetcher(h, degree=1)
        addr, now = 0x10000, 0
        for _ in range(50):
            h.load(addr, now)
            pf.on_demand_access(0x100, addr, now)
            addr += 64
            now += 200
        assert pf.stats.usefulness > 0.7

    def test_constant_address_never_prefetches(self):
        h = hierarchy()
        pf = StridePrefetcher(h)
        for now in range(0, 2000, 200):
            h.load(0x4000, now)
            pf.on_demand_access(0x100, 0x4000, now)
        assert pf.stats.issued == 0

    def test_random_stream_mostly_idle(self):
        import random
        rng = random.Random(0)
        h = hierarchy()
        pf = StridePrefetcher(h)
        for now in range(0, 20000, 100):
            a = rng.randrange(1 << 22)
            h.load(a, now)
            pf.on_demand_access(0x100, a, now)
        assert pf.stats.issued < 20

    def test_demand_stats_unpolluted(self):
        """Prefetch traffic must not count as demand loads."""
        h = hierarchy()
        pf = StridePrefetcher(h, degree=2)
        addr, now = 0x10000, 0
        n = 30
        for _ in range(n):
            h.load(addr, now)
            pf.on_demand_access(0x100, addr, now)
            addr += 64
            now += 200
        assert h.stats.get("loads").value == n

    def test_reset(self):
        h = hierarchy()
        pf = StridePrefetcher(h)
        for i in range(10):
            pf.on_demand_access(0x100, 0x10000 + 64 * i, i * 200)
        pf.reset()
        assert pf.stats.issued == 0


class TestEngineIntegration:
    def test_prefetcher_speeds_up_streaming_workload(self):
        from repro.engine.machine import Machine
        from repro.engine.ordering import make_scheme
        from repro.trace.builder import build_trace
        from repro.trace.workloads import profile_for, trace_seed

        trace = build_trace(profile_for("applu"), n_uops=8000,
                            seed=trace_seed("applu"), name="applu")
        plain = Machine(scheme=make_scheme("perfect")).run(trace)
        h = MemoryHierarchy(BASELINE_MACHINE.memory)
        machine = Machine(scheme=make_scheme("perfect"), hierarchy=h)
        machine.prefetcher = StridePrefetcher(h, degree=2)
        prefetched = machine.run(trace)
        assert prefetched.retired_uops == len(trace)
        assert prefetched.l1_miss_rate < plain.l1_miss_rate
        assert prefetched.cycles <= plain.cycles


class TestDemandCounterIdentities:
    """The hierarchy's counters count demand traffic only, prefetcher on
    or off: ``loads`` is the machine's demand ``load`` calls, each
    level's hits plus misses are its demand accesses, and ``l2_misses``
    is the demand loads that missed L2."""

    @staticmethod
    def _tally(machine):
        """Count each demand call into the hierarchy — any made outside
        the prefetcher — by wrapping the instances' methods."""
        counts = {"load": 0, "l1d": 0, "l2": 0, "l2_load_miss": 0}
        inside = []

        def wrap(obj, name, tag):
            real = getattr(obj, name)

            def spy(*args, **kwargs):
                inside.append(tag)
                try:
                    out = real(*args, **kwargs)
                finally:
                    inside.pop()
                if "prefetcher" not in inside and tag in counts:
                    counts[tag] += 1
                    if tag == "l2" and not out and "load" in inside:
                        counts["l2_load_miss"] += 1
                return out

            setattr(obj, name, spy)

        h = machine.hierarchy
        wrap(h, "load", "load")
        wrap(h, "store", "store")
        wrap(h.l1d, "touch", "l1d")
        wrap(h.l2, "touch", "l2")
        if machine.prefetcher is not None:
            wrap(machine.prefetcher, "on_demand_access", "prefetcher")
        return counts

    @pytest.mark.parametrize("with_prefetch", (False, True),
                             ids=("prefetch-off", "prefetch-on"))
    def test_counters_count_demand_only(self, with_prefetch):
        from repro.engine.machine import Machine
        from repro.engine.ordering import make_scheme
        from repro.trace.builder import build_trace
        from repro.trace.workloads import profile_for, trace_seed

        trace = build_trace(profile_for("applu"), n_uops=4000,
                            seed=trace_seed("applu"), name="applu")
        h = hierarchy()
        machine = Machine(scheme=make_scheme("perfect"), hierarchy=h)
        if with_prefetch:
            machine.prefetcher = StridePrefetcher(h, degree=2)
        counts = self._tally(machine)
        machine.run(trace)
        if with_prefetch:
            assert machine.prefetcher.stats.issued > 0
        memory = h.stats.as_dict()
        assert memory["loads"] == counts["load"] > 0
        for level in ("l1d", "l2"):
            assert (memory[level]["hits"] + memory[level]["misses"]
                    == counts[level]), level
        assert memory["l2_misses"] == counts["l2_load_miss"]

    def test_prefetch_fill_installs_without_counting(self):
        h = hierarchy()
        h.prefetch(0x10000, now=0)
        before = h.stats.as_dict()
        assert before["loads"] == before["l1_misses"] == 0
        assert before["l1d"]["misses"] == before["l2"]["misses"] == 0
        assert h.mshr.pending_until(0x10000 // 64, 0) is not None
        outcome = h.load(0x10000, now=1000)  # after the fill arrived
        assert outcome.l1_hit
        assert h.stats.as_dict()["loads"] == 1

"""Tests for the two-level memory hierarchy."""

import pytest

from repro.common.config import CacheConfig, MemoryConfig
from repro.memory.hierarchy import LoadOutcome, MemoryHierarchy


def tiny_hierarchy(**overrides):
    defaults = dict(
        l1d=CacheConfig(size_bytes=1024, ways=2),   # 16 lines
        l2=CacheConfig(size_bytes=8 * 1024, ways=4),  # 128 lines
        l1_latency=5, l2_latency=12, memory_latency=80,
    )
    defaults.update(overrides)
    return MemoryHierarchy(MemoryConfig(**defaults))


class TestLatencies:
    def test_cold_load_goes_to_memory(self):
        h = tiny_hierarchy()
        out = h.load(0x1000, now=0)
        assert not out.l1_hit and not out.l2_hit
        assert out.latency == 80

    def test_l1_hit_latency(self):
        h = tiny_hierarchy()
        h.load(0x1000, now=0)
        out = h.load(0x1000, now=200)
        assert out.l1_hit
        assert out.latency == 5

    def test_l2_hit_latency(self):
        h = tiny_hierarchy()
        h.load(0x1000, now=0)
        # Evict from tiny L1 with a sweep; L2 keeps the line.
        for i in range(1, 40):
            h.load(0x1000 + i * 64, now=1000 + i * 100)
        out = h.load(0x1000, now=20000)
        assert not out.l1_hit and out.l2_hit
        assert out.latency == 12


class TestDynamicMiss:
    def test_second_access_during_fill(self):
        h = tiny_hierarchy()
        h.load(0x1000, now=0)  # memory fill arrives at 80
        out = h.load(0x1004, now=40)  # same line, still in flight
        assert out.dynamic_miss
        assert not out.l1_hit
        assert out.latency == 40  # residual wait

    def test_after_fill_is_hit(self):
        h = tiny_hierarchy()
        h.load(0x1000, now=0)
        out = h.load(0x1004, now=90)
        assert out.l1_hit

    def test_dynamic_miss_counted_as_miss(self):
        h = tiny_hierarchy()
        h.load(0x1000, now=0)
        h.load(0x1004, now=10)
        assert h.l1_miss_rate == pytest.approx(1.0)


class TestStores:
    def test_store_installs_line(self):
        h = tiny_hierarchy()
        h.store(0x2000, now=0)
        assert h.load(0x2000, now=100).l1_hit


class TestProbe:
    def test_would_hit_after_fill(self):
        h = tiny_hierarchy()
        h.load(0x1000, now=0)
        assert h.would_hit_l1(0x1000, now=100)

    def test_would_miss_while_in_flight(self):
        h = tiny_hierarchy()
        h.load(0x1000, now=0)  # fill at 80
        assert not h.would_hit_l1(0x1000, now=40)

    def test_would_miss_cold(self):
        h = tiny_hierarchy()
        assert not h.would_hit_l1(0x9999, now=0)


class TestLoadOutcome:
    def test_keyword_construction_and_defaults(self):
        out = LoadOutcome(l1_hit=False, l2_hit=True, latency=12, line=7)
        assert out == LoadOutcome(False, True, 12, 7, False)
        assert out.miss and not out.dynamic_miss
        assert (out.l1_hit, out.l2_hit, out.latency, out.line) \
            == (False, True, 12, 7)

    def test_replace_changes_one_field(self):
        out = tiny_hierarchy().load(0x1000, now=0)
        slower = out._replace(latency=out.latency + 3)
        assert slower.latency == 83
        assert slower._replace(latency=80) == out
        assert (slower.l1_hit, slower.l2_hit, slower.line,
                slower.dynamic_miss) == (out.l1_hit, out.l2_hit, out.line,
                                         out.dynamic_miss)


class TestReset:
    def test_reset_clears_everything(self):
        h = tiny_hierarchy()
        h.load(0x1000, now=0)
        h.reset()
        out = h.load(0x1000, now=200)
        assert not out.l1_hit and not out.l2_hit

"""Property-based tests (hypothesis) for the cache substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import Cache

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)
address_lists = st.lists(addresses, min_size=1, max_size=200)


def make_cache(ways=2, sets=8):
    return Cache(CacheConfig(size_bytes=ways * sets * 64, ways=ways))


class TestCacheProperties:
    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_immediate_rereference_always_hits(self, addrs):
        """Accessing an address twice in a row is always a hit."""
        cache = make_cache()
        for a in addrs:
            cache.access(a)
            assert cache.access(a).hit

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_probe_agrees_with_next_access(self, addrs):
        """probe() == the hit outcome of the access that follows it."""
        cache = make_cache()
        for a in addrs:
            expected = cache.probe(a)
            assert cache.access(a).hit == expected

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_ways(self, addrs):
        cache = make_cache(ways=2, sets=8)
        for a in addrs:
            cache.access(a)
        for set_index in range(cache.n_sets):
            assert len(cache.set_tags(set_index)) <= 2

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache = make_cache()
        for a in addrs:
            cache.access(a)
        total = cache.stats.get("hits").value + cache.stats.get("misses").value
        assert total == len(addrs)

    @given(address_lists, addresses)
    @settings(max_examples=50, deadline=None)
    def test_invalidate_forces_miss(self, addrs, victim):
        cache = make_cache()
        for a in addrs:
            cache.access(a)
        cache.access(victim)
        cache.invalidate(victim)
        assert not cache.probe(victim)

    @given(st.lists(addresses, min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_same_line_addresses_equivalent(self, addrs):
        """Accesses within one line are indistinguishable to the cache."""
        a = make_cache()
        b = make_cache()
        for addr in addrs:
            ra = a.access(addr)
            rb = b.access((addr // 64) * 64)  # line-aligned twin
            assert ra.hit == rb.hit

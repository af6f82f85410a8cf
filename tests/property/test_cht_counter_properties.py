"""Property-based tests for CHT saturating-counter transitions.

Round-trip and monotonicity laws of the counter cell, plus the tagless
CHT's counter/distance-sidecar train semantics over random collision
streams.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cht.tagless import TaglessCHT
from repro.predictors.counters import SaturatingCounter

bits = st.integers(min_value=1, max_value=4)
outcomes = st.lists(st.booleans(), min_size=0, max_size=60)


def counter_at(bit_count, value):
    return SaturatingCounter(bit_count, initial=value)


class TestCounterTransitions:
    @given(bits, st.data())
    @settings(max_examples=100, deadline=None)
    def test_up_down_round_trip(self, bit_count, data):
        """train(True) then train(False) restores the value, except at
        the saturation ceiling where the up-step is absorbed."""
        top = (1 << bit_count) - 1
        value = data.draw(st.integers(min_value=0, max_value=top))
        counter = counter_at(bit_count, value)
        counter.train(True)
        counter.train(False)
        assert counter.value == (value if value < top else top - 1)

    @given(bits, st.data())
    @settings(max_examples=100, deadline=None)
    def test_down_up_round_trip(self, bit_count, data):
        top = (1 << bit_count) - 1
        value = data.draw(st.integers(min_value=0, max_value=top))
        counter = counter_at(bit_count, value)
        counter.train(False)
        counter.train(True)
        assert counter.value == (value if value > 0 else min(1, top))

    @given(bits, outcomes)
    @settings(max_examples=100, deadline=None)
    def test_transitions_move_by_at_most_one(self, bit_count, stream):
        counter = SaturatingCounter(bit_count)
        for outcome in stream:
            before = counter.value
            counter.train(outcome)
            assert abs(counter.value - before) <= 1
            assert 0 <= counter.value <= counter._max

    @given(bits, outcomes, st.data())
    @settings(max_examples=100, deadline=None)
    def test_state_dominance_is_preserved(self, bit_count, stream, data):
        """A counter that starts higher never falls below one that
        starts lower under the same outcome stream — the lattice
        property behind threshold monotonicity."""
        top = (1 << bit_count) - 1
        lo = data.draw(st.integers(min_value=0, max_value=top))
        hi = data.draw(st.integers(min_value=lo, max_value=top))
        low = counter_at(bit_count, lo)
        high = counter_at(bit_count, hi)
        for outcome in stream:
            low.train(outcome)
            high.train(outcome)
            assert high.value >= low.value
            if low.prediction:
                assert high.prediction


collision_stream = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=32)),
    min_size=0, max_size=50)


class TestTaglessTrainSemantics:
    @given(collision_stream, bits)
    @settings(max_examples=80, deadline=None)
    def test_counter_follows_scalar_cell(self, stream, counter_bits):
        """One PC's entry evolves exactly like a lone counter."""
        cht = TaglessCHT(n_entries=64, counter_bits=counter_bits)
        index = cht._index(0x40) if hasattr(cht, "_index") else None
        model = SaturatingCounter(counter_bits)
        for collided, distance in stream:
            cht.train(0x40, collided, distance if collided else None)
            model.train(collided)
        looked_up = cht.lookup(0x40)
        assert looked_up.colliding == model.prediction
        if index is not None:
            assert cht._counters.cells[index] == model.value

    @given(collision_stream)
    @settings(max_examples=80, deadline=None)
    def test_distance_is_min_since_last_reset(self, stream):
        """The sidecar holds the minimum distance supplied since the
        counter last trained to "not colliding" — the law the fastpath
        kernel's loop applies."""
        cht = TaglessCHT(n_entries=64, counter_bits=1, track_distance=True)
        model = SaturatingCounter(1)
        expected = None
        for collided, distance in stream:
            cht.train(0x40, collided, distance if collided else None)
            model.train(collided)
            if collided:
                expected = (distance if expected is None
                            else min(expected, distance))
            elif not model.prediction:
                expected = None
        assert cht.lookup(0x40).distance == expected

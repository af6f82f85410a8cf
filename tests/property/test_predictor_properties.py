"""Property-based tests for predictors and CHTs."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cht.combined import CombinedCHT
from repro.cht.full import FullCHT
from repro.cht.tagged import TaggedOnlyCHT
from repro.cht.tagless import TaglessCHT
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.counters import SaturatingCounter
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor

pcs = st.integers(min_value=0, max_value=(1 << 24) - 1).map(lambda x: x * 4)
outcomes = st.booleans()
events = st.lists(st.tuples(pcs, outcomes), min_size=1, max_size=300)


class TestCounterProperties:
    @given(st.integers(min_value=1, max_value=6),
           st.lists(outcomes, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_counter_value_stays_in_range(self, bits, stream):
        c = SaturatingCounter(bits)
        for o in stream:
            c.train(o)
            assert 0 <= c.value <= (1 << bits) - 1

    @given(st.lists(outcomes, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_counter_monotone_response(self, stream):
        """Training True never lowers the value; False never raises it."""
        c = SaturatingCounter(2)
        for o in stream:
            before = c.value
            c.train(o)
            if o:
                assert c.value >= before
            else:
                assert c.value <= before


class TestBinaryPredictorProperties:
    @given(events)
    @settings(max_examples=30, deadline=None)
    def test_predict_never_crashes_and_is_binary(self, stream):
        predictors = [BimodalPredictor(64), LocalPredictor(64, 4),
                      GSharePredictor(6), GSkewPredictor(6, 64)]
        for p in predictors:
            for pc, outcome in stream:
                pred = p.predict(pc)
                assert isinstance(pred.outcome, bool)
                assert 0.0 <= pred.confidence <= 1.0
                p.update(pc, outcome)

    @given(st.lists(outcomes, min_size=32, max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_bimodal_tracks_majority(self, stream):
        """After a long one-PC stream, bimodal predicts the recent
        majority when the stream is heavily biased."""
        p = BimodalPredictor(64)
        pc = 0x100
        biased = stream + [True] * 8  # force a biased tail
        for o in biased:
            p.update(pc, o)
        assert p.predict(pc).outcome


collision_events = st.lists(
    st.tuples(pcs, outcomes,
              st.integers(min_value=1, max_value=8)),
    min_size=1, max_size=300)


class TestChtProperties:
    @given(collision_events)
    @settings(max_examples=30, deadline=None)
    def test_sticky_dominates_full_on_ac(self, stream):
        """Any load the Full CHT predicts colliding, the sticky table
        (same capacity, trained identically) predicts colliding too —
        stickiness only ever adds collide predictions.

        Holds at large capacity where evictions cannot interfere.
        """
        full = FullCHT(n_entries=4096, ways=4)
        sticky = TaggedOnlyCHT(n_entries=4096, ways=4)
        for pc, collided, distance in stream:
            full_says = full.lookup(pc).colliding
            sticky_says = sticky.lookup(pc).colliding
            if full_says:
                assert sticky_says
            full.train(pc, collided, distance)
            sticky.train(pc, collided, distance)

    @given(collision_events)
    @settings(max_examples=30, deadline=None)
    def test_combined_safe_is_superset_of_tagged(self, stream):
        combined = CombinedCHT(tagged_entries=1024, tagless_entries=1024,
                               mode="safe")
        for pc, collided, distance in stream:
            tagged_says = combined.tagged.lookup(pc).colliding
            if tagged_says:
                assert combined.lookup(pc).colliding
            combined.train(pc, collided, distance)

    @given(collision_events)
    @example([(0, True, 1), (0, False, 1), (0, False, 1), (0, False, 1),
              (0, True, 2)])
    @settings(max_examples=30, deadline=None)
    def test_distance_never_increases(self, stream):
        """The learned distance converges on the minimum seen since the
        entry was last (re)allocated.

        ``FullCHT`` invalidates an entry whose counter decays to
        non-colliding (section 2.1's policy); a later collision
        re-allocates it with a fresh distance, so the model forgets its
        minimum whenever a non-collision leaves the load predicted
        non-colliding."""
        cht = FullCHT(n_entries=4096, ways=4, track_distance=True)
        seen = {}
        for pc, collided, distance in stream:
            if collided:
                cht.train(pc, True, distance)
                key = pc
                seen[key] = min(seen.get(key, distance), distance)
                got = cht.lookup(pc)
                if got.colliding and got.distance is not None:
                    assert got.distance <= seen[key]
            else:
                cht.train(pc, False, None)
                if not cht.lookup(pc).colliding:
                    seen.pop(pc, None)

    @given(collision_events)
    @settings(max_examples=20, deadline=None)
    def test_tagless_prediction_total(self, stream):
        """Tagless CHT never crashes and always answers."""
        cht = TaglessCHT(n_entries=256)
        for pc, collided, distance in stream:
            prediction = cht.lookup(pc)
            assert prediction.colliding in (True, False)
            cht.train(pc, collided, distance if collided else None)

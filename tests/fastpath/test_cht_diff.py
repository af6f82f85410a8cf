"""Differential equivalence: tagless CHT batch replay vs. scalar."""

import numpy as np
import pytest

from repro.cht.tagless import TaglessCHT
from repro.experiments.cht_accuracy import LoadEvent, replay
from repro.fastpath.cht import event_arrays, tagless_replay
from repro.fastpath.tracegen import synthesize_collision_grid

from tests.fastpath.helpers import REFERENCE, RUN_LENGTHS, VECTORIZED


def _events(seed, n=4000):
    pcs, conflicting, collided, distances = synthesize_collision_grid(seed, n)
    return [LoadEvent(pc=pc, conflicting=cf, collided=co, distance=d)
            for pc, cf, co, d in zip(pcs, conflicting, collided, distances)]


def _cht_state(cht):
    return (list(cht._counters.cells), list(cht._distances))


#: (counter_bits, seed, n, track_distance): both counter widths over the
#: seed grid, then the shared run lengths with the distance sidecar on.
LOOKUPS = ([pytest.param(counter_bits, seed, 4000, False,
                         id=f"{counter_bits}-{seed}")
            for counter_bits in (1, 2) for seed in (41, 42)]
           + [pytest.param(2, 43, n, True, id=f"2-43-n{n}-distance")
              for n in RUN_LENGTHS])


class TestKernel:
    @pytest.mark.parametrize("counter_bits,seed,n,track_distance", LOOKUPS)
    def test_lookup_stream_and_state_identical(self, counter_bits, seed, n,
                                               track_distance):
        events = _events(seed, n)
        reference = TaglessCHT(n_entries=512, counter_bits=counter_bits,
                               track_distance=track_distance)
        vectorized = TaglessCHT(n_entries=512, counter_bits=counter_bits,
                                track_distance=track_distance)
        expected = []
        for event in events:
            expected.append(reference.lookup(event.pc).colliding)
            reference.train(event.pc, event.collided,
                            event.distance if event.collided else None)
        pcs, _, collided, distances = event_arrays(events)
        got = tagless_replay(vectorized, pcs, collided, distances)
        assert got.tolist() == expected
        assert _cht_state(vectorized) == _cht_state(reference)

    def test_distance_sidecar_min_update_and_reset(self):
        # Alternating collide/clear traffic exercises both sidecar
        # branches (min-update and the reset-on-not-predicting).
        pcs = [0x40, 0x40, 0x80, 0x40, 0x80, 0x80, 0x40]
        collided = [True, True, True, False, False, True, False]
        distances = [9, 4, 7, 0, 0, 2, 0]
        reference = TaglessCHT(n_entries=64, counter_bits=1,
                               track_distance=True)
        vectorized = TaglessCHT(n_entries=64, counter_bits=1,
                                track_distance=True)
        for pc, co, d in zip(pcs, collided, distances):
            reference.train(pc, co, d if co else None)
        tagless_replay(vectorized, np.array(pcs, dtype=np.int64),
                       np.array(collided, dtype=bool),
                       np.array([d if co else -1
                                 for co, d in zip(collided, distances)],
                                dtype=np.int64))
        assert _cht_state(vectorized) == _cht_state(reference)

    @pytest.mark.parametrize("batch_size", (1, 13, 4096))
    def test_chunking_is_invisible(self, batch_size):
        events = _events(43, 1500)
        reference = TaglessCHT(n_entries=256)
        vectorized = TaglessCHT(n_entries=256)
        pcs, _, collided, distances = event_arrays(events)
        expected = tagless_replay(reference, pcs, collided, distances)
        got = tagless_replay(vectorized, pcs, collided, distances,
                             batch_size=batch_size)
        assert got.tolist() == expected.tolist()
        assert _cht_state(vectorized) == _cht_state(reference)


class TestHarnessDispatch:
    @pytest.mark.parametrize("warm", (False, True))
    @pytest.mark.parametrize("track_distance", (False, True))
    def test_replay_accuracy_identical(self, warm, track_distance):
        events = _events(44)
        reference = TaglessCHT(n_entries=512, counter_bits=1,
                               track_distance=track_distance)
        vectorized = TaglessCHT(n_entries=512, counter_bits=1,
                                track_distance=track_distance)
        assert replay(events, vectorized, warm=warm, policy=VECTORIZED) \
            == replay(events, reference, warm=warm, policy=REFERENCE)
        assert _cht_state(vectorized) == _cht_state(reference)

    def test_shared_array_cache_replay_identical(self):
        # The fig9 leaf shares one EventArrayCache across the whole
        # configuration ladder; results must match per-call conversion.
        from repro.experiments.cht_accuracy import EventArrayCache
        events = _events(46)
        shared = EventArrayCache(events)
        for entries in (256, 1024):
            reference = TaglessCHT(n_entries=entries)
            vectorized = TaglessCHT(n_entries=entries)
            assert replay(events, vectorized, arrays=shared,
                          policy=VECTORIZED) \
                == replay(events, reference, policy=REFERENCE)
            assert _cht_state(vectorized) == _cht_state(reference)

    def test_reference_backend_takes_scalar_path(self, monkeypatch):
        import repro.experiments.cht_accuracy as cht_accuracy

        def boom(*a, **k):  # pragma: no cover - must not be called
            raise AssertionError("batch kernel invoked")

        monkeypatch.setattr(cht_accuracy, "_replay_vectorized", boom)
        events = _events(45, 500)
        acc = replay(events, TaglessCHT(n_entries=128), policy=REFERENCE)
        assert acc.conflicting == sum(1 for e in events if e.conflicting)

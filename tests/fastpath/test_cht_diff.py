"""The differential matrix, CHT family: Figure 9's tagless replay run
armed (``tests/fastpath/helpers.py``)."""

import pytest

from repro.cht.tagless import TaglessCHT
from repro.experiments.cht_accuracy import EventArrayCache, LoadEvent, replay

from tests.fastpath.helpers import ARMED, REFERENCE, RUN_LENGTHS, armed, grid

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
        armed("cht", TaglessCHT(n_entries=512, counter_bits=counter_bits,
                                track_distance=track_distance),
              grid("cht", seed, n))

    def test_distance_sidecar_min_update_and_reset(self):
        # Alternating collide/clear traffic exercises both sidecar
        # branches (min-update and the reset-on-not-predicting).
        pcs = [0x40, 0x40, 0x80, 0x40, 0x80, 0x80, 0x40]
        collided = [True, True, True, False, False, True, False]
        distances = [9, 4, 7, 0, 0, 2, 0]
        events = [LoadEvent(pc=pc, conflicting=True, collided=co,
                            distance=d)
                  for pc, co, d in zip(pcs, collided, distances)]
        armed("cht", TaglessCHT(n_entries=64, counter_bits=1,
                                track_distance=True), events)

    @pytest.mark.parametrize("batch_size", (1, 13, 4096))
    def test_chunking_is_invisible(self, batch_size):
        armed("cht", TaglessCHT(n_entries=256), grid("cht", 43, 1500),
              batch_size=batch_size)


class TestHarnessDispatch:
    @pytest.mark.parametrize("warm", (False, True))
    @pytest.mark.parametrize("track_distance", (False, True))
    def test_replay_accuracy_identical(self, warm, track_distance):
        armed("cht", TaglessCHT(n_entries=512, counter_bits=1,
                                track_distance=track_distance),
              grid("cht", 44, 4000), warm=warm)

    def test_shared_array_cache_replay_identical(self):
        # The fig9 leaf shares one EventArrayCache across the whole
        # configuration ladder; each replay is checked against its own
        # scalar shadow.
        events = grid("cht", 46, 4000)
        shared = EventArrayCache(events)
        for entries in (256, 1024):
            replay(events, TaglessCHT(n_entries=entries), arrays=shared,
                   policy=ARMED)

    def test_reference_backend_takes_scalar_path(self, monkeypatch):
        import repro.experiments.cht_accuracy as cht_accuracy

        def boom(*a, **k):  # pragma: no cover - must not be called
            raise AssertionError("batch kernel invoked")

        monkeypatch.setattr(cht_accuracy, "_kernel_lane", boom)
        events = grid("cht", 45, 500)
        acc = replay(events, TaglessCHT(n_entries=128), policy=REFERENCE)
        assert acc.conflicting == sum(1 for e in events if e.conflicting)

"""The uniform serving kernel facade: supports_steps / replay_steps."""

import pickle
import random

import pytest

from repro.api import build_predictor, spec_for
from repro.common import bits
from repro.serve.batch import apply_step, scalar_steps

numpy = pytest.importorskip("numpy")

from repro.fastpath import batchapi  # noqa: E402 - after numpy gate

from tests.fastpath.helpers import RUN_LENGTHS  # noqa: E402

#: (kind, kernel-backed) — facade coverage over every family.
KINDS = [
    ("binary.bimodal", True),
    ("binary.local", True),
    ("binary.gshare", True),
    ("binary.gskew", True),
    ("hmp.local", True),
    ("hmp.gshare", True),
    ("hmp.hybrid", True),
    ("cht.tagless", True),
    ("cht.tagged", False),
    ("cht.full", False),
    ("bank.a", True),
    ("bank.address", False),
]


@pytest.mark.parametrize("kind,expected", KINDS)
def test_supports_steps(kind, expected):
    spec = spec_for(kind)
    predictor = build_predictor(spec)
    assert batchapi.supports_steps(spec.family, predictor) is expected


#: (kind, n, params): every kernel-backed kind at 300 steps, then the
#: shared run lengths for one kind of each family.
STEP_REPLAYS = (
    [pytest.param(kind, 300, {}, id=kind) for kind, s in KINDS if s]
    + [pytest.param(kind, n, params, id=f"{kind}-n{n}")
       for kind, params in (("binary.local", {}), ("hmp.hybrid", {}),
                            ("cht.tagless",
                             {"bits": 2, "track_distance": True}),
                            ("bank.a", {}))
       for n in RUN_LENGTHS])


@pytest.mark.parametrize("kind,n,params", STEP_REPLAYS)
def test_replay_steps_matches_scalar(kind, n, params):
    spec = spec_for(kind, **params)
    rng = random.Random(hash(kind) & 0xFFFF)
    pcs = [0x100 + 4 * rng.randrange(8) for _ in range(n)]
    outcomes = [rng.randrange(2) for _ in range(n)]
    distances = [(1 + rng.randrange(3)) if (spec.family == "cht" and o)
                 else -1 for o in outcomes]

    kernel_predictor = build_predictor(spec)
    got = batchapi.replay_steps(
        spec.family, kernel_predictor,
        numpy.asarray(pcs, dtype=numpy.int64),
        numpy.asarray(outcomes, dtype=numpy.int64),
        numpy.asarray(distances, dtype=numpy.int64)).tolist()

    scalar_predictor = build_predictor(spec)
    expected = scalar_steps(spec.family, scalar_predictor, pcs, outcomes,
                            distances)
    assert got == expected
    assert pickle.dumps(kernel_predictor) == pickle.dumps(scalar_predictor)


def test_replay_steps_unknown_family():
    with pytest.raises(ValueError):
        batchapi.replay_steps("weather", object(),
                              numpy.zeros(1, dtype=numpy.int64),
                              numpy.zeros(1, dtype=numpy.int64),
                              numpy.zeros(1, dtype=numpy.int64))


@pytest.mark.parametrize("counter_bits", [1, 2])
def test_cht_distances_below_one_mean_none(counter_bits):
    # The scalar loop drops a distance below 1; the kernel must not
    # min-update the sidecar with it either.
    spec = spec_for("cht.tagless", size=16, bits=counter_bits)
    rng = random.Random(counter_bits)
    n = 200
    pcs = [0x100 + 4 * rng.randrange(4) for _ in range(n)]
    outcomes = [int(rng.random() < 0.8) for _ in range(n)]
    distances = [rng.choice((0, -2, 3)) for _ in range(n)]

    kernel_cht = build_predictor(spec)
    got = batchapi.replay_steps(
        "cht", kernel_cht, numpy.asarray(pcs, dtype=numpy.int64),
        numpy.asarray(outcomes, dtype=numpy.int64),
        numpy.asarray(distances, dtype=numpy.int64)).tolist()
    scalar_cht = build_predictor(spec)
    expected = scalar_steps("cht", scalar_cht, pcs, outcomes, distances)
    assert got == expected
    assert kernel_cht._distances == scalar_cht._distances


#: Every step-kernel kind, plus small tables a 256-step window covers.
MIXED_KINDS = [
    ("hmp.hybrid", {}),
    ("hmp.hybrid", {"gshare_history": 11, "gskew_history": 20}),
    ("hmp.local", {}),
    ("hmp.local", {"size": 16, "history": 4}),
    ("hmp.gshare", {}),
    ("hmp.gshare", {"history": 4}),
    ("hmp.gskew", {}),
    ("binary.bimodal", {}),
    ("binary.bimodal", {"size": 16}),
    ("binary.local", {}),
    ("binary.gshare", {}),
    ("binary.gskew", {"history": 4, "size": 16}),
    ("cht.tagless", {"bits": 1}),
    ("cht.tagless", {"bits": 2, "track_distance": True}),
    ("cht.tagless", {"size": 16, "bits": 2}),
    ("bank.a", {}),
]

WINDOW = 256


def _random_steps(rng, n, n_pcs=24):
    pcs = [0x400 + 4 * rng.randrange(n_pcs) for _ in range(n)]
    return pcs, [rng.randrange(2) for _ in range(n)]


def _one_cell_steps(rng, n):
    # A single load: one cell of every pc-indexed table, trained up to
    # saturation, then down, then at random.
    third = n // 3
    outcomes = ([1] * third + [0] * third
                + [rng.randrange(2) for _ in range(n - 2 * third)])
    return [0x7F0] * n, outcomes


def _covering_steps(rng, n):
    # One window over many distinct loads, so a 16-entry pc-indexed
    # table sees every one of its cells.
    pcs = [0x10000 + 4 * k for k in range(n)]
    rng.shuffle(pcs)
    return pcs, [rng.randrange(2) for _ in range(n)]


def _distances_for(family, rng, outcomes):
    if family != "cht":
        return None
    return [rng.choice((-1, 0, 1, 2, 5, 9)) for _ in outcomes]


@pytest.mark.parametrize(
    "kind,params", MIXED_KINDS,
    ids=[kind + "".join(f"-{k}={v}" for k, v in params.items())
         for kind, params in MIXED_KINDS])
def test_mixed_kernel_and_scalar_session(kind, params):
    """One predictor fed kernel windows, scalar runs and single steps
    stays in lockstep with a twin fed only scalar steps."""
    spec = spec_for(kind, **params)
    family = spec.family
    mixed = build_predictor(spec)
    twin = build_predictor(spec)
    assert batchapi.supports_steps(family, mixed)
    rng = random.Random(f"{kind}{sorted(params.items())}")

    def kernel(pcs, outcomes, distances):
        return batchapi.replay_steps(
            family, mixed, numpy.asarray(pcs, dtype=numpy.int64),
            numpy.asarray(outcomes, dtype=numpy.int64),
            None if distances is None
            else numpy.asarray(distances, dtype=numpy.int64)).tolist()

    def scalar(pcs, outcomes, distances):
        return scalar_steps(family, mixed, pcs, outcomes, distances)

    def single(pcs, outcomes, distances):
        distance = distances[0] if distances and distances[0] >= 1 else None
        return [apply_step(family, mixed, pcs[0], outcomes[0],
                           distance=distance)]

    plan = [
        (kernel, _random_steps(rng, WINDOW)),
        (scalar, _random_steps(rng, 37)),
        (single, _random_steps(rng, 1)),
        (kernel, _one_cell_steps(rng, WINDOW)),
        (single, _one_cell_steps(rng, 1)),
        (kernel, _covering_steps(rng, WINDOW)),
        (scalar, _covering_steps(rng, 19)),
        (kernel, _random_steps(rng, 1)),
        (kernel, _random_steps(rng, WINDOW, n_pcs=3)),
        (single, _random_steps(rng, 1)),
        (kernel, _one_cell_steps(rng, WINDOW)),
    ]
    for step, (pcs, outcomes) in plan:
        distances = _distances_for(family, rng, outcomes)
        got = step(pcs, outcomes, distances)
        expected = scalar_steps(family, twin, pcs, outcomes, distances)
        assert got == expected, step.__name__
        assert pickle.dumps(mixed) == pickle.dumps(twin), step.__name__


def test_covering_window_reaches_every_cell():
    # Guards the premise of the mixed-session plan above: the 16-entry
    # bimodal, local-history and CHT tables are all indexed this way.
    pcs, _ = _covering_steps(random.Random(0), WINDOW)
    assert {bits.pc_index(pc, 4) for pc in pcs} == set(range(16))


class _Recording(bytearray):
    """A table's cells that remember every index a kernel reads or writes."""

    def __init__(self, cells):
        super().__init__(cells)
        self.touched = set()

    def __getitem__(self, i):
        self.touched.add(i)
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.touched.add(i)
        super().__setitem__(i, value)


@pytest.mark.parametrize("kind", ["binary.bimodal", "cht.tagless",
                                  "binary.gskew"])
def test_kernels_touch_only_indexed_cells(kind):
    spec = spec_for(kind)
    rng = random.Random(3)
    pcs, outcomes = _random_steps(rng, WINDOW)
    predictor = build_predictor(spec)
    twin = build_predictor(spec)
    if kind == "binary.gskew":
        tables = predictor._banks
        expected = [set() for _ in tables]
        for pc, outcome in zip(pcs, outcomes):
            indices = bits.skew_indices(pc, twin._history,
                                        bits.ilog2(twin.bank_entries))
            for cells, index in zip(expected, indices):
                cells.add(index)
            twin.update(pc, bool(outcome))
        twin_tables = twin._banks
    else:
        tables = [predictor._counters if kind == "cht.tagless"
                  else predictor._table]
        n_bits = bits.ilog2(len(tables[0]))
        expected = [{bits.pc_index(pc, n_bits) for pc in pcs}]
        scalar_steps(spec.family, twin, pcs, outcomes)
        twin_tables = [twin._counters if kind == "cht.tagless"
                       else twin._table]
    recorders = []
    for table in tables:
        table.cells = _Recording(table.cells)
        recorders.append(table.cells)
    batchapi.replay_steps(spec.family, predictor,
                          numpy.asarray(pcs, dtype=numpy.int64),
                          numpy.asarray(outcomes, dtype=numpy.int64))
    for table, recorder, cells, twin_table in zip(tables, recorders,
                                                  expected, twin_tables):
        assert table.cells is recorder  # walked in place, not replaced
        assert recorder.touched == cells
        assert bytes(recorder) == bytes(twin_table.cells)

"""Exactness of the counter and history walks vs. the scalar cells."""

import random

import numpy as np
import pytest

from repro.common import bits
from repro.fastpath.scan import (
    counter_walk,
    global_history_walk,
    register_walk,
)
from repro.predictors.counters import CounterTable, SaturatingCounter


def _table(initial, counter_bits):
    table = CounterTable(len(initial), counter_bits)
    table.cells[:] = bytes(initial)
    return table


def _walk(cell_ids, ups, initial, counter_bits):
    table = _table(initial, counter_bits)
    before = counter_walk(table, np.array(cell_ids, dtype=np.int64),
                          np.array(ups, dtype=bool))
    return before, list(table.cells)


def _scalar_counter_walk(cell_ids, ups, initial, counter_bits):
    cells = [SaturatingCounter(counter_bits, initial=v) for v in initial]
    before = []
    for cell_id, up in zip(cell_ids, ups):
        before.append(cells[cell_id].value)
        cells[cell_id].train(up)
    return before, [c.value for c in cells]


class TestClampedWalk:
    """:func:`counter_walk` — each cell a value clamped to [0, max]."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_saturating_counters(self, seed):
        rng = random.Random(seed)
        counter_bits = rng.choice([1, 2, 3])
        max_value = (1 << counter_bits) - 1
        n_cells = rng.choice([1, 2, 16, 64])
        n = rng.randrange(0, 600)
        cell_ids = [rng.randrange(n_cells) for _ in range(n)]
        ups = [rng.random() < 0.5 for _ in range(n)]
        initial = [rng.randrange(max_value + 1) for _ in range(n_cells)]
        exp_before, exp_final = _scalar_counter_walk(
            cell_ids, ups, initial, counter_bits)
        before, final = _walk(cell_ids, ups, initial, counter_bits)
        assert before.dtype == np.int64
        assert before.tolist() == exp_before
        assert final == exp_final

    def test_empty_stream_is_identity(self):
        before, final = _walk([], [], [0, 3, 1], 2)
        assert len(before) == 0
        assert final == [0, 3, 1]

    def test_single_cell_saturation_run(self):
        n = 50
        before, final = _walk([0] * n, [True] * n, [0], 2)
        assert before.tolist() == [0, 1, 2] + [3] * (n - 3)
        assert final == [3]

    def test_untouched_cells_keep_initial_values(self):
        before, final = _walk([2, 2], [True, True], [1, 2, 0, 3], 2)
        assert before.tolist() == [0, 1]
        assert final == [1, 2, 2, 3]


class TestHistoryWalk:
    """:func:`register_walk` — per-PC shift registers of outcomes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_shift_history(self, seed):
        rng = random.Random(seed + 50)
        length = rng.choice([1, 4, 8, 11, 20])
        n_groups = rng.choice([1, 3, 32])
        n = rng.randrange(0, 500)
        group_ids = [rng.randrange(n_groups) for _ in range(n)]
        outcomes = [rng.random() < 0.5 for _ in range(n)]
        initial = [rng.randrange(1 << length) for _ in range(n_groups)]
        registers = list(initial)
        expected = []
        for group, outcome in zip(group_ids, outcomes):
            expected.append(registers[group])
            registers[group] = bits.shift_history(registers[group],
                                                  outcome, length)
        walked = list(initial)
        before = register_walk(walked, np.array(group_ids, dtype=np.int64),
                               np.array(outcomes, dtype=bool), length)
        assert before == expected
        assert walked == registers
        assert all(type(r) is int for r in walked)

    def test_initial_history_bits_shift_out(self):
        # A register starting at all-ones must lose one initial bit per
        # event until only the event window remains.
        registers = [0b1111]
        before = register_walk(registers, np.zeros(6, dtype=np.int64),
                               np.zeros(6, dtype=bool), 4)
        assert before == [0b1111, 0b1110, 0b1100, 0b1000, 0, 0]
        assert registers == [0]


class TestGlobalHistoryWalk:
    def test_matches_scalar_register(self):
        rng = random.Random(99)
        outcomes = [rng.random() < 0.5 for _ in range(700)]
        history = 0b1011
        expected = []
        register = history
        for outcome in outcomes:
            expected.append(register)
            register = bits.shift_history(register, outcome, 11)
        before, final = global_history_walk(
            np.array(outcomes, dtype=bool), history, 11)
        assert before.tolist() == expected
        assert final == register

    @pytest.mark.parametrize("length", [0, 1, 5, 20])
    @pytest.mark.parametrize("n", [0, 1, 3, 64])
    def test_short_streams_and_widths(self, length, n):
        rng = random.Random(length * 100 + n)
        outcomes = [rng.random() < 0.5 for _ in range(n)]
        register = rng.randrange(1 << length) if length else 0
        expected = []
        for outcome in outcomes:
            expected.append(register)
            register = bits.shift_history(register, outcome, length)
        before, final = global_history_walk(
            np.array(outcomes, dtype=bool), expected[0] if n else register,
            length)
        assert before.tolist() == expected
        assert final == register

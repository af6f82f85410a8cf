"""Element-wise equivalence of the vectorized bits.* mirrors.

The parametrized cases name table sizes in entries; both sides take
the index width, ``bits.ilog2(n_entries)``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import bits
from repro.fastpath.indices import (
    _h_arr,
    _h_inv_arr,
    fold_arr,
    gshare_index_arr,
    pc_index_arr,
    skew_indices_arr,
)

SEEDS = (1, 2, 3)


def _values(seed, n=2000, width=40):
    rng = random.Random(seed)
    edge = [0, 1, 2, (1 << 32) - 1, (1 << width) - 1]
    return edge + [rng.randrange(1 << width) for _ in range(n)]


class TestFold:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 8, 11, 12, 17, 20, 31])
    def test_matches_scalar(self, seed, n_bits):
        values = _values(seed)
        expected = [bits.fold(v, n_bits) for v in values]
        got = fold_arr(np.array(values, dtype=np.uint64), n_bits)
        assert got.tolist() == expected

    def test_empty_and_zero_inputs(self):
        assert fold_arr(np.zeros(0, dtype=np.uint64), 4).tolist() == []
        assert fold_arr(np.zeros(3, dtype=np.uint64), 4).tolist() == [0] * 3

    def test_input_is_not_modified(self):
        values = np.array([(1 << 40) - 1, 7], dtype=np.uint64)
        fold_arr(values, 5)
        assert values.tolist() == [(1 << 40) - 1, 7]

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            fold_arr(np.array([1], dtype=np.uint64), 0)


class TestPcIndex:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_entries", [1, 2, 128, 2048, 4096, 32768])
    def test_matches_scalar(self, seed, n_entries):
        pcs = _values(seed, width=32)
        n_bits = bits.ilog2(n_entries)
        expected = [bits.pc_index(pc, n_bits) for pc in pcs]
        got = pc_index_arr(np.array(pcs, dtype=np.int64), n_bits)
        assert got.tolist() == expected

    def test_indices_in_range(self):
        pcs = np.array(_values(7, width=32), dtype=np.int64)
        got = pc_index_arr(pcs, 10)
        assert got.min() >= 0 and got.max() < 1024

    def test_zero_bits_is_index_zero(self):
        pcs = np.array(_values(8, width=32), dtype=np.int64)
        assert pc_index_arr(pcs, 0).tolist() == [0] * len(pcs)


class TestGShareIndex:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_entries", [32, 512, 2048])
    def test_matches_scalar(self, seed, n_entries):
        rng = random.Random(seed + 100)
        pcs = _values(seed, width=32)
        hists = [rng.randrange(1 << 20) for _ in pcs]
        n_bits = bits.ilog2(n_entries)
        expected = [bits.gshare_index(pc, h, n_bits)
                    for pc, h in zip(pcs, hists)]
        got = gshare_index_arr(np.array(pcs, dtype=np.int64),
                               np.array(hists, dtype=np.int64), n_bits)
        assert got.tolist() == expected


class TestSkewIndex:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bank", [0, 1, 2])
    @pytest.mark.parametrize("n_entries", [64, 1024])
    def test_matches_scalar(self, seed, bank, n_entries):
        rng = random.Random(seed + 200)
        pcs = _values(seed, width=32)
        hists = [rng.randrange(1 << 20) for _ in pcs]
        n_bits = bits.ilog2(n_entries)
        expected = [bits.skew_indices(pc, h, n_bits)[bank]
                    for pc, h in zip(pcs, hists)]
        got = skew_indices_arr(np.array(pcs, dtype=np.int64),
                               np.array(hists, dtype=np.int64),
                               n_bits)[bank]
        assert got.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(n_bits=st.integers(1, 16),
           pairs=st.lists(st.tuples(st.integers(0, (1 << 32) - 1),
                                    st.integers(0, (1 << 20) - 1)),
                          min_size=1, max_size=40))
    def test_every_width_matches_scalar(self, n_bits, pairs):
        pcs = np.array([pc for pc, _ in pairs], dtype=np.int64)
        hists = np.array([h for _, h in pairs], dtype=np.int64)
        banks = skew_indices_arr(pcs, hists, n_bits)
        got = list(zip(*(bank.tolist() for bank in banks)))
        assert got == [bits.skew_indices(pc, h, n_bits) for pc, h in pairs]


class TestMixers:
    @pytest.mark.parametrize("n_bits", [1, 2, 5, 10])
    def test_h_and_inverse_match_scalar(self, n_bits):
        values = list(range(1 << min(n_bits, 10)))
        arr = np.array(values, dtype=np.uint64)
        assert (_h_arr(arr, n_bits).tolist()
                == [bits._h(v, n_bits) for v in values])
        assert (_h_inv_arr(arr, n_bits).tolist()
                == [bits._h_inv(v, n_bits) for v in values])

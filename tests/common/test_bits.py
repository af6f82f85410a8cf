"""Tests for repro.common.bits."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import bits


class TestMaskExtractFold:
    def test_mask(self):
        assert bits.mask(0) == 0
        assert bits.mask(4) == 0xF
        assert bits.mask(10) == 0x3FF

    def test_mask_negative(self):
        with pytest.raises(ValueError):
            bits.mask(-1)

    def test_extract(self):
        assert bits.extract(0b110100, 2, 3) == 0b101
        assert bits.extract(0xFF00, 8, 8) == 0xFF

    def test_fold_short_value(self):
        assert bits.fold(0x5, 8) == 0x5

    def test_fold_wraps(self):
        # 0x1234 folded to 8 bits: 0x34 ^ 0x12
        assert bits.fold(0x1234, 8) == 0x34 ^ 0x12

    def test_fold_requires_positive_width(self):
        with pytest.raises(ValueError):
            bits.fold(0x1234, 0)


class TestIlog2:
    def test_powers(self):
        assert bits.ilog2(1) == 0
        assert bits.ilog2(1024) == 10

    def test_non_power_rejected(self):
        with pytest.raises(ValueError):
            bits.ilog2(24)
        with pytest.raises(ValueError):
            bits.ilog2(0)


class TestPcIndex:
    def test_in_range(self):
        for pc in (0x400000, 0x400004, 0x7FFF0000, 0x12345678):
            assert 0 <= bits.pc_index(pc, 10) < 1024

    def test_single_entry(self):
        # A one-entry table has a 0-bit index.
        for pc in (0, 0x400000, 0xFFFFFFFF):
            assert bits.pc_index(pc, 0) == 0

    def test_alignment_insensitive(self):
        # The two low bits are dropped: pc and pc+1 share an index.
        assert bits.pc_index(0x400000, 8) == bits.pc_index(0x400001, 8)

    def test_spreads_regular_strides(self):
        # Page-strided PCs must not all collapse onto a few indices.
        indices = {bits.pc_index(0x400000 + i * 0x1000, 8)
                   for i in range(64)}
        assert len(indices) > 32


class TestGshareIndex:
    def test_in_range(self):
        for history in (0, 0x3FF, 0x155):
            assert 0 <= bits.gshare_index(0x400100, history, 11) < 2048

    def test_history_changes_index(self):
        pc = 0x400100
        a = bits.gshare_index(pc, 0b1010, 11)
        b = bits.gshare_index(pc, 0b0101, 11)
        assert a != b


class TestSkewing:
    def test_h_inverse_roundtrip(self):
        for value in range(64):
            assert bits._h_inv(bits._h(value, 6), 6) == value

    def test_skew_banks_differ(self):
        idx = bits.skew_indices(0x400100, 0x1F, 10)
        assert len(idx) == 3
        assert len(set(idx)) > 1

    def test_skew_in_range(self):
        for index in bits.skew_indices(0x400100, 7, 10):
            assert 0 <= index < 1024

    @settings(max_examples=300, deadline=None)
    @given(pc=st.integers(0, (1 << 32) - 1),
           history=st.integers(0, (1 << 24) - 1),
           n_bits=st.integers(1, 16))
    # Width 1 keeps H's n_bits < 2 branch: a 1-bit value has no second
    # bit to shift down to.
    @example(pc=0x4, history=1, n_bits=1)
    @example(pc=0x400104, history=0b10, n_bits=1)
    def test_fused_indices_equal_the_per_bank_functions(self, pc, history,
                                                        n_bits):
        expected = tuple(_per_bank_skew_index(pc, history, bank, n_bits)
                         for bank in range(3))
        assert bits.skew_indices(pc, history, n_bits) == expected


def _per_bank_skew_index(pc, history, bank, n_bits):
    """One gskew bank's index, computed on its own: the Michaud/Seznec
    H and H^-1 mixers written out, then the bank's composition."""
    m = (1 << n_bits) - 1

    def h(value):
        msb = (value >> (n_bits - 1)) & 1
        second = (value >> (n_bits - 2)) & 1 if n_bits >= 2 else 0
        return ((value << 1) & m) | (msb ^ second)

    def h_inv(value):
        lsb = value & 1
        msb = (value >> (n_bits - 1)) & 1
        return (value >> 1) | ((lsb ^ msb) << (n_bits - 1))

    v1 = bits.fold(pc >> 2, n_bits)
    v2 = bits.fold(history, n_bits)
    if bank == 0:
        return h(v1) ^ h_inv(v2) ^ v2
    if bank == 1:
        return h(v1) ^ h_inv(v2) ^ v1
    return h(v2) ^ h_inv(v1) ^ v2


class TestShiftHistory:
    def test_shift_in(self):
        h = 0
        h = bits.shift_history(h, True, 4)
        assert h == 0b0001
        h = bits.shift_history(h, True, 4)
        h = bits.shift_history(h, False, 4)
        assert h == 0b0110

    def test_truncates_to_length(self):
        h = bits.mask(4)
        h = bits.shift_history(h, True, 4)
        assert h == bits.mask(4)


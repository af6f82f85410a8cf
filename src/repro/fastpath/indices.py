"""Vectorized mirrors of :mod:`repro.common.bits`.

Every function here computes, over whole event arrays at once, exactly
what its scalar counterpart computes per call, with the same signature
(index widths in bits); the differential tests in
``tests/fastpath/test_indices.py`` pin that equivalence element-wise.

All internal arithmetic runs on ``uint64`` arrays: the widest scalar
intermediate is ``(pc >> 2) * _MIX`` which fits comfortably, and the
unsigned dtype sidesteps numpy's signed/unsigned promotion pitfalls.
Results are returned as ``int64`` so they can be used directly as table
indices and mixed with Python ints.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.common.bits import _MIX

_U64 = np.uint64


def as_u64(values) -> np.ndarray:
    """Coerce a sequence of non-negative ints to a uint64 array."""
    return np.asarray(values, dtype=_U64)


def fold_arr(values: np.ndarray, n_bits: int) -> np.ndarray:
    """XOR-fold each element down to ``n_bits`` bits (= ``bits.fold``).

    The scalar loop runs while the value is non-zero; folding in extra
    zero chunks is an XOR no-op, so running every element for the pass
    count of the widest one is exact.
    """
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    v = as_u64(values)
    m = _U64((1 << n_bits) - 1)
    shift = _U64(n_bits)
    folded = v & m
    widest = int(v.max()).bit_length() if len(v) else 0
    for _ in range((widest - 1) // n_bits):
        v = v >> shift
        folded ^= v & m
    return folded.astype(np.int64)


def pc_index_arr(pcs: np.ndarray, n_bits: int, shift: int = 2) -> np.ndarray:
    """Per-element ``bits.pc_index``."""
    pcs = as_u64(pcs)
    if not n_bits:
        return np.zeros(len(pcs), dtype=np.int64)
    mixed = ((pcs >> _U64(shift)) * _U64(_MIX)) & _U64(0xFFFFFFFF)
    return fold_arr(mixed >> _U64(8), n_bits)


def gshare_index_arr(pcs: np.ndarray, histories: np.ndarray,
                     n_bits: int, shift: int = 2) -> np.ndarray:
    """Per-element ``bits.gshare_index`` (history may vary per event)."""
    folded_pc = fold_arr(as_u64(pcs) >> _U64(shift), n_bits)
    return folded_pc ^ fold_arr(histories, n_bits)


def _h_arr(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-element ``bits._h`` on uint64 arrays of n_bits-wide values."""
    v = as_u64(values)
    m = _U64((1 << n_bits) - 1)
    msb = (v >> _U64(n_bits - 1)) & _U64(1)
    second = ((v >> _U64(n_bits - 2)) & _U64(1)) if n_bits >= 2 else np.zeros_like(v)
    return ((v << _U64(1)) & m) | (msb ^ second)


def _h_inv_arr(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Per-element ``bits._h_inv``."""
    v = as_u64(values)
    lsb = v & _U64(1)
    msb = (v >> _U64(n_bits - 1)) & _U64(1)
    return (v >> _U64(1)) | ((lsb ^ msb) << _U64(n_bits - 1))


def skew_indices_arr(pcs: np.ndarray, histories: np.ndarray,
                     n_bits: int, shift: int = 2,
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element ``bits.skew_indices``: gskew banks 0, 1 and 2."""
    v1 = as_u64(fold_arr(as_u64(pcs) >> _U64(shift), n_bits))
    v2 = as_u64(fold_arr(histories, n_bits))
    mixed = _h_arr(v1, n_bits) ^ _h_inv_arr(v2, n_bits)
    banks = (mixed ^ v2, mixed ^ v1,
             _h_arr(v2, n_bits) ^ _h_inv_arr(v1, n_bits) ^ v2)
    return tuple(bank.astype(np.int64) for bank in banks)

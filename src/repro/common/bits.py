"""Bit-manipulation helpers shared by the predictor tables.

All predictor tables in the paper index with subsets of the linear
instruction pointer, fold longer histories onto shorter indices, and use
skewed hash functions (gskew).  These helpers centralise that arithmetic.

A table's geometry is fixed when it is built, so the index functions
take the index width in bits, never an entry count: each table derives
its widths once (:class:`FixedWidths`) instead of on every lookup.
"""

from __future__ import annotations

from typing import Dict, Tuple


def mask(n_bits: int) -> int:
    """An ``n_bits``-wide all-ones mask."""
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    return (1 << n_bits) - 1


def extract(value: int, lo: int, n_bits: int) -> int:
    """Bits ``[lo, lo+n_bits)`` of ``value``."""
    return (value >> lo) & mask(n_bits)


def fold(value: int, n_bits: int) -> int:
    """XOR-fold an arbitrarily wide value down to ``n_bits`` bits."""
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    folded = 0
    m = (1 << n_bits) - 1
    while value:
        folded ^= value & m
        value >>= n_bits
    return folded


def ilog2(value: int) -> int:
    """Exact integer log2; raises if ``value`` is not a power of two.

    Tables call it once, at construction, to fix the index width their
    lookups then pass to the index functions below."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


#: Knuth's multiplicative-hash constant (golden ratio of 2^32).
_MIX = 2654435761


def pc_index(pc: int, n_bits: int, shift: int = 2) -> int:
    """Direct-mapped ``n_bits``-wide table index from an instruction
    pointer (0 for a one-entry table, ``n_bits == 0``).

    The low ``shift`` bits are dropped (instruction alignment), then the
    pointer is mixed multiplicatively before folding onto the index
    width.  A plain XOR-fold of "a subset of the linear instruction
    pointer bits" (section 2.1) produces *systematic* aliasing when code
    is laid out at regular strides; the multiplicative mix keeps the
    aliasing that remains capacity-shaped rather than layout-shaped.
    """
    if not n_bits:
        return 0
    value = (((pc >> shift) * _MIX) & 0xFFFFFFFF) >> 8
    m = (1 << n_bits) - 1
    folded = 0
    while value:  # fold(), inlined: this runs on every table lookup
        folded ^= value & m
        value >>= n_bits
    return folded


def gshare_index(pc: int, history: int, n_bits: int, shift: int = 2) -> int:
    """Classic gshare index: PC xor global history, each folded to
    ``n_bits``."""
    return fold(pc >> shift, n_bits) ^ fold(history, n_bits)


# --- Skewing functions (gskew) --------------------------------------------
#
# The e-gskew predictor of Michaud & Seznec indexes each of its banks with
# a different skewing function built from a simple invertible bit mixer H
# and its inverse.  We implement the standard H/H^-1 on n-bit values.


def _h(value: int, n_bits: int) -> int:
    """The Michaud/Seznec H function: one step of an LFSR-like mix."""
    msb = (value >> (n_bits - 1)) & 1
    second = (value >> (n_bits - 2)) & 1 if n_bits >= 2 else 0
    return ((value << 1) & ((1 << n_bits) - 1)) | (msb ^ second)


def _h_inv(value: int, n_bits: int) -> int:
    """Inverse of :func:`_h`."""
    lsb = value & 1
    msb = (value >> (n_bits - 1)) & 1
    return (value >> 1) | ((lsb ^ msb) << (n_bits - 1))


def skew_indices(pc: int, history: int, n_bits: int,
                 shift: int = 2) -> Tuple[int, int, int]:
    """The ``n_bits``-wide indices of gskew banks 0, 1 and 2.

    Each bank mixes the same (pc, history) pair through a different
    composition of H and H^-1 so that two addresses aliasing in one bank
    rarely alias in the others (the skewing property).  The folded pc
    and history and the H(pc) ^ H^-1(history) term are shared by the
    banks, so one call computes all three.
    """
    v1 = fold(pc >> shift, n_bits)
    v2 = fold(history, n_bits)
    mixed = _h(v1, n_bits) ^ _h_inv(v2, n_bits)
    return (mixed ^ v2, mixed ^ v1,
            _h(v2, n_bits) ^ _h_inv(v1, n_bits) ^ v2)


class FixedWidths:
    """Mixin for a table that fixes its index widths at construction.

    ``_WIDTHS`` maps each width attribute to the entry-count attribute
    it is the exact log2 of; ``__init__`` calls ``_derive()`` once the
    entry counts are set, which also rejects a count that is not a
    power of two.  Widths stay out of the pickled state and
    ``_derive()`` rebuilds them on unpickle, so the pickle holds the
    table's parameters and contents and nothing else.
    """

    _WIDTHS: Dict[str, str] = {}

    def _derive(self) -> None:
        for width, entries in self._WIDTHS.items():
            setattr(self, width, ilog2(getattr(self, entries)))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for width in self._WIDTHS:
            del state[width]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive()


def shift_history(history: int, outcome: bool, length: int) -> int:
    """Shift a binary outcome into an ``length``-bit history register."""
    return ((history << 1) | int(outcome)) & ((1 << length) - 1)

"""Fixed-length bit words under the coordinatewise order, plus combinadics.

A word y dominates w when every coordinate of w is also set in y: the only
order a write-once memory can move along. Fixed-weight words are ranked in
colexicographic order of their support sets, giving the bijection used for
subset-valued messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class BitWord:
    """length coordinates stored as an integer mask (bit i = coordinate i)."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError(f"bits 0x{self.bits:x} out of range for length {self.length}")

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        """Indices of set coordinates, ascending."""
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    @classmethod
    def from_support(cls, indices: Iterable[int], length: int) -> "BitWord":
        bits = 0
        for i in indices:
            bits |= 1 << i
        return cls(length, bits)

    @classmethod
    def zeros(cls, length: int) -> "BitWord":
        return cls(length, 0)


def dominates(y: BitWord, w: BitWord) -> bool:
    """True iff w <= y coordinatewise (y can be reached from w by 0->1 writes)."""
    if y.length != w.length:
        raise ValueError(f"length mismatch: {y.length} vs {w.length}")
    return w.bits & y.bits == w.bits


def enumerate_above(w: BitWord, max_weight: int) -> Iterator[int]:
    """The masks of all y >= w with weight(y) <= max_weight, ascending.

    Empty when weight(w) already exceeds max_weight, which signals an
    infeasible round state to the caller rather than raising here.
    """
    budget = max_weight - w.weight
    if budget < 0:
        return
    free = ~w.bits & ((1 << w.length) - 1)
    s = 0
    while True:
        if s.bit_count() <= budget:
            yield w.bits | s
        # next submask of `free` in ascending integer order
        s = (s - free) & free
        if s == 0:
            return


def count_above(w: BitWord, max_weight: int) -> int:
    """Size of enumerate_above(w, max_weight) without enumerating."""
    budget = max_weight - w.weight
    if budget < 0:
        return 0
    free = w.length - w.weight
    return sum(comb(free, j) for j in range(min(budget, free) + 1))


# Round 1 draws every data word from the C(n, B_1) words of one weight (120
# at n = 10, B_1 = 3), so ranking and unranking are cached; the bound keeps a
# long-lived process from holding up to C(24, 12), about 2.7 M, words.
_CACHE_WORDS = 512


def subset_rank(word: BitWord, weight: int) -> int:
    """Colexicographic rank of a weight-`weight` word among all such words.

    The rank is the sum of C(c_j, j) over the set coordinates c_1 < c_2 < ...
    """
    if word.bits.bit_count() != weight:
        raise ValueError(f"word has weight {word.weight}, expected {weight}")
    return _colex_rank(word.bits)


@lru_cache(maxsize=_CACHE_WORDS)
def _colex_rank(bits: int) -> int:
    rank = 0
    j = 1
    while bits:
        low = bits & -bits
        rank += comb(low.bit_length() - 1, j)
        bits ^= low
        j += 1
    return rank


@lru_cache(maxsize=_CACHE_WORDS)
def subset_unrank(rank: int, length: int, weight: int) -> BitWord:
    """Inverse of subset_rank: the weight-`weight` word of given colex rank."""
    if not 0 <= weight <= length:
        raise ValueError(f"weight {weight} out of range for length {length}")
    total = comb(length, weight)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range, expected 0..{total - 1}")
    bits = 0
    c = length - 1
    for j in range(weight, 0, -1):
        while comb(c, j) > rank:
            c -= 1
        bits |= 1 << c
        rank -= comb(c, j)
    return BitWord(length, bits)


# Splitting and joining fixed-width fields of a long integer. Shifting the
# whole integer once per field costs time quadratic in the field count. These
# go through one byte string instead: eight fields of w bits fill exactly w
# bytes, so every group of eight starts on a byte boundary and is converted
# on its own, in time linear in the total length.


def _split_fields(value: int, width: int, count: int) -> Iterator[int]:
    """Yield the low count * width bits of value as count fields, field 0 first."""
    mask = (1 << width) - 1
    raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
    for start in range(0, count, 8):
        group = int.from_bytes(raw[start * width // 8 : (start + 8) * width // 8], "little")
        for _ in range(min(8, count - start)):
            yield group & mask
            group >>= width


def _join_fields(fields: Iterable[int], width: int) -> int:
    """Inverse of _split_fields: the sum of fields[i] << (i * width).

    Every field must fit in width bits.
    """
    out = bytearray()
    group = shift = 0
    for value in fields:
        group |= value << shift
        shift += width
        if shift == 8 * width:
            out += group.to_bytes(width, "little")
            group = shift = 0
    out += group.to_bytes((shift + 7) // 8, "little")
    return int.from_bytes(out, "little")

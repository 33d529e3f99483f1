"""Fixed-length bit words under the coordinatewise order, plus combinadics.

A word y dominates w when every coordinate of w is also set in y: the only
order a write-once memory can move along. Fixed-weight words are ranked in
colexicographic order of their support sets, giving the bijection used for
subset-valued messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True, init=False)
class BitWord:
    """length coordinates stored as an integer mask (bit i = coordinate i)."""

    length: int
    bits: int

    def __init__(self, length: int, bits: int):
        if type(length) is not int or type(bits) is not int:
            field, value = ("bits", bits) if type(length) is int else ("length", length)
            raise ValueError(f"{field} {value!r} is not an int")
        if length < 0:
            raise ValueError("length must be nonnegative")
        if not 0 <= bits < (1 << length):
            raise ValueError(f"bits 0x{bits:x} out of range for length {length}")
        _set_length(self, length)
        _set_bits(self, bits)

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


# The slots' own setters: the frozen dataclass's __setattr__ refuses to assign.
_set_length, _set_bits = (BitWord.__dict__[name].__set__ for name in ("length", "bits"))


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


# Decoding ranks each round-1 word, one of the C(n, B_1) words of one weight
# (120 at n = 10, B_1 = 3), so ranking is cached; the bound keeps a long-lived
# process from holding up to C(24, 12), about 2.7 M, words.
_CACHE_WORDS = 512


def subset_rank(word: BitWord, weight: int) -> int:
    """Colexicographic rank of a weight-`weight` word among all such words.

    The rank is the sum of C(c_j, j) over the set coordinates c_1 < c_2 < ...
    """
    if word.bits.bit_count() != weight:
        raise ValueError(f"word has weight {word.weight}, expected {weight}")
    return colex_rank(word.bits)


@lru_cache(maxsize=_CACHE_WORDS)
def colex_rank(bits: int) -> int:
    """subset_rank of a mask among the words of its own weight, which is not checked."""
    rank = 0
    j = 1
    while bits:
        low = bits & -bits
        rank += comb(low.bit_length() - 1, j)
        bits ^= low
        j += 1
    return rank


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
# on its own, in time linear in the total length. One list comprehension
# cuts or glues each group with seven fixed shifts, not one step per field.


def _split_fields(value: int, width: int, count: int) -> list[int]:
    """The low count * width bits of value as count fields, field 0 first."""
    mask, groups = (1 << width) - 1, -(-count // 8)  # whole groups of eight, zero-padded
    raw = (value & ((1 << 8 * width * groups) - 1)).to_bytes(width * groups, "little")
    s1, s2, s3, s4, s5, s6, s7 = (width * i for i in range(1, 8))
    return [field for g in [int.from_bytes(raw[k * width : (k + 1) * width], "little") for k in range(groups)]
            for field in (g & mask, g >> s1 & mask, g >> s2 & mask, g >> s3 & mask,
                          g >> s4 & mask, g >> s5 & mask, g >> s6 & mask, g >> s7 & mask)][:count]


def _join_fields(fields: Iterable[int], width: int) -> int:
    """Inverse of _split_fields: the sum of fields[i] << (i * width).

    Every field must fit in width bits.
    """
    s1, s2, s3, s4, s5, s6, s7 = (width * i for i in range(1, 8))
    groups = zip(*[chain(fields, [0] * 7)] * 8)  # the last group ends in zero fields
    return int.from_bytes(b"".join([
        (a | b << s1 | c << s2 | d << s3 | e << s4 | f << s5 | g << s6 | h << s7).to_bytes(width, "little")
        for a, b, c, d, e, f, g, h in groups]), "little")

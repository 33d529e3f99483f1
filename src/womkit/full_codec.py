"""Concatenation of independent coded blocks and bitstream packing.

A full code is n1 side-by-side copies of the basic block; blocks encode
and decode independently (each may pick its own hash coefficients), so
concatenation preserves the rate while the per-block search cost becomes
polynomial in the total length. This module exports
`block_codec.full_encode_round`, which writes one round of one image. It
splits a flat bitstream into per-block round messages, joins them back
under the encoder's rule for entries, and bridges block states to the
flat device memory, where a block's round is its t-bit unary header.

Splitting and joining never shift the whole stream or memory once per
field: they convert it to bytes once and cut or glue each group of eight
fields in one expression, so they cost time linear in the block count. An
image holds few distinct blocks and words: round 1 draws every data word
from C(n, B_1) subsets. So `memory_to_states` cuts each slot as one column
of ints over the distinct blocks and builds one state per distinct block,
through `block_codec._built_state`. Its word tables are plain dicts from
bits to `BitWord`, one for the data words and one per side slot, so equal
words are one object. States and words are immutable, so sharing them is
invisible to callers.

A memory loads only if every block has a unary header and passes
`block_codec.check_block`. Past the header, its verdict is the conjunction
of per-word tests under the block's round, so when all blocks share one
unary header `memory_to_states` runs those tests once over the keys of
each word table. When headers differ or a word fails, it checks the
distinct blocks in order, which names the first faulty one.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Sequence

from .bitwords import BitWord, _Frozen, _join_fields, _split_fields
from .capacity import WomParams
from .block_codec import (BlockState, RoundMessage, _built_state, _check_messages, _check_words, check_block,
                          full_encode_round)


class FullParams(_Frozen):
    """n1 independent copies of one block configuration."""

    __slots__ = _fields = ("block", "n1")

    def __init__(self, block: WomParams, n1: int):
        if type(n1) is not int:
            raise ValueError(f"n1 {n1!r} is not an int")
        if n1 < 1:
            raise ValueError("need at least one block")
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "n1", n1)

    @property
    def N1(self) -> int:
        return self.n1 * self.block.n0

    def round_capacity(self, j: int) -> int:
        """Message bits one round carries across all blocks."""
        return self.n1 * self.block.m * self.block.payload_bits(j)


def pack_messages(stream: BitWord, j: int, params: FullParams) -> list[RoundMessage]:
    """Split a bitstream into per-block round-j messages.

    Round 1 consumes floor(log2(C(n, B_1))) bits per data word as a subset
    rank (always in range by construction); round j >= 2 consumes k_j - l
    bits per data word. Bits are consumed in ascending index order.
    """
    width = params.block.payload_bits(j)
    needed = params.round_capacity(j)
    if stream.length < needed:
        raise ValueError(f"stream has {stream.length} bits, round {j} needs {needed}")
    values = _split_fields(stream.bits, width, params.n1 * params.block.m)
    if j != 1:
        values = [BitWord(width, value) for value in values]
    return [RoundMessage(j, payload) for payload in zip(*[iter(values)] * params.block.m)]


def unpack_messages(msgs: Sequence[RoundMessage], params: FullParams) -> BitWord:
    """Join per-block messages back into the bitstream pack_messages split.

    Entries keep the encoder's message rule, `block_codec._check_messages`,
    which names the block and word of the first fault. The stream adds one
    rule of its own: a round-1 rank must fit the payload_bits(1) bits that
    pack_messages gave it, tested once over the distinct ranks.
    """
    if len(msgs) != params.n1:
        raise ValueError(f"{len(msgs)} messages for {params.n1} blocks")
    rounds = {m.round for m in msgs}
    if len(rounds) != 1:
        raise ValueError(f"messages disagree on the round: {sorted(rounds)}")
    j = rounds.pop()
    width = params.block.payload_bits(j)
    values, distinct = _check_messages(params.block, j, [msg.payload for msg in msgs])
    if j > 1:
        values = [entry.bits for entry in values]
    elif max(distinct) >> width:
        i = next(i for i, value in enumerate(values) if value >> width)
        block, word = divmod(i, params.block.m)
        raise ValueError(f"block {block} word {word}: payload value {values[i]} does not fit in {width} bits")
    return BitWord(len(values) * width, _join_fields(values, width))


def states_to_memory(states: Sequence[BlockState]) -> BitWord:
    """Flatten block states into one device-sized word (block i at i * N_0).

    Each state is one walk over its data words, then its side words, each
    shifted to its slot's offset.
    """
    if not states:
        raise ValueError("need at least one block")
    p = states[0].params
    if any(s.params is not p and s.params != p for s in states):
        raise ValueError("blocks disagree on parameters")
    offsets = [*map(p.data_offset, range(p.m)), *map(p.side_offset, range(p.t - 1))]
    headers = [(1 << r) - 1 for r in range(p.t + 1)]  # round r as a unary header
    blocks = []
    for state in states:
        bits = headers[state.round]
        for offset, word in zip(offsets, state.data + state.sides):
            bits |= word.bits << offset
        blocks.append(bits)
    return BitWord(len(states) * p.n0, _join_fields(blocks, p.n0))


def memory_to_states(memory: BitWord, params: FullParams) -> list[BlockState]:
    """Slice flat device memory back into per-block states, sharing equal blocks and equal words.

    Each slot is one column of ints over the distinct blocks, read through a
    dict of `BitWord`s. A block whose header is no unary round counter, or
    that the codec could not have written, raises ValueError prefixed with
    `block <i>: ` for the first block i that holds it.
    """
    if memory.length != params.N1:
        raise ValueError(f"memory has {memory.length} bits, expected {params.N1}")
    p = params.block
    blocks = list(_split_fields(memory.bits, p.n0, params.n1))
    distinct = list(dict.fromkeys(blocks))
    header_mask, data_mask, side_mask = (1 << p.t) - 1, (1 << p.n) - 1, (1 << 2 * p.n) - 1
    data_cols = [[bits >> at & data_mask for bits in distinct] for at in map(p.data_offset, range(p.m))]
    side_cols = [[bits >> at & side_mask for bits in distinct] for at in map(p.side_offset, range(p.t - 1))]
    datas = {bits: BitWord(p.n, bits) for bits in dict.fromkeys(chain(*data_cols))}
    sides = [{bits: BitWord(2 * p.n, bits) for bits in dict.fromkeys(col)} for col in side_cols]  # one per slot
    block_data = zip(*[map(datas.__getitem__, col) for col in data_cols])
    block_sides = (zip(*[map(table.__getitem__, col) for table, col in zip(sides, side_cols)])
                   if sides else repeat(()))
    headers = {bits & header_mask for bits in distinct}
    r = max(headers).bit_length()
    shared = headers == {(1 << r) - 1}  # one unary header
    rounds = repeat(r) if shared else [(bits & header_mask).bit_length() for bits in distinct]
    states = dict(zip(distinct, map(_built_state, repeat(p), rounds, block_data, block_sides)))
    try:
        if not shared:
            raise ValueError("headers differ or are not unary")
        _check_words(p, r, datas, sides)
    except ValueError:  # check block by block, which names the first faulty one
        for bits, state in states.items():
            header = bits & header_mask
            try:
                if header != (1 << state.round) - 1:
                    raise ValueError(f"header 0b{header:b} is not a unary round counter")
                check_block(state)
            except ValueError as exc:
                raise ValueError(f"block {blocks.index(bits)}: {exc}") from None
    return [states[bits] for bits in blocks]

"""Concatenation of independent coded blocks and bitstream packing.

A full code is n1 side-by-side copies of the basic block; blocks encode
and decode independently (each may pick its own hash coefficients), so
concatenation preserves the rate while the per-block search cost becomes
polynomial in the total length. This module splits a flat bitstream into
per-block round messages, joins them back, and bridges block states to
the flat device memory.

Splitting and joining never shift the whole stream or memory once per
field: they convert it to bytes once and cut or glue fields eight at a time,
so they cost time linear in the block count. An image holds few distinct
blocks and words (round 1 draws every data word from C(n, B_1) subsets,
which `bitwords` ranks and unranks through a cache), so `memory_to_states`
builds one state per distinct block and one word per distinct word. States
and words are immutable, so sharing them is invisible to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitwords import BitWord, _join_fields, _split_fields
from .capacity import WomParams
from .block_codec import BlockState, RoundMessage, encode_round


@dataclass(frozen=True, slots=True)
class FullParams:
    """n1 independent copies of one block configuration."""

    block: WomParams
    n1: int

    def __post_init__(self):
        if self.n1 < 1:
            raise ValueError("need at least one block")

    @property
    def N1(self) -> int:
        return self.n1 * self.block.n0

    def round_capacity(self, j: int) -> int:
        """Message bits one round carries across all blocks."""
        return self.n1 * self.block.m * self.block.payload_bits(j)


def full_encode_round(
    states: Sequence[BlockState], msgs: Sequence[RoundMessage]
) -> list[BlockState]:
    """Encode one round across all blocks; fails atomically.

    States are immutable, so any per-block error (sequencing, no encoding)
    propagates before the caller sees a partially updated list.
    """
    if len(states) != len(msgs):
        raise ValueError(f"{len(states)} states but {len(msgs)} messages")
    if not states:
        raise ValueError("need at least one block")
    rounds = {s.round for s in states}
    if len(rounds) > 1:
        raise ValueError(f"blocks disagree on the current round: {sorted(rounds)}")
    return [encode_round(state, msg) for state, msg in zip(states, msgs)]


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
    m = params.block.m
    values = list(_split_fields(stream.bits, width, params.n1 * m))
    if j != 1:
        values = [BitWord(width, value) for value in values]
    return [RoundMessage(j, tuple(values[i : i + m])) for i in range(0, len(values), m)]


def unpack_messages(msgs: Sequence[RoundMessage], params: FullParams) -> BitWord:
    """Join per-block messages back into the bitstream pack_messages split."""
    if len(msgs) != params.n1:
        raise ValueError(f"{len(msgs)} messages for {params.n1} blocks")
    rounds = {m.round for m in msgs}
    if len(rounds) != 1:
        raise ValueError(f"messages disagree on the round: {sorted(rounds)}")
    j = rounds.pop()
    width = params.block.payload_bits(j)
    values = []
    for msg in msgs:
        if len(msg.payload) != params.block.m:
            raise ValueError(f"payload has {len(msg.payload)} entries, expected {params.block.m}")
        for entry in msg.payload:
            value = int(entry) if j == 1 else entry.bits
            if value >> width:
                raise ValueError(f"payload value {value} does not fit in {width} bits")
            values.append(value)
    return BitWord(len(values) * width, _join_fields(values, width))


def states_to_memory(states: Sequence[BlockState]) -> BitWord:
    """Flatten block states into one device-sized word (block i at i * N_0)."""
    if not states:
        raise ValueError("need at least one block")
    p = states[0].params
    if any(s.params != p for s in states):
        raise ValueError("blocks disagree on parameters")
    data_offsets = [p.data_offset(d) for d in range(p.m)]
    side_offsets = [p.side_offset(s) for s in range(p.t - 1)]
    blocks = []
    for state in states:
        bits = state.header.bits
        for offset, word in zip(data_offsets, state.data):
            bits |= word.bits << offset
        for offset, word in zip(side_offsets, state.sides):
            bits |= word.bits << offset
        blocks.append(bits)
    return BitWord(len(states) * p.n0, _join_fields(blocks, p.n0))


def memory_to_states(memory: BitWord, params: FullParams) -> list[BlockState]:
    """Slice flat device memory back into per-block states.

    Equal blocks share one BlockState and equal words one BitWord: an image
    holds few distinct words (every round-1 data word has weight B_1,
    unwritten side words are zero) and a fresh device one distinct block, so
    sharing saves most of the objects and the time to build them.
    """
    if memory.length != params.N1:
        raise ValueError(f"memory has {memory.length} bits, expected {params.N1}")
    p = params.block
    data_offsets = [p.data_offset(d) for d in range(p.m)]
    side_offsets = [p.side_offset(s) for s in range(p.t - 1)]
    header_mask, data_mask, side_mask = (1 << p.t) - 1, (1 << p.n) - 1, (1 << 2 * p.n) - 1
    headers: dict[int, BitWord] = {}
    datas: dict[int, BitWord] = {}
    sides: dict[int, BitWord] = {}

    def word(seen: dict[int, BitWord], length: int, bits: int) -> BitWord:
        found = seen.get(bits)
        if found is None:
            found = seen[bits] = BitWord(length, bits)
        return found

    states: dict[int, BlockState] = {}
    out = []
    for bits in _split_fields(memory.bits, p.n0, params.n1):
        state = states.get(bits)
        if state is None:
            state = states[bits] = BlockState(
                params=p,
                header=word(headers, p.t, bits & header_mask),
                data=tuple([word(datas, p.n, bits >> offset & data_mask) for offset in data_offsets]),
                sides=tuple([word(sides, 2 * p.n, bits >> offset & side_mask) for offset in side_offsets]),
            )
        out.append(state)
    return out

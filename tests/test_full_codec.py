import random
from binascii import crc32
from fractions import Fraction
from math import comb

import pytest

from womkit.bitwords import BitWord
from womkit.block_codec import BlockState, RoundMessage, decode_round, encode_round, encode_round1
from womkit.capacity import WeightVector, WomParams
from womkit.full_codec import (
    FullParams,
    full_encode_round,
    memory_to_states,
    pack_messages,
    states_to_memory,
    unpack_messages,
)
from womkit.hashfam import hash_apply
from womkit.wom_device import Device, apply_write, load_image, save_image


def params_t2():
    return WomParams(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))


def full_t2(n1):
    return FullParams(params_t2(), n1)


def random_stream(bits, rnd):
    return BitWord(bits, rnd.getrandbits(bits) if bits else 0)


def test_round_capacity_and_round1_bits():
    full = full_t2(4)
    assert full.block.payload_bits(1) == 6  # floor(log2 C(10, 3)) = floor(log2 120)
    assert comb(10, 3) == 120
    assert full.round_capacity(1) == 4 * 4 * 6
    assert full.round_capacity(2) == 4 * 4 * 5
    assert full.N1 == 4 * full.block.n0


def test_single_block_matches_block_codec():
    full = full_t2(1)
    rnd = random.Random(30)
    stream1 = random_stream(full.round_capacity(1), rnd)
    msgs = pack_messages(stream1, 1, full)
    via_full = full_encode_round([BlockState.fresh(full.block)], msgs)[0]
    via_block = encode_round1(BlockState.fresh(full.block), msgs[0])
    assert via_full == via_block


def test_four_blocks_round_trip_50_vectors():
    full = full_t2(4)
    rnd = random.Random(31)
    for _ in range(50):
        states = [BlockState.fresh(full.block) for _ in range(4)]
        for j in (1, 2):
            stream = random_stream(full.round_capacity(j), rnd)
            msgs = pack_messages(stream, j, full)
            states = full_encode_round(states, msgs)
            decoded = [decode_round(state, j) for state in states]
            assert decoded == msgs
            assert unpack_messages(decoded, full) == stream


def test_mismatched_arity_rejected():
    full = full_t2(2)
    states = [BlockState.fresh(full.block)]
    msgs = pack_messages(random_stream(full.round_capacity(1), random.Random(0)), 1, full)
    with pytest.raises(ValueError):
        full_encode_round(states, msgs)
    with pytest.raises(ValueError):
        unpack_messages(msgs[:1], full)


def test_atomic_failure_leaves_states_untouched():
    full = full_t2(2)
    rnd = random.Random(32)
    states = [BlockState.fresh(full.block) for _ in range(2)]
    stream = random_stream(full.round_capacity(2), rnd)
    msgs = pack_messages(stream, 2, full)  # round 2 against fresh blocks
    from womkit.block_codec import SequencingError

    with pytest.raises(SequencingError):
        full_encode_round(states, msgs)
    assert all(state.round == 0 for state in states)


def test_pack_unpack_identity_100_streams():
    full = full_t2(3)
    rnd = random.Random(33)
    for _ in range(100):
        for j in (1, 2):
            stream = random_stream(full.round_capacity(j), rnd)
            assert unpack_messages(pack_messages(stream, j, full), full) == stream


def test_pack_degenerate_round_consumes_nothing():
    block = WomParams(t=2, n=6, m=2, l=2, k=(2,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))
    full = FullParams(block, 2)
    assert full.round_capacity(2) == 0
    msgs = pack_messages(BitWord(0, 0), 2, full)
    assert all(entry.length == 0 for msg in msgs for entry in msg.payload)
    assert unpack_messages(msgs, full).length == 0


def test_pack_insufficient_bits_reports_requirement():
    full = full_t2(2)
    needed = full.round_capacity(1)
    with pytest.raises(ValueError, match=str(needed)):
        pack_messages(BitWord(needed - 1, 0), 1, full)


def test_memory_round_trip():
    full = full_t2(3)
    rnd = random.Random(34)
    states = [BlockState.fresh(full.block) for _ in range(3)]
    for j in (1, 2):
        msgs = pack_messages(random_stream(full.round_capacity(j), rnd), j, full)
        states = full_encode_round(states, msgs)
    memory = states_to_memory(states)
    assert memory.length == full.N1
    assert memory_to_states(memory, full) == states


def test_block_independence_under_targeted_corruption():
    full = full_t2(2)
    rnd = random.Random(35)
    states = [BlockState.fresh(full.block) for _ in range(2)]
    for j in (1, 2):
        msgs = pack_messages(random_stream(full.round_capacity(j), rnd), j, full)
        states = full_encode_round(states, msgs)
    dev = apply_write(Device.fresh(full.N1), states_to_memory(states))
    image = save_image(dev, full.block, 2)

    def with_block1_data0(word: int) -> list[BlockState]:
        """Block 1's first data word replaced inside the image, trailer fixed, loaded back."""
        body = image[: image.rfind(b"crc32=")]
        marker = b"block=1\nheader=03\ndata0="
        start = body.index(marker) + len(marker)
        body = body[:start] + word.to_bytes(2, "little").hex().encode() + body[start + 4 :]
        loaded_dev, loaded_params, _ = load_image(body + f"crc32={crc32(body):08x}\n".encode())
        return memory_to_states(loaded_dev.cells, FullParams(loaded_params, 2))

    # the smallest in-budget word that decodes differently from the original
    budget = full.block.budgets[1]
    original = states[1].data[0]
    side = states[1].sides[0].bits
    a, b = side & 0x3FF, side >> 10
    replacement = next(y for y in range(1 << 10) if y.bit_count() <= budget
                       and hash_apply(a, b, 5, BitWord(10, y)) != hash_apply(a, b, 5, original))
    new_states = with_block1_data0(replacement)
    assert decode_round(new_states[0], 2) == decode_round(states[0], 2)  # block 0 untouched
    assert decode_round(new_states[1], 2) != decode_round(states[1], 2)  # block 1 took the damage

    # all ten bits set dominates anything but is over the round-2 budget
    new_states = with_block1_data0(0x3FF)
    assert decode_round(new_states[0], 2) == decode_round(states[0], 2)
    with pytest.raises(ValueError, match=f"data word 0 has weight 10, above round-2 budget {budget}"):
        decode_round(new_states[1], 2)

import dataclasses
import random
from binascii import crc32
from fractions import Fraction
from math import comb

import pytest

from womkit.bitwords import BitWord, _split_fields
from womkit.block_codec import BlockState, NoEncoding, RoundMessage, decode_round, encode_round, encode_round1
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


def params_t3():
    return WomParams(
        t=3, n=12, m=3, l=2, k=(7, 5),
        p=WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
    )


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
    with pytest.raises(ValueError, match="^need at least one block$"):
        FullParams(full.block, 0)


@pytest.mark.parametrize("n1, text", [(2.0, "n1 2.0 is not an int"), (True, "n1 True is not an int"),
                                      ("3", "n1 '3' is not an int")])
def test_block_count_must_be_an_int(n1, text):
    # 2.0 would fail later in pack_messages, and True would pass as one block
    with pytest.raises(ValueError) as exc:
        FullParams(params_t2(), n1)
    assert str(exc.value) == text


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

    # the smallest word within B_1..B_2 that decodes differently from the original
    floor, budget = full.block.budgets
    original = states[1].data[0]
    side = states[1].sides[0].bits
    a, b = side & 0x3FF, side >> 10
    replacement = next(y for y in range(1 << 10) if floor <= y.bit_count() <= budget
                       and hash_apply(a, b, 5, BitWord(10, y)) != hash_apply(a, b, 5, original))
    new_states = with_block1_data0(replacement)
    assert decode_round(new_states[0], 2) == decode_round(states[0], 2)  # block 0 untouched
    assert decode_round(new_states[1], 2) != decode_round(states[1], 2)  # block 1 took the damage

    # all ten bits set dominates anything but is over the round-2 budget: the
    # whole memory is refused, naming the block
    with pytest.raises(ValueError, match=f"^block 1: data word 0 has weight 10, above round-2 budget {budget}$"):
        with_block1_data0(0x3FF)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("raised", str(exc))


def params_t1():
    return WomParams(t=1, n=8, m=3, l=0, k=(), p=WeightVector([Fraction(1, 2)]))


def params_zero_b1():
    # p_1 = 0: round 1 writes the empty word, and round 2 starts from it
    return WomParams(t=2, n=6, m=2, l=1, k=(4,), p=WeightVector([Fraction(0), Fraction(1, 2)]))


@pytest.mark.parametrize("params", [params_t1(), params_t2(), params_t3(), params_zero_b1()],
                         ids=["t1", "t2", "t3", "b1-zero"])
def test_codec_built_states_equal_checked_ones(params):
    """The codecs build states without BlockState's check; each equals the checked state it stands for."""
    import layout_oracle as oracle
    from test_layout import writable_block

    full = FullParams(params, 5)
    rnd = random.Random(repr(params))
    rounds = 0
    for _ in range(8):
        states = memory_to_states(BitWord(full.N1, 0), full)
        for j in range(1, params.t + 1):
            stream = random_stream(full.round_capacity(j), rnd)
            try:
                states = full_encode_round(states, pack_messages(stream, j, full))
            except NoEncoding:
                break
            for state in states:
                assert state == BlockState(params, j, list(state.data), list(state.sides))
                assert type(state.data) is tuple and type(state.sides) is tuple
            memory = states_to_memory(states)
            assert memory_to_states(memory, full) == oracle.memory_to_states(memory, full) == states
            rounds += 1
    assert rounds >= 8
    # random blocks the codec could have written, with one cell flipped in every
    # other memory: the same states or the same error as the checked path
    kinds = set()
    for trial in range(30):
        bits = 0
        for _ in range(full.n1):
            bits = bits << params.n0 | writable_block(rnd, params, rnd.randint(0, params.t))
        if trial % 2:
            bits ^= 1 << rnd.randrange(full.N1)
        memory = BitWord(full.N1, bits)
        got = outcome(memory_to_states, memory, full)
        assert got == outcome(oracle.memory_to_states, memory, full)
        kinds.add(got[0])
    assert kinds == {"ok", "raised"}


def test_blocks_hold_their_round_and_memory_writes_it_unary():
    full = full_t2(1000)
    states = full_encode_round([BlockState.fresh(full.block)] * 1000,
                               pack_messages(random_stream(full.round_capacity(1), random.Random(62)), 1, full))
    assert {state.round for state in states} == {1}
    headers = {bits & 0b11 for bits in _split_fields(states_to_memory(states).bits, full.block.n0, full.n1)}
    assert headers == {0b01}
    few = FullParams(full.block, 3)
    msgs = pack_messages(random_stream(few.round_capacity(2), random.Random(63)), 2, few)
    after = full_encode_round(states[:3], msgs)
    assert {state.round for state in after} == {2}
    assert {bits & 0b11 for bits in _split_fields(states_to_memory(after).bits, few.block.n0, few.n1)} == {0b11}


def test_states_to_memory_compares_params_by_value():
    params = params_t2()
    twin = dataclasses.replace(params)
    assert twin == params and twin is not params
    states = [BlockState.fresh(params), BlockState.fresh(twin)]
    assert states_to_memory(states) == BitWord(2 * params.n0, 0)
    with pytest.raises(ValueError, match="^blocks disagree on parameters$"):
        states_to_memory([BlockState.fresh(params), BlockState.fresh(dataclasses.replace(params, c=7))])

"""The concatenation and image layers against their shift-and-OR oracles.

`layout_oracle` keeps the field-by-field implementations of the six
functions that join or split a whole image. The library versions must give
bit-identical states and streams, byte-identical images, and the same
exception type and message on every error path.
"""

import itertools
import random
import re
import tracemalloc
from binascii import crc32
from fractions import Fraction
from types import SimpleNamespace

import pytest

import layout_oracle as oracle
import search_oracle
from value_oracle import replace
from womkit import bitwords, block_codec, full_codec, wom_device
from womkit.bitwords import BitWord, _join_fields, _split_fields, subset_unrank
from womkit.block_codec import (
    BlockState, RoundMessage, SequencingError, _built_state, check_block, decode_round, encode_round1,
)
from womkit.capacity import WeightVector, WomParams
from womkit.full_codec import FullParams, full_encode_round
from womkit.wom_device import Device, apply_write

LIBRARY = SimpleNamespace(
    **{name: getattr(full_codec, name)
       for name in ("pack_messages", "unpack_messages", "states_to_memory", "memory_to_states")},
    save_image=wom_device.save_image,
    load_image=wom_device.load_image,
)
BLOCK_COUNTS = (1, 2, 7, 300)


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # every exception is compared, not handled
        return ("raised", type(exc), str(exc))


def same(name, *args):
    """Library and oracle agree on name(*args); returns the library outcome."""
    got = outcome(getattr(LIBRARY, name), *args)
    assert got == outcome(getattr(oracle, name), *args), name
    return got


def random_params(rnd: random.Random, t: int, zero_rank_width: bool = False) -> WomParams:
    n = rnd.randint(2, 12)
    l = rnd.randint(0, n)
    p1 = [Fraction(0)] if zero_rank_width else []
    densities = p1 + [Fraction(rnd.randint(0, 4), 8) for _ in range(t - 1 - len(p1))]
    return WomParams(
        t=t, n=n, m=rnd.randint(1, 5), l=l,
        k=tuple(rnd.randint(l, n) for _ in range(t - 1)),
        p=WeightVector(densities + [Fraction(1, 2)]),
    )


def shapes():
    rnd = random.Random(40)
    out = [(random_params(rnd, t), n1) for t in (1, 2, 3) for n1 in BLOCK_COUNTS]
    # p_1 = 0: B_1 = 0, C(n, 0) = 1, so a round-1 rank is 0 bits wide
    out += [(random_params(rnd, t, zero_rank_width=True), n1) for t in (2, 3) for n1 in (1, 7)]
    assert any(p.payload_bits(1) == 0 for p, _ in out)
    return out


def writable_block(rnd: random.Random, params: WomParams, round_: int) -> int:
    """A block the codec could have written in round_ rounds, random in every cell it may set."""
    budget = params.budgets[round_ - 1] if round_ else 0
    floor = params.budgets[0] if round_ else 0  # rounds after the first only set cells
    bits = (1 << round_) - 1
    for i in range(params.m):
        weight = rnd.randint(floor, budget)
        bits |= sum(1 << c for c in rnd.sample(range(params.n), weight)) << params.data_offset(i)
    for s in range(round_ - 1):
        side = rnd.getrandbits(params.n) | rnd.getrandbits(params.payload_bits(s + 2)) << params.n
        bits |= side << params.side_offset(s)
    return bits


def random_memory(rnd: random.Random, full: FullParams) -> BitWord:
    """Random device contents whose every block the codec could have written, each after its own round."""
    p = full.block
    bits = 0
    for _ in range(full.n1):
        bits = bits << p.n0 | writable_block(rnd, p, rnd.randint(0, p.t))
    return BitWord(full.N1, bits)


def with_headers(memory: BitWord, full: FullParams, round_: int) -> BitWord:
    """The memory with every block's header set to the unary counter of round_ rounds."""
    p = full.block
    mask = _join_fields([(1 << p.t) - 1] * full.n1, p.n0)
    headers = _join_fields([(1 << round_) - 1] * full.n1, p.n0)
    return BitWord(full.N1, memory.bits & ~mask | headers)


def test_split_and_join_fields_match_field_by_field_shifts():
    rnd = random.Random(41)
    for width in (0, 1, 5, 8, 16, 24, 62, 64, 65):
        for count in (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 300):
            value = rnd.getrandbits(width * count) if width * count else 0
            fields = [(value >> (i * width)) & ((1 << width) - 1) for i in range(count)]
            assert list(_split_fields(value, width, count)) == fields
            assert _join_fields(fields, width) == value
            # bits above the last field are ignored
            assert list(_split_fields(value | 5 << (width * count), width, count)) == fields
    # a value far narrower than its fields: the split pads its bytes with zero fields
    assert list(_split_fields(1, 5, 300)) == [1] + [0] * 299
    assert _join_fields([1] + [0] * 299, 5) == 1


@pytest.mark.parametrize("params,n1", shapes())
def test_layers_match_oracles(params, n1):
    rnd = random.Random(repr((params, n1)))
    full = FullParams(params, n1)
    memory = random_memory(rnd, full)
    _, states = same("memory_to_states", memory, full)
    assert same("states_to_memory", states) == ("ok", memory)
    for round_ in range(params.t + 1):
        # headers of mixed rounds: save_image names the first block off the round line
        same("save_image", Device(memory), params, round_)
        dev = Device(with_headers(memory, full, round_))
        _, image = same("save_image", dev, params, round_)
        assert (b"\nblock=" in image) == (n1 > 1)
        assert same("load_image", image) == ("ok", (dev, params, round_))
    for j in range(1, params.t + 1):
        needed = full.round_capacity(j)
        for extra in (0, 1, 13):  # a stream longer than the round needs
            stream = BitWord(needed + extra, rnd.getrandbits(needed + extra) if needed + extra else 0)
            _, msgs = same("pack_messages", stream, j, full)
            tail = stream.bits & ((1 << needed) - 1)
            assert same("unpack_messages", msgs, full) == ("ok", BitWord(needed, tail))


def test_pack_and_unpack_error_paths_match():
    rnd = random.Random(44)
    params = random_params(rnd, 2)
    full = FullParams(params, 3)
    needed = full.round_capacity(1)
    same("pack_messages", BitWord(needed - 1, 0), 1, full)  # stream too short
    same("pack_messages", BitWord(needed, 0), 3, full)  # round without a hash size
    _, msgs = same("pack_messages", BitWord(needed, rnd.getrandbits(needed)), 1, full)
    _, msgs2 = same("pack_messages", BitWord(full.round_capacity(2), 0), 2, full)
    wide = params.payload_bits(2) + 1
    cases = [
        msgs[:2],  # too few messages
        msgs[:2] + msgs2[:1],  # rounds disagree
        msgs[:2] + [RoundMessage(1, msgs[2].payload[:-1])],  # short payload
        msgs[:2] + [RoundMessage(1, msgs[2].payload + (0,))],  # long payload
        msgs[:1] + [RoundMessage(1, (1 << params.payload_bits(1),) * params.m)] * 2,  # rank too wide
        msgs[:1] + [RoundMessage(1, (-1,) * params.m)] * 2,  # negative rank
        [RoundMessage(2, (BitWord(wide, 1 << (wide - 1)),) * params.m)] * 3,  # word too wide
        [RoundMessage(3, ())] * 3,  # round without a hash size
    ]
    for case in cases:
        assert same("unpack_messages", case, full)[0] == "raised"


def test_state_memory_error_paths_match():
    rnd = random.Random(45)
    params = random_params(rnd, 3)
    full = FullParams(params, 4)
    same("states_to_memory", [])
    states = [BlockState.fresh(params), BlockState.fresh(replace(params, c=7))]
    assert same("states_to_memory", states)[0] == "raised"
    same("memory_to_states", BitWord(full.N1 - 1, 0), full)
    memory = random_memory(rnd, full)
    header2 = ((1 << params.t) - 1) << (2 * params.n0)
    not_unary = BitWord(full.N1, memory.bits & ~header2 | 0b10 << (2 * params.n0))
    assert same("memory_to_states", not_unary, full)[0] == "raised"
    dev = Device(memory)
    same("save_image", Device.fresh(params.n0 + 1), params, 0)
    same("save_image", Device.fresh(0), params, 0)
    same("save_image", dev, params, params.t + 1)
    same("save_image", dev, params, -1)
    same("save_image", dev, params, True)
    same("save_image", dev, params, 1.0)
    same("save_image", Device.fresh(full.N1), params, params.t)  # headers 0 under round t


def with_crc(body: bytes) -> bytes:
    return body + f"crc32={crc32(body):08x}\n".encode()


def image_mutations(image: bytes):
    """Altered copies of an image: raw cuts and edits, and line edits with a fixed CRC."""
    yield b"NOTIMG 1\n" + image
    yield image[:-1]
    yield image[: image.rfind(b"crc32=")]
    yield image[:-3] + b"zz\n"
    middle = len(image) // 2
    yield image[:middle] + bytes([image[middle] ^ 1]) + image[middle + 1 :]
    body = image[: image.rfind(b"crc32=")]
    yield with_crc(body.replace(b"header=", b"header=\xff", 1))
    lines = body.split(b"\n")[:-1]
    edits = [
        lambda line: b"",
        lambda line: line + b"0",
        lambda line: line[:-1],
        lambda line: line[:-1] + b"g",
        lambda line: line.replace(b"=", b"=x", 1),
        lambda line: line.replace(b"=1", b"=2", 1).replace(b"=0", b"=9", 1),
        lambda line: line.replace(b"/", b"/0", 1),
        lambda line: line.replace(b"/", b".", 1),
        lambda line: line.replace(b" ", b"  ", 1),
        lambda line: line.replace(b"n=", b"x=", 1),
        lambda line: line.split(b"=")[0] + b"=",
        lambda line: b"block=" + line,
        # text that parses to the saved values, as `round=+0`, `block=01`,
        # `k= 7`, `n=1_0`, `p=2/6,1/2` and upper case hex
        lambda line: line.replace(b"=", b"=+", 1),
        lambda line: line.replace(b"=", b"=0", 1),
        lambda line: line.replace(b"=", b"= ", 1),
        lambda line: re.sub(rb"=(\d)(\d)", rb"=\1_\2", line, count=1),
        lambda line: re.sub(rb"=(\d+)/(\d+)", lambda m: b"=%d/%d" % (2 * int(m[1]), 2 * int(m[2])), line, count=1),
        lambda line: line.partition(b"=")[0] + b"=" + line.partition(b"=")[2].upper(),
    ]
    for i in range(1, len(lines)):
        yield with_crc(b"\n".join(lines[:i] + lines[i + 1 :]) + b"\n")  # line dropped
        yield with_crc(b"\n".join(lines[: i + 1] + lines[i:]) + b"\n")  # line doubled
        for edit in edits:
            changed = edit(lines[i])
            if changed != lines[i]:
                yield with_crc(b"\n".join(lines[:i] + [changed] + lines[i + 1 :]) + b"\n")
    yield with_crc(b"\n".join(lines[:5] + [b"block=0"] + lines[5:]) + b"\n")  # a label in any image
    yield with_crc(body + b"block=9\n")
    yield with_crc(body + b"extra\n")
    # stream boundaries: the image cut after each line of its last block group
    # (from its label on), an empty line before the trailer, a label with no
    # group after it, and a one-block image one line longer than its group
    labels = [i for i, line in enumerate(lines) if line.startswith(b"block=")]
    n1 = max(len(labels), 1)
    for i in range(labels[-1] if labels else 5, len(lines)):
        yield with_crc(b"\n".join(lines[: i + 1]) + b"\n")
    yield with_crc(body + b"\n")
    yield with_crc(body + b"block=%d\n" % n1)
    if n1 == 1:
        yield with_crc(body + lines[-1] + b"\n")


@pytest.mark.parametrize("t,n1", [(1, 1), (2, 1), (2, 3), (3, 2)])
def test_load_image_error_paths_match(t, n1):
    rnd = random.Random(46 + 10 * t + n1)
    params = random_params(rnd, t)
    full = FullParams(params, n1)
    round_ = rnd.randint(0, t)
    memory = with_headers(random_memory(rnd, full), full, round_)
    image = wom_device.save_image(Device(memory), params, round_)
    kinds = set()
    for altered in image_mutations(image):
        got = same("load_image", altered)
        kinds.add(got[1] if got[0] == "raised" else "ok")
        if got[0] == "ok":  # only the text save_image writes loads
            assert wom_device.save_image(*got[1]) == altered
    assert {wom_device.BadMagic, wom_device.TruncatedImage, wom_device.ChecksumMismatch,
            wom_device.MalformedImage} <= kinds


def test_budgets_computed_once_without_changing_identity():
    params = random_params(random.Random(47), 3)
    fields = (params.t, params.n, params.m, params.l, params.k, params.p, params.c)
    assert repr(params) == (
        f"WomParams(t={params.t}, n={params.n}, m={params.m}, l={params.l}, k={params.k!r}, "
        f"p={params.p!r}, c=None)"
    )
    assert hash(params) == hash(fields)
    twin = WomParams(*fields)
    assert twin == params and hash(twin) == hash(params)
    assert params != replace(params, c=3)
    assert isinstance(vars(WomParams)["budgets"], property)
    for n in (params.n, params.n + 5, 40):
        wider = replace(params, n=n)
        remaining, want = Fraction(1), []
        for pj in params.p.p:
            remaining *= 1 - pj
            want.append(int((1 - remaining) * n))
        assert wider.budgets == tuple(want)


def round1_pipeline(impl, stream: BitWord, full: FullParams) -> BitWord:
    """pack -> states -> encode -> memory -> save -> load -> states -> decode -> unpack."""
    msgs = impl.pack_messages(stream, 1, full)
    states = full_encode_round(impl.memory_to_states(Device.fresh(full.N1).cells, full), msgs)
    dev = apply_write(Device.fresh(full.N1), impl.states_to_memory(states))
    image = impl.save_image(dev, full.block, 1)
    loaded, params, j = impl.load_image(image)
    decoded = [decode_round(s, j) for s in impl.memory_to_states(loaded.cells, FullParams(params, full.n1))]
    return impl.unpack_messages(decoded, full)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_peak_within_ten_percent_of_oracle():
    params = WomParams(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))
    full = FullParams(params, 8000)
    needed = full.round_capacity(1)
    stream = BitWord(needed, random.Random(48).getrandbits(needed))
    small = FullParams(params, 2)
    for impl in (oracle, LIBRARY):  # warm lazy caches before measuring
        round1_pipeline(impl, BitWord(small.round_capacity(1), 0), small)
    want, oracle_peak = traced_peak(round1_pipeline, oracle, stream, full)
    got, peak = traced_peak(round1_pipeline, LIBRARY, stream, full)
    assert got == want == stream
    assert peak <= 1.10 * oracle_peak, (peak, oracle_peak)


# Sharing: equal blocks, words and image lines are built, formatted or parsed
# once per call, and so is each distinct round-1 word. None of
# it may leak between calls or parameters, or let an error through.

BULK = WomParams(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))


def test_memory_to_states_shares_one_state_for_a_fresh_device():
    full = FullParams(BULK, 8000)
    states = full_codec.memory_to_states(BitWord(full.N1, 0), full)
    assert all(state is states[0] for state in states)
    assert states == oracle.memory_to_states(BitWord(full.N1, 0), full)


def test_memory_to_states_with_repeated_blocks_matches_oracle():
    rnd = random.Random(49)
    params = random_params(rnd, 3)
    kinds = [random_memory(rnd, FullParams(params, 1)).bits for _ in range(4)]
    blocks = [kinds[i] for i in (0, 1, 0, 2, 1, 0, 3, 3, 0)]
    full = FullParams(params, len(blocks))
    memory = BitWord(full.N1, _join_fields(blocks, params.n0))
    _, states = same("memory_to_states", memory, full)
    for a, b, state_a, state_b in zip(blocks, blocks[1:], states, states[1:]):
        assert (state_a is state_b) == (a == b)
    # a block that is not unary, after repeats of valid ones, still raises
    not_unary = BitWord(full.N1 + params.n0, memory.bits | 0b10 << full.N1)
    assert same("memory_to_states", not_unary, FullParams(params, full.n1 + 1))[0] == "raised"


T3 = WomParams(t=3, n=12, m=3, l=2, k=(7, 5),
               p=WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]))


@pytest.mark.parametrize("params,n1", [(BULK, 1), (BULK, 9), (T3, 1), (T3, 9)])
def test_memory_to_states_matches_oracle_after_every_round(params, n1):
    # memories the encoder wrote: round-2 and round-3 blocks hold side words
    rnd = random.Random(repr((params, n1)))
    full = FullParams(params, n1)
    memory = BitWord(full.N1, 0)
    for j in range(1, params.t + 1):
        _, states = same("memory_to_states", memory, full)
        needed = full.round_capacity(j)
        msgs = full_codec.pack_messages(BitWord(needed, rnd.getrandbits(needed)), j, full)
        memory = full_codec.states_to_memory(full_encode_round(states, msgs))
        _, states = same("memory_to_states", memory, full)
        assert [decode_round(state, j) for state in states] == msgs


# When every block has one unary header, `memory_to_states` tests each
# distinct word once instead of checking the blocks. That rests on
# `check_block` being the conjunction of its word tests, and it must still
# name the first faulty block with the per-block text.

def block_words(params: WomParams, bits: int) -> tuple[tuple, tuple]:
    """The data words and side words of one block's bits."""
    cut = lambda offset, length: BitWord(length, bits >> offset & ((1 << length) - 1))
    return (tuple(cut(params.data_offset(i), params.n) for i in range(params.m)),
            tuple(cut(params.side_offset(s), 2 * params.n) for s in range(params.t - 1)))


def passes(params: WomParams, r: int, data: tuple, sides: tuple) -> bool:
    try:
        check_block(_built_state(params, r, data, sides))
    except ValueError:
        return False
    return True


def test_check_block_is_the_conjunction_of_its_word_tests():
    rnd = random.Random(52)
    verdicts = set()
    for _ in range(150):
        params = random_params(rnd, rnd.randint(1, 3))
        r = rnd.randint(0, params.t)
        valid_data, valid_sides = block_words(params, writable_block(rnd, params, r))
        assert passes(params, r, valid_data, valid_sides)
        # each word from another writable block or from random bits
        good_data, good_sides = block_words(params, writable_block(rnd, params, r))
        any_data, any_sides = block_words(params, rnd.getrandbits(params.n0))
        data = tuple(rnd.choice(pair) for pair in zip(good_data, any_data))
        sides = tuple(rnd.choice(pair) for pair in zip(good_sides, any_sides))
        alone = [passes(params, r, valid_data[:i] + (d,) + valid_data[i + 1 :], valid_sides)
                 for i, d in enumerate(data)]
        alone += [passes(params, r, valid_data, valid_sides[:s] + (w,) + valid_sides[s + 1 :])
                  for s, w in enumerate(sides)]
        verdict = passes(params, r, data, sides)
        assert verdict == all(alone), (params, r, data, sides)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def with_word(bits: int, offset: int, length: int, value: int) -> int:
    """The block with its `length`-bit word at `offset` replaced by value."""
    return bits & ~(((1 << length) - 1) << offset) | value << offset


def faulty_blocks(rnd: random.Random, params: WomParams, r: int, blocks: list[int]):
    """(what, blocks, first) triples: the round-r blocks with one change each, and the first faulty block or None."""
    p, last = params, len(blocks) - 1
    # a data word no round-r block holds: above B_r, so also not of weight B_1 at r = 1
    bad = sum(1 << c for c in rnd.sample(range(p.n), p.budgets[r - 1] + 1 if r else 1))
    mixed = list(blocks)
    mixed[rnd.randrange(last)] = writable_block(rnd, p, rnd.choice([j for j in range(p.t + 1) if j != r]))
    yield "mixed headers", mixed, None
    faulty_last = with_word(blocks[last], p.data_offset(rnd.randrange(p.m)), p.n, bad)
    yield "mixed headers, fault in the last block", mixed[:last] + [faulty_last], last
    yield "fault in the last block", blocks[:last] + [faulty_last], last
    shared = list(blocks)
    indices = rnd.sample(range(len(blocks)), min(3, len(blocks)))
    for index in indices:
        shared[index] = with_word(shared[index], p.data_offset(rnd.randrange(p.m)), p.n, bad)
    yield "shared faulty data word", shared, min(indices)
    index = rnd.randrange(len(blocks))
    unwritten = range(max(r - 1, 0), p.t - 1)
    if unwritten:
        side = with_word(blocks[index], p.side_offset(rnd.choice(unwritten)), 2 * p.n, 1 << rnd.randrange(2 * p.n))
        yield "side word of an unwritten round set", blocks[:index] + [side] + blocks[index + 1 :], index
    narrow = [s for s in range(r - 1) if p.payload_bits(s + 2) < p.n]
    if narrow:
        s = rnd.choice(narrow)
        b = rnd.randrange(1 << p.payload_bits(s + 2), 1 << p.n)
        side = blocks[index] | b << (p.side_offset(s) + p.n)
        yield "b too wide", blocks[:index] + [side] + blocks[index + 1 :], index
    if r >= 2 and p.budgets[0]:  # a data word lighter than round 1 wrote it
        below = sum(1 << c for c in rnd.sample(range(p.n), rnd.randrange(p.budgets[0])))
        below_block = with_word(blocks[index], p.data_offset(rnd.randrange(p.m)), p.n, below)
        yield "data word below B_1", blocks[:index] + [below_block] + blocks[index + 1 :], index
    if p.t > 1:  # a header that is no 2^r - 1
        header = with_word(blocks[index], 0, p.t, rnd.choice([h for h in range(1 << p.t) if h & (h + 1)]))
        yield "header not unary", blocks[:index] + [header] + blocks[index + 1 :], index


def test_memory_to_states_matches_oracle_on_shared_and_faulty_words():
    rnd = random.Random(53)
    kinds, all_distinct = {}, 0
    for _ in range(60):
        params = random_params(rnd, rnd.randint(1, 3))
        r = rnd.randint(0, params.t)
        count = rnd.randint(2, 12)
        # a small pool repeats words; a pool of `count` blocks is the whole image
        pool = [writable_block(rnd, params, r) for _ in range(rnd.choice((rnd.randint(1, 4), count)))]
        blocks = pool if len(pool) == count else [rnd.choice(pool) for _ in range(count)]
        all_distinct += len(set(blocks)) == count
        full = FullParams(params, len(blocks))
        assert same("memory_to_states", BitWord(full.N1, _join_fields(blocks, params.n0)), full)[0] == "ok"
        for what, changed, first in faulty_blocks(rnd, params, r, blocks):
            got = same("memory_to_states", BitWord(full.N1, _join_fields(changed, params.n0)), full)
            if first is None:
                assert got[0] == "ok", (what, got)
            else:
                assert got[:2] == ("raised", ValueError) and got[2].startswith(f"block {first}: "), (what, got)
            kinds[what] = kinds.get(what, 0) + 1
    assert len(kinds) == 8 and min(kinds.values()) >= 10 and all_distinct >= 10, (kinds, all_distinct)


def per_block_round1(states, msgs):
    return [encode_round1(state, msg) for state, msg in zip(states, msgs)]


def oracle_round1(states, msgs):
    """Round-1 states with every word unranked by the oracle."""
    return [
        BlockState(s.params, 1,
                   tuple(oracle.subset_unrank(r, s.params.n, s.params.budgets[0]) for r in msg.payload), s.sides)
        for s, msg in zip(states, msgs)
    ]


def clear_rank_caches():
    bitwords.colex_rank.cache_clear()


def test_round1_full_encode_matches_per_block_encode():
    rnd = random.Random(50)
    other = replace(BULK, n=12)  # same rank width, other words
    twin = replace(BULK)  # equal parameters in another object
    assert twin == BULK and twin is not BULK
    ranks = [rnd.randrange(BULK.round1_space) for _ in range(3)]
    msgs = [RoundMessage(1, tuple(rnd.choice(ranks) for _ in range(BULK.m))) for _ in range(40)]
    fresh = [BlockState.fresh(rnd.choice((BULK, BULK, twin))) for _ in msgs]
    mixed = fresh[:7] + [BlockState.fresh(other)] + fresh[8:]  # one write is one parameter set
    assert outcome(full_encode_round, mixed, msgs) == ("raised", ValueError, "blocks disagree on parameters")
    for states in ([BlockState.fresh(BULK)] * len(msgs), fresh):
        want = oracle_round1(states, msgs)
        for encode in (full_encode_round, per_block_round1):
            clear_rank_caches()
            cold = encode(states, msgs)
            assert cold == encode(states, msgs) == want  # caches cleared, then warm
            assert [decode_round(state, 1) for state in cold] == msgs
            clear_rank_caches()
            assert [decode_round(state, 1) for state in cold] == msgs
        words = {}
        for state, msg in zip(cold, msgs):
            for rank, word in zip(msg.payload, state.data):
                assert words.setdefault((state.params.n, rank), word) == word


def test_round1_errors_match_the_per_block_oracle():
    # A round-1 write checks all blocks in column passes, but any failure must
    # raise what the per-block loop raises for the first faulty block.
    rnd = random.Random(55)
    msgs = [RoundMessage(1, tuple(rnd.randrange(BULK.round1_space) for _ in range(BULK.m))) for _ in range(12)]
    ok = msgs[0].payload
    faults = [ok[:-1], ok + ok[:1], (True,) + ok[1:], ok[:1] + ("3",) + ok[2:], ok[:2] + (2.0,) + ok[3:],
              ok[:-1] + (-1,), ok[:-1] + (BULK.round1_space,)]
    fresh = [BlockState.fresh(BULK)] * len(msgs)

    def same_as_oracle(states, case):
        got = outcome(full_encode_round, states, case)
        assert got == outcome(search_oracle.full_encode_round, states, case), case
        return got

    def with_faults(*placed):
        case = list(msgs)
        for block, payload in placed:
            case[block] = RoundMessage(1, payload)
        return case

    for payload in faults:  # each check failing alone, in the first block and a later one
        for block in (0, 7):
            assert same_as_oracle(fresh, with_faults((block, payload)))[0] == "raised"
    for first, second in itertools.permutations(faults, 2):  # two failures, in both orders
        assert same_as_oracle(fresh, with_faults((3, first), (8, second)))[0] == "raised"
    written = full_encode_round(fresh, msgs)
    assert same_as_oracle(written, msgs)[:2] == ("raised", SequencingError)
    states = [BlockState.fresh(rnd.choice((BULK, replace(BULK)))) for _ in msgs]  # equal-but-distinct objects
    assert same_as_oracle(states, msgs)[0] == "ok"
    for payload in faults:
        assert same_as_oracle(states, with_faults((5, payload)))[0] == "raised"
    # one write is one round of one image: a later round's message, or another
    # parameter set, is refused before any block, even behind a faulty one
    for j in (2, 3):
        case = with_faults((2, ok[:-1]))
        case[4] = RoundMessage(j, [BitWord(BULK.payload_bits(2), 0)] * BULK.m)
        assert outcome(full_encode_round, fresh, case) == (
            "raised", ValueError, f"messages disagree on the round: [1, {j}]")
    states = fresh[:5] + [BlockState.fresh(replace(BULK, n=12))] + fresh[6:]
    assert outcome(full_encode_round, states, with_faults((2, ok[:-1]))) == (
        "raised", ValueError, "blocks disagree on parameters")


def test_round1_write_shares_one_word_per_distinct_rank(monkeypatch):
    full = FullParams(BULK, 8000)
    needed = full.round_capacity(1)
    msgs = full_codec.pack_messages(BitWord(needed, random.Random(56).getrandbits(needed)), 1, full)
    calls = []

    def spy(rank, length, weight):
        calls.append(rank)
        return subset_unrank(rank, length, weight)

    monkeypatch.setattr(block_codec, "subset_unrank", spy)
    out = full_encode_round(full_codec.memory_to_states(BitWord(full.N1, 0), full), msgs)
    ranks = {rank for msg in msgs for rank in msg.payload}
    assert sorted(calls) == sorted(ranks)
    assert len({id(word) for state in out for word in state.data}) == len(ranks)
    assert [decode_round(state, 1) for state in out] == msgs


def repeated_line_image(n1: int = 6) -> bytes:
    """A round-1 image whose data, header and side lines each repeat.

    Its ranks give words whose hex holds letters, so upper case changes them.
    """
    full = FullParams(BULK, n1)
    b1 = BULK.budgets[0]
    ranks = [rank for rank in range(BULK.round1_space)
             if set(oracle._bits_to_hex(subset_unrank(rank, BULK.n, b1).bits, BULK.n)) & set("abcdef")]
    rnd = random.Random(51)
    msgs = [RoundMessage(1, tuple(rnd.choice(ranks[:3]) for _ in range(BULK.m))) for _ in range(n1)]
    states = full_encode_round(full_codec.memory_to_states(BitWord(full.N1, 0), full), msgs)
    return wom_device.save_image(Device(full_codec.states_to_memory(states)), BULK, 1)


def replaced(image: bytes, index: int, line: bytes) -> bytes:
    """The image with line `index` replaced and the CRC recomputed."""
    lines = image[: image.rfind(b"crc32=")].split(b"\n")[:-1]
    return with_crc(b"\n".join(lines[:index] + [line] + lines[index + 1 :]) + b"\n")


def set_padding_bit(line: bytes) -> bytes:
    key, _, digits = line.partition(b"=")
    raw = bytearray(bytes.fromhex(digits.decode()))
    raw[-1] |= 0x80
    return key + b"=" + raw.hex().encode()


def test_load_image_with_repeated_lines_matches_oracle():
    image = repeated_line_image()
    assert same("load_image", image)[0] == "ok"
    lines = image[: image.rfind(b"crc32=")].split(b"\n")[:-1]
    first_block = lines.index(b"block=0")
    # a valid data0 line moved into a later data1 slot
    data0 = [i for i, line in enumerate(lines) if line.startswith(b"data0=")]
    data1 = [i for i, line in enumerate(lines) if line.startswith(b"data1=")]
    for source in data0:
        for target in data1:
            assert same("load_image", replaced(image, target, lines[source]))[0] == "raised"
    # a repeated line altered at its second occurrence only: every edit is an
    # error, upper case too, which bytes.fromhex reads as the same value
    edits = {
        "extra digit": lambda line: line + b"0",
        "bad digit": lambda line: line[:-1] + b"g",
        "padding bit": set_padding_bit,
        "upper case": lambda line: line.partition(b"=")[0] + b"=" + line.partition(b"=")[2].upper(),
    }
    kinds = {}
    for i, line in enumerate(lines[first_block:], first_block):
        if line.startswith(b"block=") or lines.index(line) == i:
            continue
        for kind, edit in edits.items():
            if edit(line) != line:
                kinds.setdefault(kind, set()).add(same("load_image", replaced(image, i, edit(line)))[0])
    assert kinds == {"extra digit": {"raised"}, "bad digit": {"raised"}, "padding bit": {"raised"},
                     "upper case": {"raised"}}
    # block labels: canonical, non-canonical but equal (refused), and wrong
    for label in (b"block=1", b"block=01", b"block=+1", b"block= 1", b"block=2", b"block=x", b"blok=1"):
        same("load_image", replaced(image, lines.index(b"block=1"), label))


def test_load_image_transient_is_within_one_and_a_half_images():
    # Loading streams the lines of the caller's bytes: it keeps a memo entry per
    # distinct line and slot and an int per block, and no text copy of the image.
    full = FullParams(BULK, 2000)
    needed = full.round_capacity(1)
    msgs = full_codec.pack_messages(BitWord(needed, random.Random(54).getrandbits(needed)), 1, full)
    states = full_encode_round(full_codec.memory_to_states(BitWord(full.N1, 0), full), msgs)
    image = wom_device.save_image(Device(full_codec.states_to_memory(states)), BULK, 1)
    wom_device.load_image(image)  # warm lazy caches before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = wom_device.load_image(image)
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert wom_device.save_image(*loaded) == image
    assert transient <= 1.5 * len(image), (transient, len(image))

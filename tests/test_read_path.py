"""The read path (`memory_to_states`, `decode_round`, `unpack_messages`) against the oracles.

Two kinds of image are read. Images the encoder wrote repeat words: round 1
at small n draws every data word from few subsets, so the word tables of
`memory_to_states` are hit again and again. Images built word by word for
rounds 2 and 3 hold no two equal data words and no two equal written side
words, so every such lookup misses. States are compared with
`layout_oracle`, messages with `decode_oracle` and streams with
`layout_oracle`, over shapes with t = 1 (no side slot) and m = 1. The
messages the codec builds must equal, with the same hash and entry types,
the ones the public constructor builds from a list, and `unpack_messages`
must raise what the oracle raises on every error path.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import decode_oracle
import layout_oracle
from value_oracle import replace
from womkit.bitwords import BitWord
from womkit.block_codec import BlockState, RoundMessage, decode_round
from womkit.capacity import WeightVector, WomParams
from womkit.full_codec import (
    FullParams,
    full_encode_round,
    memory_to_states,
    pack_messages,
    states_to_memory,
    unpack_messages,
)
from womkit.wom_device import Device, apply_write, load_image, save_image


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # every exception is compared, not handled
        return ("raised", type(exc), str(exc))


def params_of(t, n, m, l=2, k=None):
    k = k if k is not None else tuple(min(n, l + 5 - j) for j in range(t - 1))
    densities = [Fraction(1, 4)] * (t - 1) + [Fraction(1, 2)]
    return WomParams(t=t, n=n, m=m, l=l, k=k, p=WeightVector(densities))


SHAPES = [
    (params_of(1, 6, 1, l=0, k=()), 200),
    (params_of(1, 8, 4, l=0, k=()), 60),
    (params_of(2, 6, 1), 150),
    (params_of(2, 10, 4), 40),
    (params_of(3, 12, 1), 30),
    (params_of(3, 12, 3), 20),
]


def written_images(params, n1, seed):
    """(round, memory, messages, stream) after each round the encoder writes."""
    rnd = random.Random(seed)
    full = FullParams(params, n1)
    dev = Device.fresh(full.N1)
    out = []
    for j in range(1, params.t + 1):
        need = full.round_capacity(j)
        stream = BitWord(need, rnd.getrandbits(need))
        msgs = pack_messages(stream, j, full)
        states = full_encode_round(memory_to_states(dev.cells, full), msgs)
        dev = apply_write(dev, states_to_memory(states))
        loaded, _, round_ = load_image(save_image(dev, params, j))
        out.append((round_, loaded.cells, msgs, stream))
    return full, out


@pytest.mark.parametrize("params,n1", SHAPES, ids=[f"t{p.t}-m{p.m}-n{p.n}" for p, _ in SHAPES])
def test_read_steps_match_oracles_on_written_images(params, n1):
    full, images = written_images(params, n1, repr(params))
    for j, memory, msgs, stream in images:
        states = memory_to_states(memory, full)
        assert states == layout_oracle.memory_to_states(memory, full)
        if j == 1:  # the data-word table is hit, and equal words are one object
            words = [word for state in states for word in state.data]
            assert len({id(word) for word in words}) == len({word.bits for word in words}) < len(words)
        got = [decode_round(state, j) for state in states]
        assert got == [decode_oracle.decode_round(state, j) for state in states] == msgs
        assert unpack_messages(got, full) == layout_oracle.unpack_messages(got, full) == stream


@pytest.mark.parametrize("params,n1", SHAPES, ids=[f"t{p.t}-m{p.m}-n{p.n}" for p, _ in SHAPES])
def test_codec_built_messages_equal_constructed_ones(params, n1):
    full, images = written_images(params, n1, repr((params, "msgs")))
    for j, memory, msgs, _ in images:
        decoded = [decode_round(state, j) for state in memory_to_states(memory, full)]
        for msg in msgs + decoded:
            public = RoundMessage(j, list(msg.payload))
            assert msg == public and hash(msg) == hash(public)
            assert type(msg) is RoundMessage and type(msg.payload) is tuple
            assert msg.round == j and len(msg.payload) == params.m
            entry = int if j == 1 else BitWord
            assert all(type(value) is entry for value in msg.payload)
        # frozen, and a copy with a changed field is checked again
        for field in ("round", "payload"):
            with pytest.raises(AttributeError):
                setattr(msg, field, getattr(msg, field))
        with pytest.raises(ValueError, match="^rounds are numbered from 1$"):
            replace(msg, round=0)
        assert type(replace(msg, payload=list(msg.payload)).payload) is tuple


def distinct_image(params, n1, j, rnd):
    """Round-j block states in which no two data words and no two written side words are equal."""
    n, floor, budget = params.n, params.budgets[0], params.budgets[j - 1]
    data, sides = set(), set()

    def fresh(pool, draw):
        while (word := draw()) in pool:
            pass
        pool.add(word)
        return BitWord(n if pool is data else 2 * n, word)

    states = []
    for _ in range(n1):
        words = tuple(fresh(data, lambda: sum(1 << c for c in rnd.sample(range(n), rnd.randint(floor, budget))))
                      for _ in range(params.m))
        written = tuple(fresh(sides, lambda s=s: rnd.getrandbits(n) | rnd.getrandbits(params.k[s] - params.l) << n)
                        for s in range(j - 1))
        zeros = (BitWord(2 * n, 0),) * (params.t - j)
        states.append(BlockState(params, j, words, written + zeros))
    return states


@pytest.mark.parametrize("params,n1", [s for s in SHAPES if s[0].t > 1],
                         ids=[f"t{p.t}-m{p.m}-n{p.n}" for p, _ in SHAPES if p.t > 1])
def test_read_steps_match_oracles_on_all_distinct_images(params, n1):
    rnd = random.Random(repr((params, "distinct")))
    n1 = min(n1, 20)  # t = 2, m = 1, n = 6 has only 41 data words of weight B_1 = 1 to B_2 = 3
    full = FullParams(params, n1)
    for j in range(2, params.t + 1):
        built = distinct_image(params, n1, j, rnd)
        memory = states_to_memory(built)
        states = memory_to_states(memory, full)
        assert states == layout_oracle.memory_to_states(memory, full) == built
        got = [decode_round(state, j) for state in states]
        assert got == [decode_oracle.decode_round(state, j) for state in states]
        assert unpack_messages(got, full) == layout_oracle.unpack_messages(got, full)


@pytest.mark.parametrize("round_", [1.0, True, "1"])
def test_round_message_refuses_a_round_that_is_no_int(round_):
    with pytest.raises(ValueError, match=f"^round {round_!r} is not an int$"):
        RoundMessage(round_, (0, 0, 0))


def test_memory_to_states_matches_oracle_on_random_memory_for_t1_and_m1():
    from test_layout import writable_block

    rnd = random.Random(71)
    kinds = set()
    for params in (params_of(1, 5, 1, l=0, k=()), params_of(1, 7, 3, l=0, k=()), params_of(2, 5, 1)):
        writable = lambda: writable_block(rnd, params, rnd.randint(0, params.t))
        for n1 in (1, 2, 9, 64):
            full = FullParams(params, n1)
            pool = [writable() for _ in range(3)]
            repeats = [rnd.choice(pool) for _ in range(n1)]
            distinct = [writable() for _ in range(n1)]
            any_bits = [rnd.getrandbits(params.n0) for _ in range(n1)]  # t = 1: every header is unary
            for blocks in (repeats, distinct, any_bits):
                memory = BitWord(full.N1, sum(b << (i * params.n0) for i, b in enumerate(blocks)))
                got = outcome(memory_to_states, memory, full)
                assert got == outcome(layout_oracle.memory_to_states, memory, full)
                kinds.add(got[0])
    assert kinds == {"ok", "raised"}


# B_1 = 3: C(10, 3) = 120 words, so ranks have 6 bits; round-2 words have 5
ROUND1 = WomParams(t=2, n=10, m=3, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))
FULL = FullParams(ROUND1, 4)


def unpack_cases():
    """(what, messages) pairs that cover every way unpack_messages can fail, and a few that pass."""
    width1, width2 = ROUND1.payload_bits(1), ROUND1.payload_bits(2)
    top1 = (1 << width1) - 1

    def r1(*blocks):
        return [RoundMessage(1, payload) for payload in blocks]

    def r2(*blocks):
        return [RoundMessage(2, tuple(BitWord(width2 + extra, value) for value, extra in payload)) for payload in blocks]

    fit = (0, 5, top1)
    ok2 = ((1, 0), (2, 0), (3, 0))
    return [
        ("fits", r1(fit, fit, fit, fit)),
        ("too few messages", r1(fit, fit, fit)),
        ("too many messages", r1(fit, fit, fit, fit, fit)),
        ("rounds disagree", r1(fit, fit) + r2(ok2, ok2)),
        ("short payload in block 0", r1(fit[:2], fit, fit, fit)),
        ("long payload in block 2", r1(fit, fit, fit + (0,), fit)),
        ("rank too wide at block 0 word 0", r1((top1 + 1, 0, 0), fit, fit, fit)),
        ("rank too wide at block 3 word 2", r1(fit, fit, fit, (0, 0, 100))),
        ("first of two wide ranks", r1(fit, (0, 64, 0), fit, (200, 0, 0))),
        ("negative rank among fitting ones", r1(fit, (0, -1, 0), fit, fit)),
        ("wide rank before a short payload", r1(fit, (0, 0, 64), fit[:1], fit)),
        ("short payload before a wide rank", r1(fit, fit[:1], (0, 0, 64), fit)),
        ("float ranks are refused", r1(fit, (1.0, 2.0, 3.0), fit, fit)),
        ("wide float rank", r1(fit, fit, (100.0, 0, 0), fit)),
        ("text ranks", r1(("1", "2", "3"),) * 4),
        ("bool ranks", r1((True, False, True),) * 4),
        ("rank that is no number", r1(fit, fit, (0, None, 0), fit)),
        ("rank that is a word", r1(fit, (0, BitWord(width1, 1), 0), fit, fit)),
        ("round-2 words fit", r2(ok2, ok2, ok2, ok2)),
        ("round-2 word too wide at block 1 word 1", r2(ok2, ((1, 0), (1 << width2, 1), (0, 0)), ok2, ok2)),
        ("round-2 entry that is no word", [RoundMessage(2, (1, 2, 3))] * 4),
        ("round-2 entry that is no word after words",
         r2(ok2, ok2) + [RoundMessage(2, (BitWord(width2, 0), None, 0))] * 2),
        ("round-2 entries that are no words but fit", [RoundMessage(2, [SimpleNamespace(bits=1)] * 3)] * 4),
        ("round without a hash size", [RoundMessage(3, (0, 0, 0))] * 4),
    ]


# The oracle raises AttributeError reading entry.bits, and takes a bool as a
# rank and any entry with fitting bits as a word; the library names the
# entry, and refuses what encode_round1 and the round-j search refuse.
REFUSED = {
    "round-2 entry that is no word": "block 0 word 0: 1 is not a BitWord",
    "round-2 entry that is no word after words": "block 2 word 1: None is not a BitWord",
    "round-2 entries that are no words but fit": "block 0 word 0: namespace(bits=1) is not a BitWord",
    "bool ranks": "block 0 word 0: rank True is not an int",
}


@pytest.mark.parametrize("what,msgs", unpack_cases(), ids=[what for what, _ in unpack_cases()])
def test_unpack_messages_matches_oracle_on_every_path(what, msgs):
    got = outcome(unpack_messages, msgs, FULL)
    if what in REFUSED:
        assert got == ("raised", ValueError, REFUSED[what])
    else:
        assert got == outcome(layout_oracle.unpack_messages, msgs, FULL)
    assert (got[0] == "ok") == (what in {"fits", "round-2 words fit"}), got


def test_unpack_messages_names_the_block_and_word_of_a_wide_value():
    msgs = [RoundMessage(1, (0, 0, 0))] * 3 + [RoundMessage(1, (0, 0, 100))]
    with pytest.raises(ValueError, match=r"^block 3 word 2: payload value 100 does not fit in 6 bits$"):
        unpack_messages(msgs, FULL)


def test_unpack_messages_of_a_zero_width_round():
    # p_1 = 0: B_1 = 0, one round-1 word, so ranks are 0 bits wide and only 0 fits
    params = WomParams(t=2, n=4, m=2, l=0, k=(2,), p=WeightVector([Fraction(0), Fraction(1, 2)]))
    full = FullParams(params, 3)
    for payload in ((0, 0), (0, 1), (-1, 0)):
        msgs = [RoundMessage(1, (0, 0))] * 2 + [RoundMessage(1, payload)]
        assert outcome(unpack_messages, msgs, full) == outcome(layout_oracle.unpack_messages, msgs, full)
    assert unpack_messages([RoundMessage(1, (0, 0))] * 3, full) == BitWord(0, 0)

import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from value_oracle import replace
from womkit.bitwords import BitWord, dominates, enumerate_above
from womkit.block_codec import (
    BlockState,
    NoEncoding,
    RoundMessage,
    SequencingError,
    decode_round,
    encode_round,
    encode_round1,
    in_guaranteed_regime,
    search_block_encoding,
)
from womkit.capacity import WeightVector, WomParams, derive_parameters, optimal_point
from womkit.full_codec import full_encode_round
from womkit.gf2n import canonical_spec, mul_bits
from womkit.hashfam import hash_apply


def params_t2(n=10, m=4, l=2, k2=7, p1=Fraction(1, 3)):
    return WomParams(t=2, n=n, m=m, l=l, k=(k2,), p=WeightVector([p1, Fraction(1, 2)]))


def params_t3():
    return WomParams(
        t=3, n=12, m=3, l=2, k=(7, 5),
        p=WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
    )


def random_message(params, j, rnd):
    if j == 1:
        return RoundMessage(1, tuple(rnd.randrange(params.round1_space) for _ in range(params.m)))
    width = params.k_for_round(j) - params.l
    return RoundMessage(j, tuple(BitWord(width, rnd.getrandbits(width)) for _ in range(params.m)))


def test_fresh_state():
    params = params_t2()
    state = BlockState.fresh(params)
    assert state.round == 0
    assert all(d.bits == 0 for d in state.data)
    assert all(s.bits == 0 for s in state.sides)
    # frozen, and a copy with a changed field is checked again
    for field in ("params", "round", "data", "sides"):
        with pytest.raises(AttributeError):
            setattr(state, field, getattr(state, field))
    with pytest.raises(ValueError, match=f"^data word 0 has weight 0, expected round-1 weight {params.budgets[0]}$"):
        replace(state, round=1)
    with pytest.raises(ValueError, match=f"^expected {params.m} data words of {params.n} bits$"):
        replace(state, data=state.data[1:])
    assert replace(state, sides=list(state.sides)) == state


def test_header_must_be_unary():
    """A state holds its round as an int in 0..t; in memory a block's header must be unary."""
    from womkit.full_codec import FullParams, memory_to_states

    params = params_t2()
    state = BlockState.fresh(params)
    for r in (-1, params.t + 1, True, 1.0):
        with pytest.raises(ValueError, match=rf"^round {r!r} is not an int in 0\.\.2$"):
            BlockState(params, r, state.data, state.sides)
    full = FullParams(params, 3)
    memory = BitWord(full.N1, 0b10 << params.n0)  # block 1's header 0b10, round 0 words
    with pytest.raises(ValueError, match=r"^block 1: header 0b10 is not a unary round counter$"):
        memory_to_states(memory, full)


def test_round_two_block_with_an_empty_data_word_is_refused():
    """Round 1 writes every data word at weight B_1 and later rounds only set cells."""
    params = params_t2()
    with pytest.raises(ValueError, match="^data word 0 has weight 0, below round-1 weight 3$"):
        BlockState(params, 2, [BitWord(10, 0)] * 4, [BitWord(20, 5)])


def test_block_state_checks_match_oracle():
    """Every check and message of BlockState, and tuple-typed fields, for any container."""
    import layout_oracle as oracle

    def outcome(fn, *args):
        try:
            return ("ok", fn(*args))
        except ValueError as exc:
            return ("raised", str(exc))

    def library(*args):
        state = BlockState(*args)
        assert type(state.data) is tuple and type(state.sides) is tuple
        return state.data, state.sides

    class Words(tuple):
        pass

    containers = (list, tuple, iter, Words)
    for params in (params_t2(), params_t3()):
        t, n, m = params.t, params.n, params.m
        data, sides = [BitWord(n, 1)] * m, [BitWord(2 * n, 3)] * (t - 1)
        rounds = list(range(-1, t + 2)) + [True, False, 1.0, BitWord(t, 1)]
        datas = [data, data[:-1], data + data[:1], data[:-1] + [BitWord(n + 1, 0)], [BitWord(n - 1, 0)] + data[1:], []]
        sideses = [sides, sides + [BitWord(2 * n, 0)], [BitWord(n, 0)] * (t - 1), sides[:-1] + [BitWord(2 * n + 1, 0)]]
        for r in rounds:
            for d in datas:
                for s in sideses:
                    for box in containers:
                        got = outcome(library, params, r, box(d), box(s))
                        assert got == outcome(oracle.check_block_state, params, r, box(d), box(s))


def test_encode_round1_colex_first():
    params = params_t2()
    state = encode_round1(BlockState.fresh(params), RoundMessage(1, (0, 0, 0, 0)))
    assert state.round == 1
    assert all(d.bits == 0b111 for d in state.data)  # colex-first weight-3 word


def test_encode_round1_unrank_example():
    params = params_t2(n=4, m=1, l=1, k2=2, p1=Fraction(1, 2))
    assert params.budgets[0] == 2
    state = encode_round1(BlockState.fresh(params), RoundMessage(1, (5,)))
    assert state.data[0].support() == (2, 3)


def test_round1_round_trip():
    params = params_t3()
    rnd = random.Random(10)
    for _ in range(100):
        msg = random_message(params, 1, rnd)
        state = encode_round1(BlockState.fresh(params), msg)
        assert decode_round(state, 1) == msg


def test_round1_rejects_bad_rank():
    params = params_t2()
    with pytest.raises(ValueError):
        encode_round1(BlockState.fresh(params), RoundMessage(1, (120, 0, 0, 0)))


@pytest.mark.parametrize("entry", [3.7, True, "7", BitWord(7, 5)])
def test_round1_refuses_ranks_that_are_no_int(entry):
    # int(3.7), int(True) and int("7") would write ranks 3, 1 and 7
    with pytest.raises(ValueError, match=rf"^word 1: rank {re.escape(repr(entry))} is not an int$"):
        encode_round1(BlockState.fresh(params_t2()), RoundMessage(1, [3, entry, 5, 6]))


def test_round2_refuses_messages_that_are_no_bitword():
    params = params_t2()
    state = encode_round1(BlockState.fresh(params), RoundMessage(1, [3, 1, 5, 6]))
    with pytest.raises(ValueError, match=r"^message 0 is 1, not a BitWord$"):
        encode_round(state, RoundMessage(2, [1, 2, 3, 4]))
    with pytest.raises(ValueError, match=r"^message 3 is 4, not a BitWord$"):
        search_block_encoding(params, 2, state.data, [BitWord(5, 0)] * 3 + [4])


def test_search_postconditions_are_met():
    params = params_t2()
    rnd = random.Random(11)
    budget = params.budgets[1]
    for _ in range(20):
        ws = [BitWord.from_support(rnd.sample(range(10), 3), 10) for _ in range(4)]
        xs = [BitWord(5, rnd.getrandbits(5)) for _ in range(4)]
        a, b, ys = search_block_encoding(params, 2, ws, xs)
        for w, x, y in zip(ws, xs, ys):
            assert dominates(y, w)
            assert y.weight <= budget
            assert hash_apply(a, b, 5, y) == x


def test_search_degenerate_zero_width():
    params = params_t2(n=6, m=2, l=2, k2=2, p1=Fraction(1, 3))
    w = BitWord.from_support([1, 4], 6)
    a, b, ys = search_block_encoding(params, 2, [w, w], [BitWord(0, 0), BitWord(0, 0)])
    assert a == 0 and b == 0
    assert ys == [w, w]


def test_search_rejects_overweight_input():
    params = params_t2()
    heavy = BitWord(10, 0b1111)  # weight 4 > round-1 budget 3
    light = BitWord(10, 0b0111)
    xs = [BitWord(5, 0)] * 4
    with pytest.raises(ValueError):
        search_block_encoding(params, 2, [heavy, light, light, light], xs)


def test_search_no_encoding_verified_exhaustively():
    # identical singleton candidate sets with contradictory targets: the
    # oracle below proves no coefficient pair works before we assert the
    # search agrees
    params = WomParams(t=2, n=2, m=2, l=1, k=(2,), p=WeightVector([Fraction(1, 2), Fraction(1, 2)]))
    assert params.budgets == (1, 1)
    w = BitWord(2, 0b01)
    xs = [BitWord(1, 0), BitWord(1, 1)]
    assert list(enumerate_above(w, 1)) == [w.bits]
    modulus = canonical_spec(2)
    for a in range(4):
        for b in range(4):
            out = (mul_bits(modulus, a, w.bits) ^ b) & 1
            assert not (out == xs[0].bits and out == xs[1].bits)
    with pytest.raises(NoEncoding) as err:
        search_block_encoding(params, 2, [w, w], xs)
    assert err.value.bottleneck == 1


def test_guaranteed_regime_never_fails():
    params = WomParams(t=2, n=12, m=2, l=5, k=(9,), p=WeightVector([Fraction(1, 6), Fraction(1, 2)]))
    rnd = random.Random(12)
    for _ in range(30):
        ws = [
            BitWord.from_support(rnd.sample(range(12), rnd.randint(0, 2)), 12)
            for _ in range(2)
        ]
        xs = [BitWord(4, rnd.getrandbits(4)) for _ in range(2)]
        assert in_guaranteed_regime(params, 2, ws)
        a, b, ys = search_block_encoding(params, 2, ws, xs)
        for w, x, y in zip(ws, xs, ys):
            assert dominates(y, w) and y.weight <= params.budgets[1]
            assert hash_apply(a, b, 4, y) == x


def test_regime_detects_small_candidate_sets():
    params = WomParams(t=2, n=12, m=2, l=5, k=(9,), p=WeightVector([Fraction(1, 6), Fraction(1, 2)]))
    light = BitWord.zeros(12)
    heavy = BitWord(12, 0b11)  # weight 2 keeps |Y| = 638 >= 512
    assert in_guaranteed_regime(params, 2, [light, heavy])
    crowded = params_t2()  # m = 4 is not below 2^(l/4) = 2^(1/2)
    assert not in_guaranteed_regime(crowded, 2, [BitWord.zeros(10)] * 4)


def test_regime_decides_m_below_two_to_the_quarter_l_exactly():
    # k = l and a zero word of 1,000 bits: every candidate count clears
    # 2^k, so the answer is m^4 < 2^l alone. A float 2^(l/4) first rounds
    # wrongly at l = 209 and overflows from l = 4,096 on.
    half = WeightVector([Fraction(1, 2), Fraction(1, 2)])

    def regime(l, m, n=1000, ws=(BitWord.zeros(1000),)):
        return in_guaranteed_regime(WomParams(t=2, n=n, m=m, l=l, k=(l,), p=half), 2, ws)

    assert not regime(218, 25_476_206_690_103_091)  # m^4 >= 2^218; the float rule said True
    assert regime(209, 5_355_712_719_992_597)  # m^4 < 2^209; the float rule said False
    top = 1 << 1025  # 2^(4100/4)
    assert regime(4100, top - 1, n=4100, ws=()) is True
    assert regime(4100, top, n=4100, ws=()) is False
    for l in range(209):  # with no words, the answer is the m test alone
        root = math.floor(2 ** (l / 4))
        for m in range(max(1, root - 2), root + 3):
            assert regime(l, m, ws=()) == (m < 2 ** (l / 4)), (l, m)


# The paper's existence argument, exhaustively: candidate sets of at least
# 2^(k_j) words and m < 2^(l/4) words leave some (a, b) for any messages.
REGIME = WomParams(t=2, n=10, m=2, l=6, k=(7,), p=WeightVector([Fraction(1, 5), Fraction(1, 2)]))


def test_every_block_of_a_regime_family_encodes():
    # all 56 words of weight <= B_1 = 2 in pairs, with all 4 pairs of 1-bit
    # messages: 12,544 searches. The 8,100 of weight-B_1 pairs, reachable
    # after round 1, run as one whole-image write, the rest one by one.
    # The winning multipliers are pinned, so a search that picks another a
    # shows here; a = 0 wins exactly when the two messages are equal.
    n, budget = REGIME.n, REGIME.budgets[0]
    words = [BitWord.from_support(s, n) for weight in range(budget + 1) for s in combinations(range(n), weight)]
    assert len(words) == 56
    pairs = list(product(words, repeat=2))
    assert all(in_guaranteed_regime(REGIME, 2, ws) for ws in pairs)
    messages = [RoundMessage(2, xs) for xs in product([BitWord(1, 0), BitWord(1, 1)], repeat=2)]
    full = [(ws, msg) for ws in pairs if {w.weight for w in ws} == {budget} for msg in messages]
    rest = [(ws, msg) for ws in pairs if {w.weight for w in ws} != {budget} for msg in messages]
    assert (len(full), len(rest)) == (8100, 4444)
    sides = (BitWord.zeros(2 * n),)
    states = [BlockState(REGIME, 1, ws, sides) for ws, _ in full]
    written = full_encode_round(states, [msg for _, msg in full])
    winners = Counter(state.sides[0].bits & ((1 << n) - 1) for state in written)
    winners.update(search_block_encoding(REGIME, 2, ws, msg.payload)[0] for ws, msg in rest)
    assert winners == {0: 6272, 1: 6072, 2: 198, 4: 2}


def test_derived_parameters_keep_every_reachable_word_in_the_regime():
    # t = 1..6 at epsilon from 0.9 to 0.01 of the total rate log2(t + 1):
    # m^4 < 2^l, and in each round j >= 2 a word at the heaviest weight it
    # can hold, B_(j-1), has at least 2^(k_j) candidates. That count is the
    # sum of C(n - B_(j-1), i) over i <= B_j - B_(j-1); past n = 5,000 its
    # largest term, from lgamma, must clear k_j by a bit.
    checked = 0
    for t in range(1, 7):
        rates, p = optimal_point(t)
        for share in (0.9, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01):
            params = derive_parameters(share * math.log2(t + 1), rates, p)
            budgets = (0,) + params.budgets
            for j in range(2, t + 1):
                assert in_guaranteed_regime(params, j, [])
                free, room, kj = params.n - budgets[j - 1], budgets[j] - budgets[j - 1], params.k_for_round(j)
                if params.n <= 5000:
                    assert sum(math.comb(free, i) for i in range(room + 1)) >= 1 << kj, (t, share, j)
                else:
                    i = min(room, free // 2)
                    bits = (math.lgamma(free + 1) - math.lgamma(i + 1) - math.lgamma(free - i + 1)) / math.log(2)
                    assert bits >= kj + 1, (t, share, j)
            assert params.m ** 4 < 1 << params.l
            checked += 1
    assert checked == 42


def full_session(params, seed):
    rnd = random.Random(seed)
    state = BlockState.fresh(params)
    history = [state]
    msgs = []
    for j in range(1, params.t + 1):
        msg = random_message(params, j, rnd)
        state = encode_round1(state, msg) if j == 1 else encode_round(state, msg)
        msgs.append(msg)
        history.append(state)
    return history, msgs


def test_t2_round_trips_with_budgets_and_dominance():
    params = params_t2()
    for seed in range(20):
        history, msgs = full_session(params, seed)
        for j in range(1, 3):
            assert decode_round(history[j], j) == msgs[j - 1]
            budget = params.budgets[j - 1]
            assert all(d.weight <= budget for d in history[j].data)
            for prev, new in zip(history[j - 1].data, history[j].data):
                assert dominates(new, prev)


def test_t3_round_trips():
    params = params_t3()
    for seed in range(10):
        history, msgs = full_session(params, seed)
        for j in range(1, 4):
            assert decode_round(history[j], j) == msgs[j - 1]
            assert all(d.weight <= params.budgets[j - 1] for d in history[j].data)


def test_side_blocks_written_per_round():
    params = params_t3()
    history, _ = full_session(params, 99)
    assert history[1].sides == (BitWord.zeros(24), BitWord.zeros(24))
    assert history[2].sides[1].bits == 0
    assert history[3].round == 3


def test_sequencing_errors():
    params = params_t2()
    state = BlockState.fresh(params)
    msg1 = RoundMessage(1, (0, 0, 0, 0))
    with pytest.raises(SequencingError):
        encode_round(state, RoundMessage(2, (BitWord(5, 0),) * 4))  # round 2 first
    with pytest.raises(SequencingError, match="round 3 out of range 1..2"):
        encode_round(state, RoundMessage(3, (BitWord(5, 0),) * 4))
    with pytest.raises(SequencingError, match="message is for round 2, block expects round 1"):
        encode_round1(state, RoundMessage(2, (BitWord(5, 0),) * 4))
    assert encode_round(state, msg1) == encode_round1(state, msg1)  # encode_round writes round 1 too
    state = encode_round1(state, msg1)
    with pytest.raises(SequencingError):
        encode_round1(state, msg1)  # same round twice
    msg2 = RoundMessage(2, (BitWord(5, 1),) * 4)
    state = encode_round(state, msg2)
    with pytest.raises(SequencingError):
        encode_round(state, msg2)


def test_decode_round_requires_current_round():
    params = params_t2()
    state = BlockState.fresh(params)
    with pytest.raises(ValueError):
        decode_round(state, 1)  # nothing written yet
    state = encode_round1(state, RoundMessage(1, (1, 2, 3, 4)))
    with pytest.raises(ValueError):
        decode_round(state, 2)
    state = encode_round(state, RoundMessage(2, (BitWord(5, 7),) * 4))
    with pytest.raises(ValueError):
        decode_round(state, 1)  # earlier rounds are not decodable
    with pytest.raises(ValueError):
        decode_round(state, 3)


def test_block_state_rejects_words_the_encoder_cannot_write():
    params = params_t3()
    rnd = random.Random(60)
    state = BlockState.fresh(params)
    # round 0 has no cells to spend; round 1 spends exactly B_1 per word
    for i, bit in ((0, 0), (2, params.n - 1)):
        data = state.data[:i] + (BitWord(params.n, 1 << bit),) + state.data[i + 1 :]
        with pytest.raises(ValueError, match=f"^data word {i} has weight 1, above round-0 budget 0$"):
            replace(state, data=data)
    for j in (1, 2, 3):
        state = encode_round(state, random_message(params, j, rnd))
        budget, out_len = params.budgets[j - 1], params.payload_bits(j)
        assert all(d.weight <= budget for d in state.data)
        decode_round(state, j)  # what the encoder wrote decodes
        # any set cell in the side word of a round not yet written
        for s in range(j - 1, params.t - 1):
            for bit in (0, params.n, 2 * params.n - 1):
                sides = state.sides[:s] + (BitWord(2 * params.n, 1 << bit),) + state.sides[s + 1 :]
                with pytest.raises(ValueError, match=f"^side word {s} is set, but round {s + 2} is not written$"):
                    replace(state, sides=sides)
        # an earlier round's side word: b must fit that round's hash output
        for s in range(j - 2):
            earlier = params.payload_bits(s + 2)
            side = state.sides[s].bits
            for wide, ok in ((side | 1 << (params.n + earlier - 1), True),
                             (side | 1 << (params.n + earlier), False),
                             ((1 << 2 * params.n) - 1, False)):
                sides = state.sides[:s] + (BitWord(2 * params.n, wide),) + state.sides[s + 1 :]
                if ok:
                    decode_round(replace(state, sides=sides), j)
                else:
                    with pytest.raises(ValueError, match=f"^side word {s} holds b = {wide >> params.n}, "
                                                         f"wider than {earlier} bits$"):
                        replace(state, sides=sides)
        if j == 1:
            # one cell fewer or one more than B_1
            word = state.data[1].bits
            for off in (word & (word - 1), word | ~word & (word + 1)):
                data = (state.data[0], BitWord(params.n, off)) + state.data[2:]
                with pytest.raises(ValueError, match=f"^data word 1 has weight {off.bit_count()}, "
                                                     f"expected round-1 weight {budget}$"):
                    replace(state, data=data)
            continue
        # a data word one cell over the budget, still above the stored word
        over = state.data[1].bits
        while over.bit_count() <= budget:
            over |= ~over & (over + 1)  # the lowest clear cell
        with pytest.raises(ValueError, match=f"^data word 1 has weight {budget + 1}, above round-{j} budget {budget}$"):
            replace(state, data=(state.data[0], BitWord(params.n, over)) + state.data[2:])
        # a data word one cell under B_1: round 1 wrote B_1 cells, and later rounds only set cells
        b1 = params.budgets[0]
        under = BitWord.from_support(range(b1 - 1), params.n)
        with pytest.raises(ValueError, match=f"^data word 1 has weight {b1 - 1}, below round-1 weight {b1}$"):
            replace(state, data=(state.data[0], under) + state.data[2:])
        # the top bit b may use is fine; one bit above it is not
        side = state.sides[j - 2].bits
        for bit, ok in ((out_len - 1, True), (out_len, False), (params.n - 1, False)):
            wide = side | 1 << (params.n + bit)
            sides = state.sides[: j - 2] + (BitWord(2 * params.n, wide),) + state.sides[j - 1 :]
            if ok:
                decode_round(replace(state, sides=sides), j)
            else:
                with pytest.raises(ValueError, match=f"^side word {j - 2} holds b = {wide >> params.n}, "
                                                     f"wider than {out_len} bits$"):
                    replace(state, sides=sides)


def test_single_round_code():
    params = WomParams(t=1, n=8, m=3, l=0, k=(), p=WeightVector([Fraction(1, 2)]))
    rnd = random.Random(77)
    for _ in range(20):
        msg = random_message(params, 1, rnd)
        state = encode_round1(BlockState.fresh(params), msg)
        assert state.sides == ()
        assert decode_round(state, 1) == msg


def test_determinism_bit_identical_states():
    params = params_t3()
    first, _ = full_session(params, 1234)
    second, _ = full_session(params, 1234)
    assert first == second
    assert first[-1].sides == second[-1].sides  # includes the chosen coefficients


def brute_force_first_map(params, j, ws, xs):
    """The least (a, b) for which every word has a y >= w_i within B_j hashing to x_i, or None.

    Scans every multiplier a, every shift b and every candidate y explicitly.
    """
    n, out_len = params.n, params.payload_bits(j)
    modulus = canonical_spec(n)
    candidates = [list(enumerate_above(w, params.budgets[j - 1])) for w in ws]
    for a in range(1 << n):
        hashes = [{mul_bits(modulus, a, y) & ((1 << out_len) - 1) for y in cand} for cand in candidates]
        for b in range(1 << out_len):
            if all(x.bits ^ b in hashed for hashed, x in zip(hashes, xs)):
                return a, b
    return None


def test_search_agrees_with_brute_force_existence_oracle():
    # the search must succeed exactly when a solution exists, with the least
    # multiplier that has one and that multiplier's least shift
    def code(t, n, m, l, k, p1):
        densities = [Fraction(*p1)] * (t - 1) + [Fraction(1, 2)]
        return WomParams(t=t, n=n, m=m, l=l, k=k, p=WeightVector(densities))

    cases = [  # (params, round, lightest current word, instances)
        (code(2, 4, 2, 2, (3,), (1, 4)), 2, 0, 60),
        (code(2, 5, 2, 0, (5,), (1, 2)), 2, 1, 20),
        (code(2, 5, 3, 0, (5,), (1, 2)), 2, 2, 40),
        (code(2, 5, 3, 1, (5,), (1, 2)), 2, 1, 40),
        (code(2, 6, 1, 0, (6,), (1, 2)), 2, 2, 10),
        (code(2, 6, 3, 0, (6,), (1, 2)), 2, 2, 40),
        (code(3, 6, 3, 0, (4, 6), (1, 3)), 3, 2, 40),
    ]
    rnd = random.Random(13)
    outcomes = {}
    for params, j, lightest, count in cases:
        n, out_len = params.n, params.payload_bits(j)
        budget, prev = params.budgets[j - 1], params.budgets[j - 2]
        for _ in range(count):
            ws = [BitWord.from_support(rnd.sample(range(n), rnd.randint(lightest, prev)), n)
                  for _ in range(params.m)]
            xs = [BitWord(out_len, rnd.getrandbits(out_len)) for _ in range(params.m)]
            first = brute_force_first_map(params, j, ws, xs)
            try:
                a, b, ys = search_block_encoding(params, j, ws, xs)
            except NoEncoding:
                assert first is None, (params, j, ws, xs)
                outcomes[n, "none"] = outcomes.get((n, "none"), 0) + 1
                continue
            assert (a, b) == first, (params, j, ws, xs)
            for w, x, y in zip(ws, xs, ys):
                assert dominates(y, w) and y.weight <= budget
                assert hash_apply(a, b, out_len, y) == x
            outcomes[n, "found"] = outcomes.get((n, "found"), 0) + 1
    assert all(outcomes.get((n, "found"), 0) >= 20 for n in (4, 5, 6)), outcomes
    assert all(outcomes.get((n, "none"), 0) >= 1 for n in (5, 6)), outcomes


def test_fuzzed_configurations_round_trip_or_fail_honestly():
    from womkit.full_codec import states_to_memory
    from womkit.wom_device import Device, apply_write

    rnd = random.Random(1234)
    complete = infeasible = 0
    for _ in range(120):
        t = rnd.randint(1, 3)
        n = rnd.randint(4, 12)
        l = rnd.randint(0, 4)
        try:
            params = WomParams(
                t=t, n=n, m=rnd.randint(1, 4), l=l,
                k=tuple(sorted((rnd.randint(l, n) for _ in range(t - 1)), reverse=True)),
                p=WeightVector([Fraction(1, rnd.randint(2, 6)) for _ in range(t - 1)]
                               + [Fraction(1, 2)]),
            )
        except ValueError:
            continue
        dev = Device.fresh(params.n0)
        state = BlockState.fresh(params)
        try:
            for j in range(1, t + 1):
                msg = random_message(params, j, rnd)
                state = encode_round1(state, msg) if j == 1 else encode_round(state, msg)
                dev = apply_write(dev, states_to_memory([state]))
                assert decode_round(state, j) == msg
                assert all(d.weight <= params.budgets[j - 1] for d in state.data)
            complete += 1
        except NoEncoding:
            infeasible += 1  # an acceptable outcome; wrong decodes are not
    assert complete >= 100

"""The one-pass search against the two-pass oracle in `search_oracle`.

Instances are random t = 3 blocks at every width n = 2..18, searched for
round 2 and round 3. Wide blocks get hash outputs no longer than their
smallest candidate set supports, so each search ends within a few
multipliers; narrow blocks (n <= 7) get outputs at least that long, up
to eight words and words at the previous round's full budget, so many of
their searches scan every multiplier and raise NoEncoding. The widest
blocks (n >= 15), the widths a packed search table must cover, hold words
at the previous round's full budget, which keeps their candidate sets to at
most a few thousand words, and outputs at least half as long as supported.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import search_oracle as oracle
from value_oracle import replace
from womkit import block_codec
from womkit.bitwords import BitWord, count_above, subset_unrank
from womkit.block_codec import BlockState, NoEncoding, RoundMessage, _built_state, search_block_encoding
from womkit.capacity import WeightVector, WomParams
from womkit.full_codec import full_encode_round
from womkit.gf2n import canonical_spec
from womkit.hashfam import hash_words, truncated_rows


def outcome(search, *args):
    try:
        return ("ok", search(*args))
    except NoEncoding as exc:
        return ("no encoding", str(exc), exc.bottleneck)
    except ValueError as exc:
        return ("value error", str(exc))


def random_instance(rnd, n, j):
    """A t = 3 block at width n with round-j words and messages."""
    p = WeightVector([Fraction(1, rnd.randint(2, 6)), Fraction(1, rnd.randint(2, 5)), Fraction(1, 2)])
    m = rnd.randint(1, 8 if n <= 7 else 4)
    l = rnd.randint(0, min(3, n))
    budgets = WomParams(t=3, n=n, m=m, l=l, k=(n, n), p=p).budgets
    ws = []
    for _ in range(m):
        weight = budgets[j - 2] if n <= 7 or n >= 15 else rnd.randint(0, budgets[j - 2])
        ws.append(BitWord.from_support(rnd.sample(range(n), weight), n))
    smallest = min(count_above(w, budgets[j - 1]) for w in ws)
    supported = min(n - l, smallest.bit_length() - 1)
    if n <= 7:
        out_len = rnd.randint(supported, n - l)
    else:
        out_len = rnd.randint(supported // 2 if n >= 15 else 0, supported)
    k = [rnd.randint(l, n), rnd.randint(l, n)]
    k[j - 2] = l + out_len
    params = WomParams(t=3, n=n, m=m, l=l, k=tuple(k), p=p)
    xs = [BitWord(out_len, rnd.getrandbits(out_len)) for _ in range(m)]
    return params, ws, xs


def test_search_matches_two_pass_oracle():
    rnd = random.Random(0x5EA2C4)
    kinds = {"ok": 0, "no encoding": 0}
    for n in range(2, 19):
        for _ in range(40 if n <= 7 else 12 if n <= 14 else 3):
            for j in (2, 3):
                params, ws, xs = random_instance(rnd, n, j)
                got = outcome(search_block_encoding, params, j, ws, xs)
                assert got == outcome(oracle.search_block_encoding, params, j, ws, xs), (params, j, ws, xs)
                assert n < 15 or got[0] == "ok", got
                kinds[got[0]] += 1
    assert kinds["ok"] >= 150 and kinds["no encoding"] >= 40, kinds


def test_search_bottleneck_and_errors_match_oracle():
    # the t = 2 instance of test_search_no_encoding_verified_exhaustively, a
    # three-word variant whose last word decides, and every input check
    p = WeightVector([Fraction(1, 2), Fraction(1, 2)])
    tight = WomParams(t=2, n=2, m=2, l=1, k=(2,), p=p)
    wide = WomParams(t=2, n=4, m=3, l=0, k=(4,), p=WeightVector([Fraction(1, 4), Fraction(1, 2)]))
    w = BitWord(2, 0b01)
    cases = [
        (tight, 2, [w, w], [BitWord(1, 0), BitWord(1, 1)]),
        (wide, 2, [BitWord(4, 1), BitWord(4, 2), BitWord(4, 1)], [BitWord(4, 3), BitWord(4, 5), BitWord(4, 6)]),
        (tight, 1, [w, w], [BitWord(1, 0)] * 2),
        (tight, 2, [w], [BitWord(1, 0)] * 2),
        (tight, 2, [w, BitWord(3, 1)], [BitWord(1, 0)] * 2),
        (tight, 2, [w, BitWord(2, 0b11)], [BitWord(1, 0)] * 2),
        (tight, 2, [w, w], [BitWord(1, 0), BitWord(2, 0)]),
    ]
    got = [outcome(search_block_encoding, *case) for case in cases]
    assert got == [outcome(oracle.search_block_encoding, *case) for case in cases]
    assert [g[0] for g in got] == ["no encoding"] * 2 + ["value error"] * 5
    assert (got[0][2], got[1][2]) == (1, 2)


# Whole-image writes: `full_encode_round` searches the blocks of a round in
# order and shares a repeated word's tables through one memo per call;
# `oracle.full_encode_round` searches each block alone with the one-pass
# search the library started from.

T2 = WeightVector([Fraction(1, 3), Fraction(1, 2)])
T3 = WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
CLI_SHAPE = WomParams(t=3, n=12, m=3, l=2, k=(7, 5), p=T3)
BULK_SHAPE = WomParams(t=2, n=10, m=4, l=2, k=(7,), p=T2)


def write_outcome(encode, states, msgs):
    """Each block's (a, b, ys), or the error raised; the caller's list must come back unchanged."""
    before = list(states)
    try:
        result = encode(states, msgs)
        got = ("ok", [(s.sides[s.round - 2].bits % (1 << s.params.n), s.sides[s.round - 2].bits >> s.params.n, s.data)
                      for s in result])
    except NoEncoding as exc:
        got = ("no encoding", str(exc), exc.bottleneck)
    except Exception as exc:
        got = (type(exc).__name__, str(exc))
    assert len(states) == len(before) and all(s is t for s, t in zip(states, before))
    return got


def message(params, j, rnd, ranks=None):
    if j == 1:
        return RoundMessage(1, ranks or [rnd.randrange(params.round1_space) for _ in range(params.m)])
    width = params.payload_bits(j)
    return RoundMessage(j, [BitWord(width, rnd.getrandbits(width)) for _ in range(params.m)])


def rounds_of(params, blocks, seed, last=None, same=0.0, distinct=False):
    """(states, messages) before each round j >= 2 of a random image.

    A fraction `same` of the blocks gets one rank for all its round-1 words;
    `distinct` draws every round-1 word of the image once. Each round's
    states come from the previous round's whole-image write, which the
    tests compare with the oracle.
    """
    rnd = random.Random(seed)
    m = params.m
    ranks = rnd.sample(range(params.round1_space), blocks * m) if distinct else None
    msgs = [message(params, 1, rnd, ranks[b * m:(b + 1) * m] if distinct else
                    [rnd.randrange(params.round1_space)] * m if rnd.random() < same else None)
            for b in range(blocks)]
    states, out = [BlockState.fresh(params)] * blocks, []
    for j in range(2, (last or params.t) + 1):
        states = full_encode_round(states, msgs)
        msgs = [message(params, j, rnd) for _ in range(blocks)]
        out.append((states, msgs))
    return out


def assert_matches_oracle(states, msgs):
    got = write_outcome(full_encode_round, states, msgs)
    assert got == write_outcome(oracle.full_encode_round, states, msgs)
    return got


@pytest.mark.parametrize("params, blocks, seed", [
    (WomParams(t=2, n=10, m=4, l=2, k=(7,), p=T2), 300, 1),
    (WomParams(t=2, n=12, m=4, l=2, k=(8,), p=T2), 200, 2),
    (CLI_SHAPE, 400, 3),
    (BULK_SHAPE, 2000, 4),
])
def test_whole_image_rounds_match_per_block_oracle(params, blocks, seed):
    for states, msgs in rounds_of(params, blocks, seed):
        words = [w.bits for s in states for w in s.data]
        assert len(set(words)) < 0.65 * len(words)  # the words repeat
        assert assert_matches_oracle(states, msgs)[0] == "ok"


def test_whole_image_writes_share_tables(monkeypatch):
    # the candidates hashed into tables by the 400-block image above: 69,940
    # and 158,534 with the hull test, whether the memo keeps a word's tables
    # at every multiplier or only at those that encoded its holders,
    # 113,620 and 428,396 without the hull test, and 356,460 and 577,149
    # when each block is searched alone
    hashed, hash_table = [], block_codec.hash_table

    def counting(rows, words):
        hashed.append(len(words))
        return hash_table(rows, words)

    monkeypatch.setattr(block_codec, "hash_table", counting)
    counts = []
    for states, msgs in rounds_of(CLI_SHAPE, 400, seed=3):
        hashed.clear()
        full_encode_round(states, msgs)
        counts.append(sum(hashed))
    assert 0 < counts[0] <= 71_000 and 0 < counts[1] <= 160_000, counts


def test_a_block_builds_a_repeated_words_table_and_hull_once_per_multiplier(monkeypatch):
    # blocks of the bulk_image probe's shape, searched alone as its probe
    # does: a word that a block holds twice has its candidates hashed, and
    # its hull built, at most once at each multiplier
    built, at = [], []
    rows_at, hash_table, hull = block_codec.truncated_rows, block_codec.hash_table, block_codec._hull

    def rows(modulus, a, out_len):
        at[:] = [a]
        return rows_at(modulus, a, out_len)

    def hashing(rows, words):
        built.append(("table", at[0], words[-1]))  # the last candidate is the word
        return hash_table(rows, words)

    def hulling(rows, bits, size):
        built.append(("hull", at[0], bits))
        return hull(rows, bits, size)

    monkeypatch.setattr(block_codec, "truncated_rows", rows)
    monkeypatch.setattr(block_codec, "hash_table", hashing)
    monkeypatch.setattr(block_codec, "_hull", hulling)
    [(states, msgs)] = rounds_of(BULK_SHAPE, 128, seed=5)
    assert sum(len({w.bits for w in s.data}) < BULK_SHAPE.m for s in states) >= 5
    for state, msg in zip(states, msgs):
        built.clear()
        search_block_encoding(BULK_SHAPE, 2, state.data, msg.payload)
        assert built and len(built) == len(set(built)), Counter(built).most_common(1)


def test_all_distinct_words_and_one_block_match_oracle():
    for n in range(14, 19):
        params = WomParams(t=2, n=n, m=4, l=2, k=(n - 6,), p=T2)
        [(states, msgs)] = rounds_of(params, 2 if n >= 17 else 3, seed=n, distinct=True)
        assert assert_matches_oracle(states, msgs)[0] == "ok"
        assert assert_matches_oracle(states[:1], msgs[:1])[0] == "ok"


def test_blocks_whose_own_words_repeat_match_oracle():
    rounds = rounds_of(CLI_SHAPE, 60, seed=5, same=0.5)
    assert sum(len({w.bits for w in s.data}) == 1 for s in rounds[0][0]) >= 20
    for states, msgs in rounds:
        assert assert_matches_oracle(states, msgs)[0] == "ok"


def test_mixed_parameter_sets_never_share_tables(monkeypatch):
    # equal word bits under parameters whose hash widths, fields or rounds
    # differ: a write that mixes them is refused before any search, and each
    # parameter set written alone matches the oracle
    narrow = WomParams(t=2, n=10, m=4, l=1, k=(7,), p=T2)
    wide = WomParams(t=3, n=12, m=4, l=2, k=(7, 5), p=WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]))
    rnd = random.Random(6)
    for params in (narrow, wide):
        [(states, msgs)] = rounds_of(BULK_SHAPE, 30, seed=7, last=2)
        twins = [BlockState(params, 1, (w if params.n == 10 else BitWord(12, w.bits) for w in s.data),
                            (BitWord(2 * params.n, 0),) * (params.t - 1)) for s in states]
        twin_msgs = [message(params, 2, rnd) for _ in twins]
        mixed = [s for pair in zip(states, twins) for s in pair]
        mixed_msgs = [m for pair in zip(msgs, twin_msgs) for m in pair]
        searched = []
        monkeypatch.setattr(block_codec, "_search", lambda *args: searched.append(args))
        for image, image_msgs in ((mixed, mixed_msgs), (twins + states, twin_msgs + msgs)):
            assert write_outcome(full_encode_round, image, image_msgs) == ("ValueError", "blocks disagree on parameters")
        assert searched == []
        monkeypatch.undo()
        assert assert_matches_oracle(twins, twin_msgs)[0] == "ok"
        assert assert_matches_oracle(states, msgs)[0] == "ok"


def test_small_images_match_oracle_on_success_and_no_encoding():
    # narrow fields and long hash outputs: words repeat, and many writes fail
    rnd = random.Random(0x1A6E)
    kinds = Counter()
    for trial in range(600):
        n = rnd.randint(2, 6)
        l = rnd.randint(0, 1)
        p = WeightVector([Fraction(1, rnd.randint(2, 3)), Fraction(1, 2)])
        params = WomParams(t=2, n=n, m=rnd.randint(1, 4), l=l, k=(rnd.randint(max(l, n - 1), n),), p=p)
        [(states, msgs)] = rounds_of(params, rnd.randint(2, 6), seed=trial, same=0.2)
        kinds[assert_matches_oracle(states, msgs)[0]] += 1
    assert kinds["ok"] >= 60 and kinds["no encoding"] >= 60, kinds


# Round 1: each distinct rank is unranked once per call, and looked up only
# after every rank passes the type check.


@pytest.mark.parametrize("entry, text", [
    (True, "block 2 word 1: rank True is not an int"),
    (1.0, "block 2 word 1: rank 1.0 is not an int"),
    (BULK_SHAPE.round1_space, "block 2 word 1: rank 120 out of range, expected 0..119"),
], ids=["True", "1.0", "120"])
def test_round1_checks_each_rank_before_the_shared_table(entry, text):
    # earlier blocks write rank 1 first: a table looked up before the type
    # check would give True and 1.0 rank 1's word
    msgs = [RoundMessage(1, [1, 2, 3, 4]), RoundMessage(1, [5, 1, 1, 6]), RoundMessage(1, [7, entry, 8, 9])]
    assert assert_matches_oracle([BlockState.fresh(BULK_SHAPE)] * 3, msgs) == ("ValueError", text)


HEAVY = WomParams(t=2, n=10, m=4, l=1, k=(7,), p=WeightVector([Fraction(1, 2), Fraction(1, 2)]))


def test_round1_tables_are_kept_apart_per_parameter_set(monkeypatch):
    # equal ranks under parameters whose widths or round-1 weights differ:
    # a write that mixes them is refused before any rank is unranked, and
    # each parameter set written alone unranks under its own widths and weights
    narrow = WomParams(t=2, n=10, m=4, l=1, k=(7,), p=T2)
    wide = WomParams(t=3, n=12, m=4, l=2, k=(7, 5), p=T3)
    rnd = random.Random(6)
    ranks = [[rnd.randrange(narrow.round1_space) for _ in range(4)] for _ in range(30)]
    unranked = []
    monkeypatch.setattr(block_codec, "subset_unrank", lambda *args: unranked.append(args))
    states = [BlockState.fresh(params) for _ in ranks for params in (narrow, wide, HEAVY)]
    msgs = [RoundMessage(1, block) for block in ranks for _ in (narrow, wide, HEAVY)]
    assert write_outcome(full_encode_round, states, msgs) == ("ValueError", "blocks disagree on parameters")
    assert unranked == []
    monkeypatch.undo()
    for params in (narrow, wide, HEAVY):
        states = [BlockState.fresh(params) for _ in ranks]
        msgs = [RoundMessage(1, block) for block in ranks]
        assert assert_matches_oracle(states, msgs)[0] == "ok"
        for state, msg in zip(full_encode_round(states, msgs), msgs):
            assert state.params is params
            assert state.data == tuple(subset_unrank(rank, params.n, params.budgets[0]) for rank in msg.payload)


# Failure order: the error each case expects is the one the per-block loop
# raises. It checks every block before it searches any, so the first block
# whose check fails wins over an earlier block that no multiplier encodes.
# The check covers messages only: OVERWEIGHT is forged past `check_block`,
# which no public constructor allows, so the write searches it as it is.

TIGHT = WomParams(t=2, n=2, m=2, l=1, k=(2,), p=WeightVector([Fraction(1, 2), Fraction(1, 2)]))
WIDE = WomParams(t=2, n=4, m=3, l=0, k=(4,), p=WeightVector([Fraction(1, 4), Fraction(1, 2)]))


def round1(params, bits):
    return BlockState(params, 1, [BitWord(params.n, b) for b in bits], [BitWord(2 * params.n, 0)] * (params.t - 1))


def msg2(params, xs):
    return RoundMessage(2, [BitWord(params.payload_bits(2), x) for x in xs])


def wide_fails(bottleneck):
    """The first WIDE block, over its weight-1 words and messages in order, that no multiplier encodes."""
    for ws in product((1, 2, 4, 8), repeat=WIDE.m):
        for xs in product(range(1 << WIDE.payload_bits(2)), repeat=WIDE.m):
            block = round1(WIDE, ws), msg2(WIDE, xs)
            if outcome(oracle.search_block_encoding, WIDE, 2, block[0].data, block[1].payload)[2:] == (bottleneck,):
                return block


TIGHT_FAILS = (round1(TIGHT, [1, 1]), msg2(TIGHT, [0, 1]))  # bottleneck 1 after 4 multipliers
WIDE_FAILS = (round1(WIDE, [1, 2, 1]), msg2(WIDE, [3, 5, 6]))  # bottleneck 2 after 16 multipliers
WIDE_FAILS_1 = wide_fails(1)
TIGHT_OK = (round1(TIGHT, [1, 1]), msg2(TIGHT, [1, 1]))
WIDE_OK = (round1(WIDE, [1, 2, 4]), msg2(WIDE, [3, 5, 6]))
OVERWEIGHT = (_built_state(WIDE, 1, tuple(BitWord(4, b) for b in (3, 2, 1)), (BitWord(8, 0),)), msg2(WIDE, [0, 0, 0]))
SHORT_PAYLOAD = (round1(WIDE, [1, 2, 4]), RoundMessage(2, [BitWord(4, 0)] * 2))
WRONG_ROUND = (round1(WIDE, [1, 2, 4]), RoundMessage(3, [BitWord(4, 0)] * 3))
ROUND_ONE = (round1(WIDE, [1, 2, 4]), RoundMessage(1, [0, 0, 0]))
WRONG_WIDTH = (round1(WIDE, [1, 2, 4]), RoundMessage(2, [BitWord(3, 0)] * 3))
FRESH_OK = (BlockState.fresh(WIDE), RoundMessage(1, [0, 1, 2]))  # with WIDE_OK, every per-block check passes


@pytest.mark.parametrize("blocks, expect", [
    ([WIDE_OK, WIDE_OK, WIDE_OK, WIDE_FAILS_1, WIDE_OK], ("no encoding", 1)),
    ([WIDE_OK, WIDE_FAILS, WIDE_OK, WIDE_FAILS_1], ("no encoding", 2)),  # the lower index wins
    ([WIDE_FAILS_1, WIDE_FAILS], ("no encoding", 1)),
    ([WIDE_OK, OVERWEIGHT, WIDE_FAILS_1], ("no encoding", 1)),
    ([WIDE_OK, WIDE_FAILS_1, OVERWEIGHT], ("no encoding", 1)),
    ([SHORT_PAYLOAD, WIDE_FAILS], ("ValueError", "payload has 2 entries, expected 3")),
    ([WIDE_FAILS, SHORT_PAYLOAD], ("ValueError", "payload has 2 entries, expected 3")),
    ([WRONG_ROUND, WRONG_ROUND], ("SequencingError", "round 3 out of range 1..2")),
    ([WIDE_OK, WRONG_WIDTH, SHORT_PAYLOAD], ("ValueError", "block 1 word 0: message has 3 bits, expected 4")),
    ([ROUND_ONE, ROUND_ONE], ("SequencingError", "block already holds 1 round(s)")),
    ([WIDE_OK, SHORT_PAYLOAD, WRONG_WIDTH], ("ValueError", "payload has 2 entries, expected 3")),
    ([WIDE_FAILS_1, WRONG_WIDTH], ("ValueError", "block 1 word 0: message has 3 bits, expected 4")),
    ([], ("ValueError", "need at least one block")),
    ([FRESH_OK, WIDE_OK], ("ValueError", "blocks disagree on the current round: [0, 1]")),
])
def test_the_lowest_failing_block_raises(blocks, expect):
    states, msgs = [state for state, _ in blocks], [msg for _, msg in blocks]
    got = assert_matches_oracle(states, msgs)
    assert (got[0], got[-1]) == expect


NOT_A_WORD = (round1(WIDE, [1, 2, 4]), RoundMessage(2, [BitWord(4, 0), 0, BitWord(4, 0)]))
RANK_OUT_OF_RANGE = (BlockState.fresh(WIDE), RoundMessage(1, [0, 1, WIDE.round1_space]))


@pytest.mark.parametrize("good, last, text", [
    (WIDE_OK, WRONG_WIDTH, "block 4 word 0: message has 3 bits, expected 4"),
    (WIDE_OK, NOT_A_WORD, "block 4 word 1: 0 is not a BitWord"),
    (WIDE_OK, SHORT_PAYLOAD, "payload has 2 entries, expected 3"),
    (FRESH_OK, RANK_OUT_OF_RANGE, "block 4 word 2: rank 4 out of range, expected 0..3"),
])
def test_a_faulty_last_block_is_refused_before_any_search_or_unrank(monkeypatch, good, last, text):
    # one block that cannot take its message voids the round: the check walk
    # runs over every block before the first is searched or unranked
    calls, search, unrank = [], block_codec._search, block_codec.subset_unrank
    monkeypatch.setattr(block_codec, "_search", lambda *args: calls.append("search") or search(*args))
    monkeypatch.setattr(block_codec, "subset_unrank", lambda *args: calls.append("unrank") or unrank(*args))
    states, msgs = [good[0]] * 4 + [last[0]], [good[1]] * 4 + [last[1]]
    assert write_outcome(full_encode_round, states, msgs) == ("ValueError", text)
    assert calls == []
    assert write_outcome(full_encode_round, states[:4], msgs[:4])[0] == "ok" and calls
    monkeypatch.undo()
    assert assert_matches_oracle(states, msgs) == ("ValueError", text)


def test_two_parameter_sets_or_two_rounds_are_refused_before_any_block(monkeypatch):
    # one write is one round of one image; equal parameter objects are one set
    refused = [
        ([WIDE_OK, TIGHT_OK], "blocks disagree on parameters"),
        ([TIGHT_FAILS, WIDE_FAILS], "blocks disagree on parameters"),
        ([FRESH_OK, (BlockState.fresh(TIGHT), RoundMessage(1, [0, 1]))], "blocks disagree on parameters"),
        ([WIDE_OK, ROUND_ONE, TIGHT_FAILS], "blocks disagree on parameters"),  # before the message rounds
        ([WIDE_OK, WRONG_ROUND, WIDE_FAILS], "messages disagree on the round: [2, 3]"),
        ([WIDE_FAILS, WRONG_ROUND], "messages disagree on the round: [2, 3]"),
        ([OVERWEIGHT, ROUND_ONE], "messages disagree on the round: [1, 2]"),
        ([FRESH_OK, (FRESH_OK[0], msg2(WIDE, [0, 0, 0]))], "messages disagree on the round: [1, 2]"),
    ]
    searched = []
    monkeypatch.setattr(block_codec, "_search", lambda *args: searched.append(args))
    monkeypatch.setattr(block_codec, "subset_unrank", lambda *args: searched.append(args))
    for blocks, text in refused:
        states, msgs = [state for state, _ in blocks], [msg for _, msg in blocks]
        assert write_outcome(full_encode_round, states, msgs) == ("ValueError", text)
    assert searched == []
    monkeypatch.undo()
    twin = replace(WIDE)
    assert twin == WIDE and twin is not WIDE
    for blocks in ([(round1(twin, [1, 2, 4]), msg2(twin, [3, 5, 6])), WIDE_OK, WIDE_OK],
                   [(BlockState.fresh(twin), RoundMessage(1, [0, 1, 2])), FRESH_OK]):
        states, msgs = [state for state, _ in blocks], [msg for _, msg in blocks]
        assert assert_matches_oracle(states, msgs)[0] == "ok"
        assert all(state.params is twin for state in full_encode_round(states, msgs))  # the first block's


def traced_peak(encode, states, msgs):
    tracemalloc.start()
    try:
        encode(states, msgs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_whole_image_search_memory():
    # A word's memo entry holds its candidates and its tables at the
    # multipliers that encoded one of its holders, and lives only until the
    # last block that holds it is written, so: a round-3 image at the
    # cli_session parameters stays well under the 5 MB its 400 blocks may
    # take (0.5 MB at 40 blocks, 0.4 MB at 100), and an image of distinct
    # words peaks near the per-block search's one block.
    [_, third] = rounds_of(CLI_SHAPE, 40, seed=8)
    assert traced_peak(full_encode_round, *third) <= 500_000
    [_, third] = rounds_of(CLI_SHAPE, 100, seed=8)
    assert traced_peak(full_encode_round, *third) <= 400_000
    params = WomParams(t=2, n=14, m=2, l=2, k=(6,), p=WeightVector([Fraction(3, 7), Fraction(1, 2)]))
    [second] = rounds_of(params, 40, seed=9, distinct=True)
    assert traced_peak(full_encode_round, *second) <= 1.25 * traced_peak(oracle.full_encode_round, *second)


def test_packed_candidates_and_byte_tables_bound_the_search_peak():
    # a word's candidates are 4-byte array entries and its tables come from
    # three byte tables, not from one hash list per multiplier: a round-2
    # block at search_wide's parameters peaks near 0.1 MB (0.5 MB with int
    # lists and `hash_words`), and the 400-block CLI_SHAPE round 3 near
    # 0.4 MB (1.3 MB)
    wide = WomParams(t=2, n=18, m=4, l=2, k=(11,), p=T2)
    [(states, msgs)] = rounds_of(wide, 3, seed=1)
    for state, msg in zip(states, msgs):
        assert traced_peak(lambda *args: search_block_encoding(wide, 2, *args), state.data, msg.payload) <= 300_000
    [_, third] = rounds_of(CLI_SHAPE, 400, seed=3)
    assert traced_peak(full_encode_round, *third) <= 700_000


def test_shared_blocks_that_no_multiplier_encodes_keep_no_failing_tables():
    # two blocks hold the same 8 round-1 words, and no multiplier encodes
    # their round-2 message: the tables and hulls built at the 512 failing
    # multipliers are dropped at once, so the write peaks near the per-block
    # search
    params = WomParams(t=2, n=9, m=8, l=0, k=(9,), p=T2)
    state = round1(params, [259, 49, 148, 261, 52, 88, 146, 266])
    rnd = random.Random(8)
    msgs = [message(params, 2, rnd) for _ in range(2)]
    text = "exhausted all 512 multipliers for round 2; data word 1 was the most frequent bottleneck"
    peaks, outcomes = [], []
    for encode in (full_encode_round, oracle.full_encode_round):
        peaks.append(traced_peak(lambda *args: outcomes.append(write_outcome(encode, *args)), [state, state], msgs))
    assert outcomes == [("no encoding", text, 1)] * 2
    assert peaks[0] <= 2 * peaks[1], peaks


# The hull test. At multiplier a every target of word i lies in its hull,
# H(w_i) XOR the span of the rows of w_i's unset bits, shifted by x_i ^ x_0.
# At each multiplier of its first pass the search runs `_narrow` over the
# hulls and memo tables, and skips a when they leave no common target
# before it builds any table; otherwise it runs `_narrow` again over the
# tables. NoEncoding comes from a rescan with the test off, one `_narrow`
# over the tables at each skipped multiplier.


def narrow_calls(monkeypatch):
    """Per visit (one `truncated_rows` call): a, and per `_narrow` run (common, every word had a memo table at a)."""
    visits, rows_at, narrow = [], block_codec.truncated_rows, block_codec._narrow

    def rows(modulus, a, out_len):
        visits.append((a, []))
        return rows_at(modulus, a, out_len)

    def narrowing(words, a, build):
        held = all(a in tables for (_, tables), _, _ in words)
        common, used = narrow(words, a, build)
        visits[-1][1].append((common, held))
        return common, used

    monkeypatch.setattr(block_codec, "truncated_rows", rows)
    monkeypatch.setattr(block_codec, "_narrow", narrowing)
    return visits


def test_the_hull_test_runs_once_at_each_multiplier_a_block_visits(monkeypatch):
    # the rounds of the 400-block image above and of the 2,000-block
    # bulk-shaped one raise no NoEncoding, so a block visits only
    # multipliers of its first pass. Where every word of the block holds its
    # memo table, which some visits of each round do, the hull test would
    # intersect those same tables: the one `_narrow` run is the table pass.
    # Any other visit gets one test, its first run: the one run of a skipped
    # multiplier, or the first of two when the hulls meet
    rounds = rounds_of(CLI_SHAPE, 400, seed=3) + rounds_of(BULK_SHAPE, 2000, seed=4)
    visits = narrow_calls(monkeypatch)
    for states, msgs in rounds:
        visits.clear()
        full_encode_round(states, msgs)
        assert len(visits) > len(states)
        for a, runs in visits:
            held, tested = runs[0][1], runs[0][0] != []
            assert len(runs) == (1 if held else 1 + tested), (a, runs)
        assert any(runs[0][1] for _, runs in visits)


def first_fail(params, j, ws, xs, a, hulls=False):
    """The first word at which a's candidate targets, or its hulls, stop meeting; None if they meet."""
    rows = truncated_rows(canonical_spec(params.n), a, params.payload_bits(j))
    common = None
    for i, (w, x) in enumerate(zip(ws, xs)):
        cands = list(oracle.enumerate_above(w, params.budgets[j - 1]))
        points = block_codec._hull(rows, w.bits, len(cands)) if hulls else hash_words(rows, cands, 0)
        if points:  # an empty hull bounds nothing
            targets = {h ^ x.bits ^ xs[0].bits for h in points}
            common = targets if common is None else common & targets
            if not common:
                return i
    return None


def test_hull_test_never_skips_a_multiplier_that_works(monkeypatch):
    # random blocks at n <= 8: each hull holds its word's candidate hashes,
    # each multiplier the test skips (a = 0 included) has an empty candidate
    # intersection, and the search matches the oracle. A visit with one
    # `_narrow` run is a multiplier the test skipped or its rescan
    visits = narrow_calls(monkeypatch)
    rnd = random.Random(0x4011)
    kinds = Counter()
    for n in range(2, 9):
        for _ in range(60):
            j = rnd.choice((2, 3))
            params, ws, xs = random_instance(rnd, n, j)
            visits.clear()
            got = outcome(search_block_encoding, params, j, ws, xs)
            assert got == outcome(oracle.search_block_encoding, params, j, ws, xs), (params, j, ws, xs)
            kinds[got[0]] += 1
            skipped = {a for a, runs in visits if len(runs) == 1}
            if len({x.bits for x in xs}) > 1:
                skipped.add(0)
            for a in skipped:
                assert first_fail(params, j, ws, xs, a) is not None, (params, j, ws, xs, a)
            kinds["skipped"] += len(skipped)
            modulus, out_len = canonical_spec(n), params.payload_bits(j)
            for a in rnd.sample(range(1 << n), min(16, 1 << n)):
                rows = truncated_rows(modulus, a, out_len)
                for w in ws:
                    cands = list(oracle.enumerate_above(w, params.budgets[j - 1]))
                    hull = block_codec._hull(rows, w.bits, len(cands))
                    assert not hull or set(hash_words(rows, cands, 0)) <= hull
    assert kinds["ok"] >= 300 and kinds["no encoding"] >= 45 and kinds["skipped"] >= 1200, kinds


# A round-2 block that no multiplier encodes. At 6 of its 64 multipliers
# the hulls stop meeting at word 2 while the candidates stop at word 1.
# Counted where the candidates empty, word 1 is the bottleneck (32 fails
# against 27); counted where the hulls first empty, word 2 would be.
HULL_FIRST = WomParams(t=2, n=6, m=4, l=0, k=(4,), p=WeightVector([Fraction(1, 2), Fraction(1, 2)]))
HULL_FIRST_WS = [BitWord(6, bits) for bits in (35, 50, 35, 38)]
HULL_FIRST_XS = [BitWord(4, x) for x in (6, 9, 7, 2)]


def test_no_encoding_names_the_exact_bottleneck_when_hulls_empty_first():
    args = HULL_FIRST, 2, HULL_FIRST_WS, HULL_FIRST_XS
    exact = [first_fail(*args, a) for a in range(64)]
    hulls = [first_fail(*args, a, hulls=True) for a in range(64)]
    assert sum(h not in (None, e) for h, e in zip(hulls, exact)) == 6
    assert Counter(exact) == {1: 32, 2: 27, 3: 5}
    assert Counter(e if h is None else h for h, e in zip(hulls, exact)) == {1: 27, 2: 29, 3: 8}
    text = "exhausted all 64 multipliers for round 2; data word 1 was the most frequent bottleneck"
    assert outcome(search_block_encoding, *args) == ("no encoding", text, 1)
    assert outcome(oracle.search_block_encoding, *args) == ("no encoding", text, 1)
    # two blocks that hold the same words share their candidates through
    # the memo; the tables and hulls of failing multipliers are not kept
    state = round1(HULL_FIRST, [w.bits for w in HULL_FIRST_WS])
    msgs = [RoundMessage(2, HULL_FIRST_XS)] * 2
    assert assert_matches_oracle([state, state], msgs) == ("no encoding", text, 1)


def test_no_table_is_built_at_a_zero_unless_all_messages_are_equal(monkeypatch):
    # at a = 0 every row is zero and word i's hull is the point x_i ^ x_0
    zero_tables, hash_table = [], block_codec.hash_table

    def spy(rows, words):
        if not any(rows):
            zero_tables.append(len(words))
        return hash_table(rows, words)

    monkeypatch.setattr(block_codec, "hash_table", spy)
    [(states, msgs)] = rounds_of(BULK_SHAPE, 300, seed=12)
    assert all(len({x.bits for x in msg.payload}) > 1 for msg in msgs)
    assert assert_matches_oracle(states, msgs)[0] == "ok"
    assert zero_tables == []
    equal = RoundMessage(2, [msgs[0].payload[0]] * BULK_SHAPE.m)
    assert assert_matches_oracle(states[:2], [equal, msgs[1]])[0] == "ok"
    zero_tables.clear()
    [written] = full_encode_round(states[:1], [equal])
    assert written.sides[0].bits == equal.payload[0].bits << BULK_SHAPE.n and written.data == states[0].data
    assert len(zero_tables) == BULK_SHAPE.m

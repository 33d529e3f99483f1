import random
from math import comb

import pytest

import layout_oracle as oracle
from value_oracle import replace
from womkit import bitwords
from womkit.bitwords import BitWord, count_above, dominates, enumerate_above, subset_rank, subset_unrank


def brute_force_above(w, max_weight):
    return [
        v for v in range(1 << w.length)
        if v & w.bits == w.bits and v.bit_count() <= max_weight
    ]


def test_bitword_validation():
    with pytest.raises(ValueError):
        BitWord(3, 8)
    with pytest.raises(ValueError):
        BitWord(3, -1)
    assert BitWord(0, 0).weight == 0
    # frozen, and a copy with a changed field is checked again
    word = BitWord(3, 5)
    for field, value in (("length", 4), ("bits", 1)):
        with pytest.raises(AttributeError):
            setattr(word, field, value)
    assert word == BitWord(3, 5)
    with pytest.raises(ValueError, match="^bits 0x8 out of range for length 3$"):
        replace(word, bits=8)
    with pytest.raises(ValueError, match="^length must be nonnegative$"):
        replace(word, length=-1)
    assert replace(word, length=4) == BitWord(4, 5)


@pytest.mark.parametrize("length,bits,message", [
    (4, 1.0, "^bits 1.0 is not an int$"),
    (4.0, 1, "^length 4.0 is not an int$"),
    (4, True, "^bits True is not an int$"),
    ("4", 1, "^length '4' is not an int$"),
])
def test_bitword_refuses_fields_that_are_no_int(length, bits, message):
    # an int-valued float once made a word that equals BitWord(4, 1) but has no weight
    with pytest.raises(ValueError, match=message):
        BitWord(length, bits)


def test_weight_and_support():
    w = BitWord.from_support([0, 2, 5], 6)
    assert w.bits == 0b100101
    assert w.weight == 3
    assert w.support() == (0, 2, 5)


def test_dominates_examples():
    w = BitWord(3, 0b010)
    assert dominates(w, w)
    assert dominates(BitWord(3, 0b111), w)
    assert not dominates(BitWord(3, 0b011), BitWord(3, 0b100))
    with pytest.raises(ValueError):
        dominates(BitWord(3, 0), BitWord(4, 0))


def test_enumerate_above_examples():
    assert list(enumerate_above(BitWord(2, 0b00), 2)) == [0b00, 0b01, 0b10, 0b11]
    assert list(enumerate_above(BitWord(2, 0b10), 1)) == [0b10]
    assert list(enumerate_above(BitWord(3, 0b100), 2)) == [0b100, 0b101, 0b110]
    # exhausted budget yields the empty sequence, not an error
    assert list(enumerate_above(BitWord(3, 0b111), 2)) == []


def test_enumerate_above_matches_brute_force_exhaustively():
    for length in range(0, 9):
        for bits in range(1 << length):
            w = BitWord(length, bits)
            for max_weight in range(length + 1):
                got = list(enumerate_above(w, max_weight))
                assert got == brute_force_above(w, max_weight)
                assert len(got) == count_above(w, max_weight)


def test_enumerate_above_matches_brute_force_len14():
    rnd = random.Random(14)
    for _ in range(8):
        w = BitWord(14, rnd.getrandbits(14))
        for max_weight in (w.weight, w.weight + 2, 10, 14):
            got = list(enumerate_above(w, max_weight))
            assert got == brute_force_above(w, max_weight)


def test_enumerate_above_binomial_lower_bound():
    rnd = random.Random(15)
    for _ in range(40):
        length = rnd.randint(1, 12)
        w = BitWord(length, rnd.getrandbits(length))
        b = rnd.randint(w.weight, length)
        lower = comb(length - w.weight, b - w.weight)
        assert count_above(w, b) >= lower


def test_subset_rank_examples():
    assert subset_rank(BitWord.from_support([0, 1], 4), 2) == 0
    assert subset_unrank(5, 4, 2).support() == (2, 3)


def test_subset_unrank_matches_exhaustive_colex_order():
    # oracle: sort all weight-2 words of length 4 by reversed support
    words = sorted(
        (BitWord(4, v) for v in range(16) if v.bit_count() == 2),
        key=lambda w: tuple(reversed(w.support())),
    )
    for rank, word in enumerate(words):
        assert subset_unrank(rank, 4, 2) == word
        assert subset_rank(word, 2) == rank


def test_subset_bijection_exhaustive_len16():
    for weight in range(5):
        seen = set()
        for rank in range(comb(16, weight)):
            word = subset_unrank(rank, 16, weight)
            assert word.weight == weight
            assert subset_rank(word, weight) == rank
            seen.add(word.bits)
        assert len(seen) == comb(16, weight)


def test_subset_errors():
    with pytest.raises(ValueError):
        subset_rank(BitWord(4, 0b0111), 2)  # weight mismatch
    with pytest.raises(ValueError):
        subset_unrank(6, 4, 2)  # rank out of range
    with pytest.raises(ValueError):
        subset_unrank(-1, 4, 2)
    with pytest.raises(ValueError):
        subset_unrank(0, 4, 5)  # weight above length


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # every exception is compared, not handled
        return ("raised", type(exc), str(exc))


def test_subset_rank_and_unrank_match_oracle_exhaustively_len14():
    for length in range(15):
        for bits in range(1 << length):
            word = BitWord(length, bits)
            assert subset_rank(word, word.weight) == oracle.subset_rank(word, word.weight)
        for weight in range(length + 1):
            for rank in range(comb(length, weight)):
                assert subset_unrank(rank, length, weight) == oracle.subset_unrank(rank, length, weight)


def test_subset_rank_and_unrank_match_oracle_on_samples_len24():
    rnd = random.Random(16)
    for _ in range(3000):
        length = rnd.randint(15, 24)
        word = BitWord(length, rnd.getrandbits(length))
        rank = subset_rank(word, word.weight)
        assert rank == oracle.subset_rank(word, word.weight)
        assert subset_unrank(rank, length, word.weight) == oracle.subset_unrank(rank, length, word.weight) == word
        weight = rnd.randint(0, length)
        rank = rnd.randrange(comb(length, weight))
        assert subset_unrank(rank, length, weight) == oracle.subset_unrank(rank, length, weight)


def test_subset_errors_match_oracle():
    word = BitWord(4, 0b0111)
    for weight in (0, 2, 4, -1):  # weight mismatch
        assert outcome(subset_rank, word, weight)[0] == "raised"
        assert outcome(subset_rank, word, weight) == outcome(oracle.subset_rank, word, weight)
    for args in [
        (6, 4, 2), (1 << 70, 24, 12), (1, 5, 0),  # rank out of range
        (-1, 4, 2), (-1, 0, 0),  # negative rank
        (0, 4, 5), (0, 0, 1), (0, 4, -1),  # weight above the length, negative weight
    ]:
        assert outcome(subset_unrank, *args)[0] == "raised"
        assert outcome(subset_unrank, *args) == outcome(oracle.subset_unrank, *args)


def test_rank_caches_are_bounded():
    # unbounded (maxsize None), a cache could hold C(24, 12) words in a long-lived
    # process; bounded, it must still hold every round-1 word at n = 12, B_1 = 3
    maxsize = bitwords.colex_rank.cache_info().maxsize
    assert maxsize is not None and comb(12, 3) <= maxsize < comb(24, 12)

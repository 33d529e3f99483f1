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
from fractions import Fraction

import search_oracle as oracle
from womkit.bitwords import BitWord, count_above
from womkit.block_codec import NoEncoding, search_block_encoding
from womkit.capacity import WeightVector, WomParams


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

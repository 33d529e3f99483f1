"""The row-table decoder against the per-word oracle in `decode_oracle`.

Blocks are random t = 2 and t = 3 states at every field width n = 2..24,
plus n = 1 and n = 25, which no field covers, in every round. Each holds
what the encoder writes: data words of weight B_1 to B_j (exactly B_1 in
round 1), earlier side words whose b fits their round's hash output, and
zero side words for rounds not yet written. Variants put one data word
outside B_1..B_j, a too-wide b in the current side word, or both. The library
builds each variant through `BlockState(...)`, which rejects the block
before any decode, and the oracle decodes the same fields unchecked. Both
must return equal messages, or raise the same exception type with the same
message, except that round 1 names the data word whose weight is not B_1
where the oracle's `subset_rank` names no word.
"""

import random
from fractions import Fraction

import decode_oracle as oracle
from womkit.bitwords import BitWord
from womkit.block_codec import BlockState, _built_state, decode_round
from womkit.capacity import WeightVector, WomParams


def outcome(decode, state, j):
    try:
        return ("ok", decode(state, j))
    except Exception as exc:  # every exception is compared, not handled
        return ("raised", type(exc), str(exc))


def random_params(rnd, t, n):
    l = rnd.randint(0, n)
    densities = [Fraction(rnd.randint(1, 4), 8) for _ in range(t - 1)] + [Fraction(1, 2)]
    k = tuple(rnd.randint(l, n) for _ in range(t - 1))
    return WomParams(t=t, n=n, m=rnd.randint(1, 5), l=l, k=k, p=WeightVector(densities))


def random_word(rnd, n, weight):
    return BitWord.from_support(rnd.sample(range(n), weight), n)


def random_block(rnd, params, j):
    """The fields of a round-j block the encoder could have written."""
    n, budget = params.n, params.budgets[j - 1]
    data = [random_word(rnd, n, rnd.randint(params.budgets[0], budget)) for _ in range(params.m)]
    sides = [BitWord(2 * n, 0)] * (params.t - 1)
    for s in range(j - 1):
        b = rnd.getrandbits(params.k[s] - params.l)
        sides[s] = BitWord(2 * n, rnd.getrandbits(n) | b << n)
    return j, tuple(data), tuple(sides)


def variants(rnd, params, block, j):
    """The block's fields, then each way the oracle can reject them."""
    p = params
    r, data, sides = block
    yield block
    over = data
    weights = [w for w in range(p.n + 1) if not p.budgets[0] <= w <= p.budgets[j - 1]]
    if weights:
        i = rnd.randrange(p.m)
        over = data[:i] + (random_word(rnd, p.n, rnd.choice(weights)),) + data[i + 1 :]
        yield r, over, sides
    out_len = p.k[j - 2] - p.l if j > 1 else p.n
    if out_len < p.n:
        for base in (data, over):
            wide = sides[j - 2].bits | 1 << (p.n + rnd.randint(out_len, p.n - 1))
            yield r, base, sides[: j - 2] + (BitWord(2 * p.n, wide),) + sides[j - 1 :]


def library_outcome(params, fields, j):
    """Build the block through the public constructor, then decode it."""
    return outcome(lambda fields, j: decode_round(BlockState(params, *fields), j), fields, j)


def oracle_outcome(params, fields, j):
    """The oracle's outcome on the unchecked fields, with its round-1 weight error naming the word."""
    state = _built_state(params, *fields)
    want = outcome(oracle.decode_round, state, j)
    if want[0] == "raised" and want[2].startswith("word has weight"):
        b1 = state.params.budgets[0]
        i = next(i for i, d in enumerate(state.data) if d.weight != b1)
        message = f"data word {i} has weight {state.data[i].weight}, expected round-1 weight {b1}"
        assert want == ("raised", ValueError, f"word has weight {state.data[i].weight}, expected {b1}")
        return ("raised", ValueError, message)
    return want


def test_decode_matches_per_word_oracle():
    rnd = random.Random(0xDEC0DE)
    kinds = {}
    for n in range(1, 26):
        for t in (2, 3):
            for j in range(1, t + 1):
                for _ in range(6):
                    params = random_params(rnd, t, n)
                    for fields in variants(rnd, params, random_block(rnd, params, j), j):
                        got = library_outcome(params, fields, j)
                        assert got == oracle_outcome(params, fields, j), (params, fields, j)
                        kind = got[0] if got[0] == "ok" else got[2].split(" ")[0]
                        if kind == "data" and j == 1:
                            kind = "round-1 weight"
                        kinds[kind] = kinds.get(kind, 0) + 1
    # decoded blocks, budget errors ("data word ..." in rounds j >= 2 and
    # round 1's weight errors), too-wide b ("side word ...") and no field
    # ("field width ...")
    assert kinds["ok"] >= 500, kinds
    assert min(kinds["data"], kinds["round-1 weight"], kinds["side"], kinds["field"]) >= 20, kinds


"""Round-based encoder/decoder for one coded memory block.

A block state is its round r (the rounds written so far), m data words of
n bits, and t-1 side words of 2n bits. Memory lays the round out as a
t-bit unary header (`full_codec`), which the image format checks too
(`wom_device`). Round 1 writes each message as the characteristic word of
a fixed-weight subset. Every later round j finds a single truncated affine
map H, the int pair (a, b), and per-word replacements y_i >= w_i within
the round's weight budget such that H(y_i) equals the i-th message, then
stores a | b << n in side word j-2. `full_encode_round` writes one round
of one image; `encode_round1` and `encode_round` are its one-block cases.
One faulty block voids a round, so `_check_blocks` walks the blocks in
order and raises the first faulty one's check error before any rank is
unranked or block searched; round 1 walks only when its column test
fails, then unranks each distinct rank once. For each block of a round
j >= 2, `_search` tries a = 0, 1, ... over ints. H_{a,0} is GF(2)-linear,
so word i's targets lie in its hull: H(w_i) XOR the span of the rows of
w_i's unset bits (the point H(w_i) when w_i has no budget left), shifted
by x_i ^ x_0. At each a, `_narrow` intersects the words' targets, first
over their hulls, which skips a when they leave no common target and
never skips a multiplier that works, then over the tables H_{a,0}(y) ->
smallest y that one `hashfam.hash_words` pass over a word's candidates
gives. One memo per write, keyed on a word's bits, holds a word's
descending candidates and its tables at the multipliers that encoded one
of its holders, until its last holder is written. Both passes take a
memo table first; where the memo holds every word's table, the table
pass runs alone. A block builds a word's table or hull at a once and
drops those of a failing a; when every multiplier fails, it rescans the
skipped ones with the test off, so NoEncoding names the exact bottleneck.
Decoding ranks round 1's subsets and re-applies a later round's map in
one `hash_words` call. H is evaluated only in `hashfam`, through its
`truncated_rows` row tables.

All states are immutable; encoders return new states that dominate their
inputs coordinatewise. `check_block` is the one budget rule a block must
keep, and `_check_words` holds its per-word tests. The public
`BlockState(...)` runs it, so a `BlockState` keeps the rule by its
type. `_built_state` fills the slots of each state the codec writes and
skips the check: `check_block` costs about four times the rest of a
construction. Every message and word goes through its checked constructor.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Sequence

from .bitwords import BitWord, _Frozen, colex_rank, count_above, enumerate_above, subset_unrank
from .capacity import WomParams
from .gf2n import canonical_spec
from .hashfam import hash_words, truncated_rows


class SequencingError(Exception):
    """A round was encoded out of order."""


class NoEncoding(Exception):
    """The search space holds no valid encoding for this round's messages.

    `bottleneck` is the index of the data word whose candidate set most
    often emptied the running intersection; it points at the parameter
    (budget or hash size) that made the instance infeasible.
    """

    def __init__(self, message: str, bottleneck: int):
        super().__init__(message)
        self.bottleneck = bottleneck


class RoundMessage(_Frozen):
    """Payload of one round: m subset ranks (round 1) or m words of k_j-l bits."""

    __slots__ = _fields = ("round", "payload")

    def __init__(self, round: int, payload: Iterable):
        payload = tuple(payload)
        if type(round) is not int:
            raise ValueError(f"round {round!r} is not an int")
        if round < 1:
            raise ValueError("rounds are numbered from 1")
        _set_round(self, round)
        _set_payload(self, payload)


class BlockState(_Frozen):
    """Immutable contents of one block after `round` rounds, checked by `check_block`."""

    __slots__ = _fields = ("params", "round", "data", "sides")

    def __init__(self, params: WomParams, round: int, data: Iterable[BitWord], sides: Iterable[BitWord]):
        _set_params(self, params)
        _set_block_round(self, round)
        _set_data(self, tuple(data))
        _set_sides(self, tuple(sides))
        check_block(self)

    @classmethod
    def fresh(cls, params: WomParams) -> "BlockState":
        return cls(
            params=params,
            round=0,
            data=tuple(BitWord.zeros(params.n) for _ in range(params.m)),
            sides=tuple(BitWord.zeros(2 * params.n) for _ in range(params.t - 1)),
        )


# The slots' own setters: faster than object.__setattr__ past _Frozen's refusal, for hot constructors.
_set_round, _set_payload = (RoundMessage.__dict__[f].__set__ for f in RoundMessage._fields)
_set_params, _set_block_round, _set_data, _set_sides = (BlockState.__dict__[f].__set__ for f in BlockState._fields)


def _built_state(params: WomParams, round_: int, data: tuple, sides: tuple) -> BlockState:
    """BlockState(params, round_, data, sides) without `check_block`.

    Only for tuples that form a block the codec wrote, or for a state the
    caller then passes to `check_block`.
    """
    state = object.__new__(BlockState)
    _set_params(state, params)
    _set_block_round(state, round_)
    _set_data(state, data)
    _set_sides(state, sides)
    return state


def check_block(state: BlockState) -> None:
    """Raise ValueError unless the block keeps the budget rule of its round.

    The round is an int r in 0..t; there are m data words of n bits and
    t - 1 side words of 2n bits. After round r >= 1 each data word weighs
    B_1 to B_r, exactly B_1 at r = 1. This is a budget rule, not the set
    of blocks this codec reaches. `_check_words` holds the word tests.
    """
    p = state.params
    r = state.round
    if type(r) is not int or not 0 <= r <= p.t:
        raise ValueError(f"round {r!r} is not an int in 0..{p.t}")
    if len(state.data) != p.m or any(d.length != p.n for d in state.data):
        raise ValueError(f"expected {p.m} data words of {p.n} bits")
    if len(state.sides) != p.t - 1 or any(side.length != 2 * p.n for side in state.sides):
        raise ValueError(f"expected {p.t - 1} side words of {2 * p.n} bits")
    _check_words(p, r, [d.bits for d in state.data], [[side.bits] for side in state.sides])


def _check_words(p: WomParams, r: int, data: Iterable[int], sides: Iterable[Iterable[int]]) -> None:
    """Raise ValueError unless every data word, and every word of side slot s in sides[s], fits round r.

    Data words keep `check_block`'s weight rule, and at r = 0 none is set.
    A written side word a | b << n has b < 2^(k_j - l); an unwritten one is
    zero. Each test reads one word and r, so a block passes `check_block`
    exactly when each of its words passes here; `memory_to_states` relies on it.
    """
    n = p.n
    budget = p.budgets[r - 1] if r else 0
    floor = p.budgets[0] if r >= 2 else 0
    for i, bits in enumerate(data):
        weight = bits.bit_count()
        if r == 1 and weight != budget:
            raise ValueError(f"data word {i} has weight {weight}, expected round-1 weight {budget}")
        if weight < floor:
            raise ValueError(f"data word {i} has weight {weight}, below round-1 weight {floor}")
        if weight > budget:
            raise ValueError(f"data word {i} has weight {weight}, above round-{r} budget {budget}")
    for s, words in enumerate(sides):
        for bits in words:
            if s < r - 1:
                b, width = bits >> n, p.payload_bits(s + 2)
                if b >> width:
                    raise ValueError(f"side word {s} holds b = {b}, wider than {width} bits")
            elif bits:
                raise ValueError(f"side word {s} is set, but round {s + 2} is not written")


def encode_round1(state: BlockState, msg: RoundMessage) -> BlockState:
    """Write the first round into one block: `full_encode_round` on that block."""
    if msg.round != 1:
        raise SequencingError(f"message is for round {msg.round}, block expects round 1")
    return full_encode_round([state], [msg])[0]


def in_guaranteed_regime(params: WomParams, j: int, ws: Sequence[BitWord]) -> bool:
    """Whether round j's search is guaranteed to succeed from these words.

    True when m < 2^(l/4), decided in integers as m^4 < 2^l, and every
    candidate set (words above w_i within the round budget) has at least
    2^(k_j) elements. Outside the regime the search is still exact: it
    either finds an encoding or proves there is none.
    """
    if params.m ** 4 >= 1 << params.l:
        return False
    kj = params.k_for_round(j)
    budget = params.budgets[j - 1]
    return all(count_above(w, budget) >= (1 << kj) for w in ws)


def _check_search(params: WomParams, j: int, ws: Sequence[BitWord], xs: Sequence) -> None:
    """Raise unless ws and xs are one block's current words and round-j messages."""
    if not 2 <= j <= params.t:
        raise ValueError(f"round {j} out of range 2..{params.t}")
    if len(ws) != params.m or len(xs) != params.m:
        raise ValueError(f"expected {params.m} current words and messages")
    canonical_spec(params.n)  # rejects widths the search cannot cover
    out_len, prev_budget = params.payload_bits(j), params.budgets[j - 2]
    for i, w in enumerate(ws):
        if w.length != params.n:
            raise ValueError(f"word {i} has {w.length} bits, expected {params.n}")
        if w.weight > prev_budget:
            raise ValueError(f"word {i} has weight {w.weight}, above round-{j - 1} budget {prev_budget}")
    for i, x in enumerate(xs):
        if type(x) is not BitWord:
            raise ValueError(f"message {i} is {x!r}, not a BitWord")
        if x.length != out_len:
            raise ValueError(f"message {i} has {x.length} bits, expected {out_len}")


def search_block_encoding(
    params: WomParams, j: int, ws: Sequence[BitWord], xs: Sequence[BitWord]
) -> tuple[int, int, list[BitWord]]:
    """Find a map (a, b) and words y_i >= w_i of weight <= B_j with H(y_i) = x_i.

    The least multiplier a whose targets T_i = { H_{a,0}(y) XOR x_i : y in
    Y_i } intersect gives b = v = min(intersection) and, per word, the
    smallest candidate hashing to x_i XOR v: `_search` on one block.
    """
    _check_search(params, j, ws, xs)
    a, b, ys = _search(params, j, ws, xs, {})
    return a, b, list(ys)


def _search(params: WomParams, j: int, ws: Sequence[BitWord], xs: Sequence[BitWord],
            memo: dict) -> tuple[int, int, tuple[BitWord, ...]]:
    """(a, b, ys) for one checked block; `memo` shares words as the module docstring says.

    At a = 0 every row is zero, so each hull is the point x_i ^ x_0, and
    the hull test skips a = 0 unless all x_i are equal. At a `held` a the
    test would intersect the same memo tables as the table pass, so it is
    not run. A skipped multiplier counts no fail, any other the fail an
    exhaustive scan counts, so the rescan (`exact`) visits only the skipped.
    """
    n, modulus, out_len = params.n, canonical_spec(params.n), params.payload_bits(j)
    budget = params.budgets[j - 1]
    for w in ws:
        if w.bits not in memo:  # descending candidates: the last witness stored is the smallest
            memo[w.bits] = list(enumerate_above(w, budget))[::-1], {}
    x0 = xs[0].bits
    words = [(memo[w.bits], w.bits, x.bits ^ x0) for w, x in zip(ws, xs)]
    held = set.intersection(*[set(tables) for (_, tables), _, _ in words])
    start = int(any(x.bits != x0 for x in xs))
    fails, skipped = [0] * params.m, list(range(start))
    for exact in (False, True):
        for a in skipped if exact else range(start, 1 << n):
            rows = truncated_rows(modulus, a, out_len)
            tested = not (exact or a in held)
            if tested and _narrow(words, a, lambda bits, cands: _hull(rows, bits, len(cands)))[0] == []:
                skipped.append(a)
                continue
            common, used = _narrow(words, a, lambda bits, cands: dict(zip(hash_words(rows, cands, 0), cands)))
            if not common:
                fails[len(used) - 1] += 1
                continue
            for ((_, tables), _, _), table in zip(words, used):
                tables[a] = table
            v = min(h ^ x0 for h in common)
            return a, v, tuple([BitWord(n, table[v ^ x.bits]) for table, x in zip(used, xs)])
    bottleneck = max(range(params.m), key=lambda i: (fails[i], -i))
    raise NoEncoding(f"exhausted all {1 << n} multipliers for round {j}; data word {bottleneck} was the "
                     "most frequent bottleneck", bottleneck)


def _narrow(words: list, a: int, build) -> tuple[list | None, list]:
    """The common targets h at multiplier a of a block's words, and the sets they came from.

    Each word takes its memo table at a, or else build(bits, candidates),
    run once per distinct word; h is common when h ^ shift is in every
    word's set. An empty set narrows nothing, and None means none bounded
    them. The walk stops at the set that empties them, the last one taken.
    """
    common, used, built = None, [], {}
    for (cands, tables), bits, shift in words:
        found = tables.get(a) or built.get(bits)
        if found is None:
            found = built[bits] = build(bits, cands)
        used.append(found)
        if found:
            common = [h ^ shift for h in found] if common is None else [h for h in common if h ^ shift in found]
            if not common:
                break
    return common, used


def _hull(rows: list[int], bits: int, size: int) -> set:
    """The points H(w) XOR span{rows of w's unset bits} for the word w = bits with size candidates.

    H is GF(2)-linear, so every candidate y = w | s hashes to H(w) XOR H(s)
    in this set. A word with one candidate has the point H(w) alone. The
    set is empty, and bounds nothing, once the span outgrows the candidates,
    which are then cheaper to hash than the hull is to build.
    """
    span = {0}
    for q, row in enumerate(rows if size > 1 else ()):
        if not bits >> q & 1 and row not in span:
            span |= {s ^ row for s in span}
            if len(span) > size:
                return set()
    point = hash_words(rows, (bits,), 0)[0]
    return {point ^ s for s in span}


def full_encode_round(states: Sequence[BlockState], msgs: Sequence[RoundMessage]) -> list[BlockState]:
    """Write one round of one image, in block order; fails atomically.

    Blocks of one parameter set (equal objects count as one; the states
    carry the first block's) take messages of one round. Those checks, the
    sequencing and then `_check_blocks` run before any rank is unranked or
    block searched. Round 1 runs in column passes; a later round runs
    `_search` per block with one memo per write, dropping a word's entry
    after its last holder, and raises the first failing block's NoEncoding.
    """
    if len(states) != len(msgs):
        raise ValueError(f"{len(states)} states but {len(msgs)} messages")
    if not states:
        raise ValueError("need at least one block")
    rounds = {s.round for s in states}
    if len(rounds) > 1:
        raise ValueError(f"blocks disagree on the current round: {sorted(rounds)}")
    p = states[0].params
    if any(s.params is not p and s.params != p for s in states):
        raise ValueError("blocks disagree on parameters")
    msg_rounds = {msg.round for msg in msgs}
    if len(msg_rounds) > 1:
        raise ValueError(f"messages disagree on the round: {sorted(msg_rounds)}")
    (r,), (j,) = rounds, msg_rounds
    if j == 1 and r:
        raise SequencingError(f"block already holds {r} round(s)")
    if j > p.t:
        raise SequencingError(f"round {j} out of range 1..{p.t}")
    if r != j - 1:
        raise SequencingError(f"block holds {r} round(s), cannot write round {j}")
    if j == 1:
        payloads = [msg.payload for msg in msgs]
        ranks = list(chain.from_iterable(payloads))
        # types before any lookup: True would find rank 1's word
        typed = set(map(len, payloads)) == {p.m} and set(map(type, ranks)) == {int}
        distinct = set(ranks) if typed else ()
        if not typed or min(distinct) < 0 or max(distinct) >= p.round1_space:
            _check_blocks(p, j, states, msgs)
        words = {rank: subset_unrank(rank, p.n, p.budgets[0]) for rank in distinct}
        data = zip(*[map(words.__getitem__, ranks)] * p.m)
        return list(map(_built_state, repeat(p), repeat(1), data, [s.sides for s in states]))
    _check_blocks(p, j, states, msgs)
    last, memo, out = {w.bits: i for i, s in enumerate(states) for w in s.data}, {}, []
    for i, (state, msg) in enumerate(zip(states, msgs)):
        a, b, ys = _search(p, j, state.data, msg.payload, memo)
        for w in state.data:
            if last[w.bits] == i:
                memo.pop(w.bits, None)
        out.append(_built_state(p, j, ys, state.sides[: j - 2] + (BitWord(2 * p.n, a | (b << p.n)),)
                                + state.sides[j - 1 :]))
    return out


def _check_blocks(p: WomParams, j: int, states: Sequence[BlockState], msgs: Sequence[RoundMessage]) -> None:
    """Raise the first faulty block's check error, walking the blocks in order; unranks and searches nothing."""
    for state, msg in zip(states, msgs):
        if len(msg.payload) != p.m:
            raise ValueError(f"payload has {len(msg.payload)} entries, expected {p.m}")
        if j > 1:
            _check_search(p, j, state.data, msg.payload)
            continue
        for i, rank in enumerate(msg.payload):
            if type(rank) is not int:
                raise ValueError(f"word {i}: rank {rank!r} is not an int")
        for rank in msg.payload:
            if not 0 <= rank < p.round1_space:
                raise ValueError(f"rank {rank} out of range, expected 0..{p.round1_space - 1}")


def encode_round(state: BlockState, msg: RoundMessage) -> BlockState:
    """Write round msg.round into one block: `full_encode_round` on that block."""
    return full_encode_round([state], [msg])[0]


def decode_round(state: BlockState, j: int) -> RoundMessage:
    """Read back round j's messages; only the most recent round is decodable.

    Round j >= 2 hashes the data words with rows a*z^i built once and shift b.
    """
    p = state.params
    if not 1 <= j <= p.t:
        raise ValueError(f"round {j} out of range 1..{p.t}")
    if state.round != j:
        raise ValueError(f"block holds {state.round} round(s), round {j} is not current")
    if j == 1:
        return RoundMessage(1, [colex_rank(d.bits) for d in state.data])
    side = state.sides[j - 2].bits
    out_len = p.payload_bits(j)
    rows = truncated_rows(canonical_spec(p.n), side & ((1 << p.n) - 1), out_len)
    hashes = hash_words(rows, [d.bits for d in state.data], side >> p.n)
    return RoundMessage(j, [BitWord(out_len, h) for h in hashes])

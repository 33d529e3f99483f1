"""Round-based encoder/decoder for one coded memory block.

A block state is its round r (the rounds written so far), m data words of
n bits, and t-1 side words of 2n bits. Memory lays the round out as a
t-bit unary header (`full_codec`), which the image format checks too
(`wom_device`). Round 1 writes each message as the characteristic word of
a fixed-weight subset. Every later round j finds a single truncated affine
map H, the int pair (a, b), and per-word replacements y_i >= w_i within
the round's weight budget such that H(y_i) equals the i-th message, then
stores a | b << n in side word j-2. `full_encode_round` writes one round,
any round, into every block of an image in block order, and `encode_round`
is its one-block case. For each block of a round j >= 2, `_search` tries
a = 0, 1, ... over ints: one `hashfam.hash_words` pass over a word's
candidate masks gives its table H_{a,0}(y) -> smallest y, and membership
tests find the targets v with v ^ x_i in every table. H_{a,0} is
GF(2)-linear, so word i's targets lie in its hull: H(w_i) XOR the span of
the rows of w_i's unset bits (the point H(w_i) when w_i has no budget
left), shifted by x_i ^ x_0. Before any table at a, the hull test skips
a when the block's memo tables and hulls leave no common target; it never
skips a multiplier that works. One memo per parameter object and call,
keyed on bits (a call writes one round), holds a word's descending
candidates and its tables at the multipliers that encoded one of its
holders, until its last holder is written. A block builds a word's table
or hull at a once, drops those of a failing a and notes only which
multipliers the test skipped; when every multiplier fails, it rescans
those with the test off, so NoEncoding names the exact bottleneck. The
first failing block raises its error, its check's or its NoEncoding.
Decoding re-applies the current round's map with one `hash_words` call
over the data words. Both build their row table with
`hashfam.truncated_rows`, so H is evaluated only in `hashfam`. Round 1
decodes by ranking the subsets. Fresh blocks under one parameter object
encode it in column passes: each check runs once over all blocks, the
rank types before any lookup (True would find rank 1's word), each
distinct rank is unranked once and `map` builds the states. A failed
check, or several parameter objects, takes the block loop, which unranks
each distinct rank once per parameter object and raises the first failing
block's error. `encode_round1` is the one-block case.

All states are immutable; encoders return new states that dominate their
inputs coordinatewise. `check_block` is the one budget rule a block must
keep, and `_check_words` holds its per-word tests. The public
`BlockState(...)` runs it, so a `BlockState` keeps the rule by its
type. `_built_state` fills the slots of each state the codec writes and
skips the check: `check_block` costs about four times the rest of a
construction. Every message and word goes through its checked constructor.
"""

from __future__ import annotations

from collections import Counter
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


def _check_payload(state: BlockState, msg: RoundMessage) -> None:
    if len(msg.payload) != state.params.m:
        raise ValueError(f"payload has {len(msg.payload)} entries, expected {state.params.m}")


def encode_round1(state: BlockState, msg: RoundMessage) -> BlockState:
    """Write the first round into one block: `full_encode_round` on that block."""
    if state.round != 0:
        raise SequencingError(f"block already holds {state.round} round(s)")
    if msg.round != 1:
        raise SequencingError(f"message is for round {msg.round}, block expects round 1")
    return full_encode_round([state], [msg])[0]


def in_guaranteed_regime(params: WomParams, j: int, ws: Sequence[BitWord]) -> bool:
    """Whether round j's search is guaranteed to succeed from these words.

    True when m < 2^(l/4) and every candidate set (words above w_i within
    the round budget) has at least 2^(k_j) elements. Outside the regime the
    search is still exact: it either finds an encoding or proves there is
    none.
    """
    if not params.m < 2 ** (params.l / 4):
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

    `_may_meet` is the hull test, run once at each multiplier of the first
    pass. At a = 0 every row is zero, so each hull is the point x_i ^ x_0,
    and the test skips a = 0 unless all x_i are equal. A skipped multiplier
    counts no fail, a tested one the fail an exhaustive scan counts, so the
    rescan (`exact`) visits only the skipped.
    """
    n, modulus, out_len = params.n, canonical_spec(params.n), params.payload_bits(j)
    budget = params.budgets[j - 1]
    for w in ws:
        if w.bits not in memo:  # descending candidates: the last witness stored is the smallest
            memo[w.bits] = list(enumerate_above(w, budget))[::-1], {}
    x0 = xs[0].bits
    words = [(memo[w.bits], w.bits, x.bits ^ x0) for w, x in zip(ws, xs)]
    start = int(any(x.bits != x0 for x in xs))
    fails, skipped = [0] * params.m, list(range(start))
    for exact in (False, True):
        for a in skipped if exact else range(start, 1 << n):
            rows, common, used, built = truncated_rows(modulus, a, out_len), None, [], {}
            if not exact and not _may_meet(rows, a, words):
                skipped.append(a)
                continue
            for i, ((cands, tables), bits, shift) in enumerate(words):
                table = tables.get(a) or built.get(bits)
                if table is None:
                    table = built[bits] = dict(zip(hash_words(rows, cands, 0), cands))
                common = table if common is None else [h for h in common if h ^ shift in table]
                if not common:
                    fails[i] += 1
                    break
                used.append(table)
            else:
                for ((_, tables), _, _), table in zip(words, used):
                    tables[a] = table
                v = min(h ^ x0 for h in common)
                return a, v, tuple([BitWord(n, table[v ^ x.bits]) for table, x in zip(used, xs)])
    bottleneck = max(range(params.m), key=lambda i: (fails[i], -i))
    raise NoEncoding(f"exhausted all {1 << n} multipliers for round {j}; data word {bottleneck} was the "
                     "most frequent bottleneck", bottleneck)


def _may_meet(rows: list[int], a: int, words: list) -> bool:
    """False only if no h has h ^ shift in every word's targets at a.

    A word's memo table at a holds its targets exactly. Without one, its
    targets lie in its hull, built once per word and dropped after the
    test, which narrows the common h through each table or hull in turn.
    """
    common, hulls = None, {}
    for (cands, tables), bits, shift in words:
        hull = tables.get(a) or hulls.get(bits)
        if hull is None:
            hull = hulls[bits] = _hull(rows, bits, len(cands))
        if hull:
            common = [h ^ shift for h in hull] if common is None else [h for h in common if h ^ shift in hull]
            if not common:
                return False
    return True


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
    """Write one round into every block, in block order; fails atomically.

    Round 1 on fresh blocks under one parameter object runs in column
    passes, as the module docstring says; otherwise it runs the block loop.
    A later round runs `_search` per block with one memo per parameter
    object, dropping a word's entry after its last holder there; the first
    failing block's error is raised before any state is returned.
    """
    if len(states) != len(msgs):
        raise ValueError(f"{len(states)} states but {len(msgs)} messages")
    if not states:
        raise ValueError("need at least one block")
    rounds = {s.round for s in states}
    if len(rounds) > 1:
        raise ValueError(f"blocks disagree on the current round: {sorted(rounds)}")
    p = states[0].params
    if rounds == {0} and {msg.round for msg in msgs} == {1} and all(s.params is p for s in states):
        payloads = [msg.payload for msg in msgs]
        ranks = list(chain.from_iterable(payloads))
        # types before any lookup: True would find rank 1's word
        if set(map(len, payloads)) == {p.m} and set(map(type, ranks)) == {int}:
            distinct = set(ranks)
            if min(distinct) >= 0 and max(distinct) < p.round1_space:
                words = {rank: subset_unrank(rank, p.n, p.budgets[0]) for rank in distinct}
                data = zip(*[map(words.__getitem__, ranks)] * p.m)
                return list(map(_built_state, repeat(p), repeat(1), data, [s.sides for s in states]))
    holders, memos, words_of, out = {}, {}, {}, []
    for s in states if rounds != {0} else ():  # per parameter object: a key is a word's bits
        holders.setdefault(id(s.params), Counter()).update([w.bits for w in s.data])
    for state, msg in zip(states, msgs):
        p, j = state.params, msg.round
        if j == 1:
            if state.round != 0:
                raise SequencingError(f"block already holds {state.round} round(s)")
            _check_payload(state, msg)
            for i, rank in enumerate(msg.payload):  # before any lookup: True would find rank 1's word
                if type(rank) is not int:
                    raise ValueError(f"word {i}: rank {rank!r} is not an int")
            words = words_of.setdefault(id(p), {})
            for rank in msg.payload:
                if rank not in words:
                    words[rank] = subset_unrank(rank, p.n, p.budgets[0])
            out.append(_built_state(p, 1, tuple(map(words.__getitem__, msg.payload)), state.sides))
            continue
        if j > p.t:
            raise SequencingError(f"round {j} out of range 1..{p.t}")
        if state.round != j - 1:
            raise SequencingError(f"block holds {state.round} round(s), cannot write round {j}")
        _check_payload(state, msg)
        _check_search(p, j, state.data, msg.payload)
        memo, held = memos.setdefault(id(p), {}), holders[id(p)]
        a, b, ys = _search(p, j, state.data, msg.payload, memo)
        held.subtract([w.bits for w in state.data])
        for w in state.data:
            if not held[w.bits]:
                memo.pop(w.bits, None)
        out.append(_built_state(p, j, ys, state.sides[: j - 2] + (BitWord(2 * p.n, a | (b << p.n)),)
                                + state.sides[j - 1 :]))
    return out


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

"""Round-based encoder/decoder for one coded memory block.

A block state is its round r (the rounds written so far), m data words of
n bits, and t-1 side words of 2n bits. Memory lays the round out as a
t-bit unary header (`full_codec`), which the image format checks too
(`wom_device`). Round 1 writes each message as the characteristic word of
a fixed-weight subset. Every later round j finds a single truncated affine
map H, the int pair (a, b), and per-word replacements y_i >= w_i within
the round's weight budget such that H(y_i) equals the i-th message, then
stores a | b << n in side word j-2. `encode_round` writes any round into
one block, `encode_blocks` round j >= 2 into many. Their search, `_search`,
is one loop over ints for a list of blocks. For a = 0, 1, ... it builds
each parameter set's rows once and tests every pending block in order:
one `hashfam.hash_words` pass over a word's candidate masks, listed once
per call, gives its table H_{a,0}(y) -> smallest y, and membership tests
find the targets v with v ^ x_i in every table. A block retires at its
least a, as if searched alone. Blocks of one parameter object that hold
a word share its table until a ends; a block that shares none scans on
alone. The lowest failing block's error wins, its NoEncoding or its
check's. Decoding re-applies the current round's map with one
`hash_words` call over the data words. Both build their row table with
`hashfam.truncated_rows`, so H is evaluated only in `hashfam`. Round 1
ranks the subsets.

All states are immutable; encoders return new states that dominate their
inputs coordinatewise. `check_block` is the one budget rule a block must
keep, and `_check_words` holds its per-word tests. The public
`BlockState(...)` runs it, so a `BlockState` keeps the rule by its
type. The codec builds the states it writes through `_built_state`, which
skips the check: `check_block` costs about four times the rest of a
construction. Every message and word goes through its checked constructor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitwords import BitWord, colex_rank, count_above, enumerate_above, subset_unrank
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


@dataclass(frozen=True, slots=True, init=False)
class RoundMessage:
    """Payload of one round: m subset ranks (round 1) or m words of k_j-l bits."""

    round: int
    payload: tuple

    def __init__(self, round: int, payload: Iterable):
        payload = tuple(payload)
        if type(round) is not int:
            raise ValueError(f"round {round!r} is not an int")
        if round < 1:
            raise ValueError("rounds are numbered from 1")
        _set_round(self, round)
        _set_payload(self, payload)


@dataclass(frozen=True, slots=True, init=False)
class BlockState:
    """Immutable contents of one block after `round` rounds, checked by `check_block`."""

    params: WomParams
    round: int
    data: tuple[BitWord, ...]
    sides: tuple[BitWord, ...]

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


# The slots' own setters: the frozen dataclass's __setattr__ refuses to assign.
_set_round, _set_payload = (RoundMessage.__dict__[name].__set__ for name in ("round", "payload"))
_set_params, _set_block_round, _set_data, _set_sides = (
    BlockState.__dict__[name].__set__ for name in ("params", "round", "data", "sides")
)


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
                b, width = bits >> n, p.k[s] - p.l
                if b >> width:
                    raise ValueError(f"side word {s} holds b = {b}, wider than {width} bits")
            elif bits:
                raise ValueError(f"side word {s} is set, but round {s + 2} is not written")


def _check_payload(state: BlockState, msg: RoundMessage) -> None:
    if len(msg.payload) != state.params.m:
        raise ValueError(f"payload has {len(msg.payload)} entries, expected {state.params.m}")


def encode_round1(state: BlockState, msg: RoundMessage) -> BlockState:
    """Write the first round: payload ranks become fixed-weight data words."""
    if state.round != 0:
        raise SequencingError(f"block already holds {state.round} round(s)")
    if msg.round != 1:
        raise SequencingError(f"message is for round {msg.round}, block expects round 1")
    _check_payload(state, msg)
    p = state.params
    b1 = p.budgets[0]
    data = tuple([subset_unrank(int(rank), p.n, b1) for rank in msg.payload])
    return _built_state(p, 1, data, state.sides)


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


def _search_job(params: WomParams, j: int, ws: Sequence[BitWord], xs: Sequence[BitWord]) -> tuple:
    """Check one block's search inputs; return them as `_search` takes them."""
    if not 2 <= j <= params.t:
        raise ValueError(f"round {j} out of range 2..{params.t}")
    if len(ws) != params.m or len(xs) != params.m:
        raise ValueError(f"expected {params.m} current words and messages")
    canonical_spec(params.n)  # rejects widths the search cannot cover
    out_len, prev_budget = params.k_for_round(j) - params.l, params.budgets[j - 2]
    for i, w in enumerate(ws):
        if w.length != params.n:
            raise ValueError(f"word {i} has {w.length} bits, expected {params.n}")
        if w.weight > prev_budget:
            raise ValueError(f"word {i} has weight {w.weight}, above round-{j - 1} budget {prev_budget}")
    for i, x in enumerate(xs):
        if x.length != out_len:
            raise ValueError(f"message {i} has {x.length} bits, expected {out_len}")
    return params, j, ws, xs


def search_block_encoding(
    params: WomParams, j: int, ws: Sequence[BitWord], xs: Sequence[BitWord]
) -> tuple[int, int, list[BitWord]]:
    """Find a map (a, b) and words y_i >= w_i of weight <= B_j with H(y_i) = x_i.

    The least multiplier a whose targets T_i = { H_{a,0}(y) XOR x_i : y in
    Y_i } intersect gives b = v = min(intersection) and, per word, the
    smallest candidate hashing to x_i XOR v: `_search` on one block.
    """
    [(a, b, ys)] = _search([_search_job(params, j, ws, xs)])
    return a, b, list(ys)


def _search(jobs: Sequence[tuple]) -> list[tuple[int, int, tuple[BitWord, ...]]]:
    """(a, b, ys) for each `_search_job`, by the multiplier-major loop of the module docstring."""
    groups, blocks = {}, []  # per parameter object and round: holders, candidates, modulus, out_len, n, budget, j
    for params, j, ws, xs in jobs:
        group = groups.get((id(params), j)) or groups.setdefault((id(params), j), (
            Counter(), {}, canonical_spec(params.n), params.k_for_round(j) - params.l, params.n,
            params.budgets[j - 1], j))
        group[0].update(w.bits for w in ws)
        blocks.append((group, ws, xs, [0] * params.m))

    def attempt(blk: int, a: int, rows: list[int], tables: dict) -> tuple | None:
        (holders, candidates, _, _, n, budget, _), ws, xs, fails = blocks[blk]
        common, used, x0 = None, [], xs[0].bits
        for i, w in enumerate(ws):
            table = tables.get(w.bits)
            if table is None:  # descending candidates: the last witness stored is the smallest
                cands = candidates.get(w.bits)
                if cands is None:
                    cands = candidates[w.bits] = list(enumerate_above(w, budget))[::-1]
                table = dict(zip(hash_words(rows, cands, 0), cands))
                if holders[w.bits] > 1:  # kept to the end of a while another pending slot holds w
                    tables[w.bits] = table
            shift = xs[i].bits ^ x0
            common = table if common is None else [h for h in common if h ^ shift in table]
            if not common:
                fails[i] += 1
                return None
            used.append(table)
        v = min(h ^ x0 for h in common)
        return a, v, tuple([BitWord(n, table[v ^ x.bits]) for table, x in zip(used, xs)])

    found, error, last, pending, a = [None] * len(blocks), None, len(blocks), list(range(len(blocks))), 0
    while pending:
        at_a, still = {}, []  # per group: its rows and shared tables at a
        for blk in pending:
            if blk > last:
                break
            group, ws = blocks[blk][:2]
            holders, candidates, modulus, out_len, n, _, j = group
            top = 1 << n
            if id(group) not in at_a:
                at_a[id(group)] = truncated_rows(modulus, a, out_len), {}
            lone = all(holders[w.bits] == 1 for w in ws)
            result, at = attempt(blk, a, *at_a[id(group)]), a + 1
            while result is None and lone and at < top:  # no other block shares its tables
                result, at = attempt(blk, at, truncated_rows(modulus, at, out_len), {}), at + 1
            if result is None and not lone and at < top:
                still.append(blk)
                continue
            found[blk] = result
            holders.subtract(w.bits for w in ws)
            for w in ws:
                if not holders[w.bits]:
                    candidates.pop(w.bits, None)
            if result is None:
                fails = blocks[blk][3]
                bottleneck = max(range(len(fails)), key=lambda i: (fails[i], -i))
                last, error = blk, NoEncoding(f"exhausted all {top} multipliers for round {j}; data word "
                                              f"{bottleneck} was the most frequent bottleneck", bottleneck)
        pending, a = still, a + 1
    if error is not None:
        raise error
    return found


def encode_blocks(states: Sequence[BlockState], msgs: Sequence[RoundMessage]) -> list[BlockState]:
    """`encode_round` on blocks that hold a round: their checks in block order, then one `_search`."""
    jobs, error = [], None
    for state, msg in zip(states, msgs):
        try:
            if msg.round == 1:
                encode_round1(state, msg)  # refuses: the block holds a round
            if msg.round > state.params.t:
                raise SequencingError(f"round {msg.round} out of range 1..{state.params.t}")
            if state.round != msg.round - 1:
                raise SequencingError(f"block holds {state.round} round(s), cannot write round {msg.round}")
            _check_payload(state, msg)
            jobs.append(_search_job(state.params, msg.round, state.data, msg.payload))
        except Exception as exc:  # raised after the search, unless an earlier block has no encoding
            error = exc
            break
    found = _search(jobs)
    if error is not None:
        raise error
    return [
        _built_state(p, j, ys, state.sides[: j - 2] + (BitWord(2 * p.n, a | (b << p.n)),) + state.sides[j - 1 :])
        for state, (p, j, _, _), (a, b, ys) in zip(states, jobs, found)
    ]


def encode_round(state: BlockState, msg: RoundMessage) -> BlockState:
    """Write round msg.round: round 1 by encode_round1, a later round by `encode_blocks`."""
    return encode_round1(state, msg) if msg.round == 1 else encode_blocks([state], [msg])[0]


def decode_round(state: BlockState, j: int) -> RoundMessage:
    """Read back round j's messages; only the most recent round is decodable.

    Round j >= 2 builds the rows a*z^i once and hashes the data words with
    shift b.
    """
    p = state.params
    if not 1 <= j <= p.t:
        raise ValueError(f"round {j} out of range 1..{p.t}")
    if state.round != j:
        raise ValueError(f"block holds {state.round} round(s), round {j} is not current")
    if j == 1:
        return RoundMessage(1, [colex_rank(d.bits) for d in state.data])
    side = state.sides[j - 2].bits
    out_len = p.k[j - 2] - p.l
    rows = truncated_rows(canonical_spec(p.n), side & ((1 << p.n) - 1), out_len)
    hashes = hash_words(rows, [d.bits for d in state.data], side >> p.n)
    return RoundMessage(j, [BitWord(out_len, h) for h in hashes])

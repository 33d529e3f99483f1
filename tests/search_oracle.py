"""Reference implementations of the round-j search, kept as they were.

`search_block_encoding` is the two-pass, set-based body of
`block_codec.search_block_encoding` and of the `bitwords.enumerate_above`
it scanned, on ints: for each multiplier it hashes every candidate into a
set of targets, and on success hashes the candidates a second time to find
each word's smallest witness.

`one_pass_search` is the body that replaced it, kept verbatim but for
its input checks: per multiplier and word, one `hash_words` pass with
the shift x_i maps each target to its smallest witness. `encode_round`
and `full_encode_round` are the per-block write loop built on it, which
searched each block alone and raised the first failing block's error;
its round 1 is `encode_round1`, the per-block write that unranked every
rank of a block on its own. The loop now first runs `check_round` over
every block, in block order, so the first faulty block's check error
comes before any block's search or unrank, as a round that one block
cannot take is void. It tests the messages alone, by the rule
`full_codec.unpack_messages` keeps too, and names each fault's block and
word; a `BlockState`'s words keep its round's budget by their type. The
library writes the blocks in the same order, but unranks each distinct
round-1 rank once and shares a repeated word's tables across blocks
through one memo per write. Tests require the same `(a, b, ys)`, the
same `NoEncoding` message and `bottleneck`, and the same check errors
from all of them.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

from womkit.bitwords import BitWord, subset_unrank
from womkit.block_codec import (
    BlockState,
    NoEncoding,
    RoundMessage,
    SequencingError,
    _built_state,
)
from womkit.capacity import WomParams
from womkit.gf2n import canonical_spec
from womkit.hashfam import hash_words, truncated_rows


def enumerate_above(w: BitWord, max_weight: int) -> Iterator[int]:
    """Masks of all y >= w with weight(y) <= max_weight, in ascending order."""
    budget = max_weight - w.weight
    if budget < 0:
        return
    free = ~w.bits & ((1 << w.length) - 1)
    s = 0
    while True:
        if s.bit_count() <= budget:
            yield w.bits | s
        s = (s - free) & free
        if s == 0:
            return


def search_block_encoding(
    params: WomParams, j: int, ws: Sequence[BitWord], xs: Sequence[BitWord]
) -> tuple[int, int, list[BitWord]]:
    if not 2 <= j <= params.t:
        raise ValueError(f"round {j} out of range 2..{params.t}")
    if len(ws) != params.m or len(xs) != params.m:
        raise ValueError(f"expected {params.m} current words and messages")
    modulus = canonical_spec(params.n)
    n = params.n
    kj = params.k_for_round(j)
    out_len = kj - params.l
    budget = params.budgets[j - 1]
    prev_budget = params.budgets[j - 2]
    for i, w in enumerate(ws):
        if w.length != n:
            raise ValueError(f"word {i} has {w.length} bits, expected {n}")
        if w.weight > prev_budget:
            raise ValueError(f"word {i} has weight {w.weight}, above round-{j - 1} budget {prev_budget}")
    for i, x in enumerate(xs):
        if x.length != out_len:
            raise ValueError(f"block 0 word {i}: message has {x.length} bits, expected {out_len}")

    candidates = []
    for i, w in enumerate(ws):
        masks = list(enumerate_above(w, budget))
        if not masks:
            raise NoEncoding(f"no words above data word {i} within budget {budget}", i)
        candidates.append(masks)

    mask = (1 << out_len) - 1
    top = 1 << n
    fail_counts = [0] * params.m
    for a in range(top):
        rows = []
        r = a
        for _ in range(n):
            rows.append(r & mask)
            r <<= 1
            if r & top:
                r ^= modulus
        common = None
        for i in range(params.m):
            xi = xs[i].bits
            targets = set()
            for y in candidates[i]:
                acc = 0
                yy = y
                while yy:
                    low = yy & -yy
                    acc ^= rows[low.bit_length() - 1]
                    yy ^= low
                targets.add(acc ^ xi)
            common = targets if common is None else common & targets
            if not common:
                fail_counts[i] += 1
                break
        if common:
            v = min(common)
            ys = []
            for i in range(params.m):
                want = xs[i].bits ^ v
                for y in candidates[i]:
                    acc = 0
                    yy = y
                    while yy:
                        low = yy & -yy
                        acc ^= rows[low.bit_length() - 1]
                        yy ^= low
                    if acc == want:
                        ys.append(BitWord(n, y))
                        break
            return a, v, ys
    bottleneck = max(range(params.m), key=lambda i: (fail_counts[i], -i))
    raise NoEncoding(
        f"exhausted all {top} multipliers for round {j}; data word {bottleneck} "
        "was the most frequent bottleneck",
        bottleneck,
    )


def one_pass_search(
    params: WomParams, j: int, ws: Sequence[BitWord], xs: Sequence[BitWord]
) -> tuple[int, int, list[BitWord]]:
    """Find a map (a, b) and words y_i >= w_i of weight <= B_j with H(y_i) = x_i.

    Scans multipliers a in ascending order. For each a the candidate
    targets T_i = { H_{a,0}(y) XOR x_i : y in Y_i } are intersected; a
    nonempty intersection yields the shift v = min(intersection), the
    additive coefficient b = v padded with zeros, and per word the smallest
    candidate hashing to x_i XOR v. The one hashing pass maps each target
    to its smallest witness. The ascending scan and min tie-breaks make the
    result a pure function of the inputs.
    """
    modulus = canonical_spec(params.n)  # rejects widths the search cannot cover
    n = params.n
    kj = params.k_for_round(j)
    out_len = kj - params.l
    budget = params.budgets[j - 1]

    # Candidates run in descending order, so the last witness stored for a
    # target is its smallest one.
    candidates = []
    for i, w in enumerate(ws):
        masks = list(enumerate_above(w, budget))
        masks.reverse()
        candidates.append(masks)

    top = 1 << n
    fail_counts = [0] * params.m
    for a in range(top):
        rows = truncated_rows(modulus, a, out_len)
        common = None
        witnesses = []
        for i in range(params.m):
            cands = candidates[i]
            witness = dict(zip(hash_words(rows, cands, xs[i].bits), cands))
            common = witness.keys() if common is None else common & witness.keys()
            if not common:
                fail_counts[i] += 1
                break
            witnesses.append(witness)
        if common:
            v = min(common)
            return a, v, [BitWord(n, witness[v]) for witness in witnesses]
    bottleneck = max(range(params.m), key=lambda i: (fail_counts[i], -i))
    raise NoEncoding(
        f"exhausted all {top} multipliers for round {j}; data word {bottleneck} "
        "was the most frequent bottleneck",
        bottleneck,
    )


def check_payload(state: BlockState, msg: RoundMessage) -> None:
    if len(msg.payload) != state.params.m:
        raise ValueError(f"payload has {len(msg.payload)} entries, expected {state.params.m}")


def encode_round1(state: BlockState, msg: RoundMessage) -> BlockState:
    """Write the first round: payload ranks become fixed-weight data words."""
    if state.round != 0:
        raise SequencingError(f"block already holds {state.round} round(s)")
    if msg.round != 1:
        raise SequencingError(f"message is for round {msg.round}, block expects round 1")
    check_payload(state, msg)
    p = state.params
    b1 = p.budgets[0]
    data = tuple([subset_unrank(rank, p.n, b1) for rank in msg.payload])
    return _built_state(p, 1, data, state.sides)


def encode_round(state: BlockState, msg: RoundMessage) -> BlockState:
    """Write round msg.round: round 1 by encode_round1, a later round by the map search."""
    j = msg.round
    if j == 1:
        return encode_round1(state, msg)
    if j > state.params.t:
        raise SequencingError(f"round {j} out of range 1..{state.params.t}")
    if state.round != j - 1:
        raise SequencingError(f"block holds {state.round} round(s), cannot write round {j}")
    check_payload(state, msg)
    p = state.params
    a, b, ys = one_pass_search(p, j, state.data, msg.payload)
    side = BitWord(2 * p.n, a | (b << p.n))
    sides = state.sides[: j - 2] + (side,) + state.sides[j - 1 :]
    return _built_state(p, j, tuple(ys), sides)


def check_round(state: BlockState, msg: RoundMessage, block: int) -> None:
    """The checks a write makes of block `block` before any search or unrank: its sequencing, then its messages.

    The state is a `BlockState`, whose words keep its round's budget by
    their type, so no word is tested.
    """
    p, j = state.params, msg.round
    if j == 1:
        if state.round != 0:
            raise SequencingError(f"block already holds {state.round} round(s)")
    else:
        if j > p.t:
            raise SequencingError(f"round {j} out of range 1..{p.t}")
        if state.round != j - 1:
            raise SequencingError(f"block holds {state.round} round(s), cannot write round {j}")
    check_payload(state, msg)
    total = comb(p.n, p.budgets[0])
    out_len = p.k_for_round(j) - p.l if j > 1 else None
    for i, x in enumerate(msg.payload):
        if j == 1 and type(x) is not int:
            raise ValueError(f"block {block} word {i}: rank {x!r} is not an int")
        if j == 1 and not 0 <= x < total:
            raise ValueError(f"block {block} word {i}: rank {x} out of range, expected 0..{total - 1}")
        if j != 1 and not isinstance(x, BitWord):
            raise ValueError(f"block {block} word {i}: {x!r} is not a BitWord")
        if j != 1 and x.length != out_len:
            raise ValueError(f"block {block} word {i}: message has {x.length} bits, expected {out_len}")


def full_encode_round(states: Sequence[BlockState], msgs: Sequence[RoundMessage]) -> list[BlockState]:
    """The per-block loop: every block checked first, then each searched alone; the first failing block's error raised."""
    if len(states) != len(msgs):
        raise ValueError(f"{len(states)} states but {len(msgs)} messages")
    if not states:
        raise ValueError("need at least one block")
    rounds = {s.round for s in states}
    if len(rounds) > 1:
        raise ValueError(f"blocks disagree on the current round: {sorted(rounds)}")
    for block, (state, msg) in enumerate(zip(states, msgs)):
        check_round(state, msg, block)
    return [encode_round(state, msg) for state, msg in zip(states, msgs)]

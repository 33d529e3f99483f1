"""Round-based encoder/decoder for one coded memory block.

A block is t header bits (round counter, unary), m data words of n bits,
and t-1 side words of 2n bits. Round 1 writes each message as the
characteristic word of a fixed-weight subset. Every later round j finds a
single truncated affine map H, the int pair (a, b), and per-word
replacements y_i >= w_i within the round's weight budget such that H(y_i)
equals the i-th message, then stores a | b << n in side word j-2;
`encode_round` writes any round. The search is a kernel over ints:
candidate words are masks, and one hashing pass per multiplier yields both
the targets and their witnesses. Decoding the current round checks that
each word is one the encoder can write, reads the pair back and re-applies
the map (round 1 ranks the subsets).

All states are immutable; encoders return new states that dominate their
inputs coordinatewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitwords import BitWord, count_above, enumerate_above, subset_rank, subset_unrank
from .capacity import WomParams
from .gf2n import canonical_spec
from .hashfam import hash_apply


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


@dataclass(frozen=True, slots=True)
class RoundMessage:
    """Payload of one round: m subset ranks (round 1) or m words of k_j-l bits."""

    round: int
    payload: tuple

    def __post_init__(self):
        object.__setattr__(self, "payload", tuple(self.payload))
        if self.round < 1:
            raise ValueError("rounds are numbered from 1")


def _shape_is(words: tuple[BitWord, ...], count: int, length: int) -> bool:
    """Whether there are `count` words, each of `length` bits."""
    if len(words) != count:
        return False
    for word in words:
        if word.length != length:
            return False
    return True


@dataclass(frozen=True, slots=True)
class BlockState:
    """Immutable contents of one block; the round is derived from the header."""

    params: WomParams
    header: BitWord
    data: tuple[BitWord, ...]
    sides: tuple[BitWord, ...]

    def __post_init__(self):
        # Codecs build one state per block per round, so this stays cheap:
        # tuples are kept as they are, and a header h is unary iff h & (h + 1) == 0.
        data, sides = self.data, self.sides
        if type(data) is not tuple:
            data = tuple(data)
            object.__setattr__(self, "data", data)
        if type(sides) is not tuple:
            sides = tuple(sides)
            object.__setattr__(self, "sides", sides)
        p = self.params
        n = p.n
        header = self.header
        if header.length != p.t:
            raise ValueError(f"header has {header.length} bits, expected {p.t}")
        if header.bits & (header.bits + 1):
            raise ValueError(f"header 0b{header.bits:b} is not a unary round counter")
        if not _shape_is(data, p.m, n):
            raise ValueError(f"expected {p.m} data words of {n} bits")
        if not _shape_is(sides, p.t - 1, 2 * n):
            raise ValueError(f"expected {p.t - 1} side words of {2 * n} bits")

    @classmethod
    def fresh(cls, params: WomParams) -> "BlockState":
        return cls(
            params=params,
            header=BitWord.zeros(params.t),
            data=tuple(BitWord.zeros(params.n) for _ in range(params.m)),
            sides=tuple(BitWord.zeros(2 * params.n) for _ in range(params.t - 1)),
        )

    @property
    def round(self) -> int:
        """Rounds written so far: index of the highest header bit + 1."""
        return self.header.bits.bit_length()


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
    return BlockState(p, BitWord(p.t, 1), data, state.sides)


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


def search_block_encoding(
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
    if not 2 <= j <= params.t:
        raise ValueError(f"round {j} out of range 2..{params.t}")
    if len(ws) != params.m or len(xs) != params.m:
        raise ValueError(f"expected {params.m} current words and messages")
    modulus = canonical_spec(params.n)  # rejects widths the search cannot cover
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
            raise ValueError(f"message {i} has {x.length} bits, expected {out_len}")

    # Candidates run in descending order, so the last witness stored for a
    # target is its smallest one.
    candidates = []
    for i, w in enumerate(ws):
        masks = list(enumerate_above(w, budget))
        if not masks:
            raise NoEncoding(f"no words above data word {i} within budget {budget}", i)
        masks.reverse()
        candidates.append(masks)

    mask = (1 << out_len) - 1
    top = 1 << n
    fail_counts = [0] * params.m
    for a in range(top):
        # Truncated products a*z^bit; a*y folds over the set bits of y.
        rows = []
        r = a
        for _ in range(n):
            rows.append(r & mask)
            r <<= 1
            if r & top:
                r ^= modulus
        common = None
        witnesses = []
        for i in range(params.m):
            xi = xs[i].bits
            witness = {}
            for y in candidates[i]:
                acc = 0
                yy = y
                while yy:
                    low = yy & -yy
                    acc ^= rows[low.bit_length() - 1]
                    yy ^= low
                witness[acc ^ xi] = y
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


def encode_round(state: BlockState, msg: RoundMessage) -> BlockState:
    """Write round msg.round: round 1 by encode_round1, a later round by the map search."""
    j = msg.round
    if j == 1:
        return encode_round1(state, msg)
    if j > state.params.t:
        raise SequencingError(f"round {j} out of range 1..{state.params.t}")
    if state.round != j - 1:
        raise SequencingError(f"block holds {state.round} round(s), cannot write round {j}")
    _check_payload(state, msg)
    p = state.params
    a, b, ys = search_block_encoding(p, j, state.data, msg.payload)
    side = BitWord(2 * p.n, a | (b << p.n))
    sides = state.sides[: j - 2] + (side,) + state.sides[j - 1 :]
    return BlockState(p, BitWord(p.t, (1 << j) - 1), tuple(ys), sides)


def decode_round(state: BlockState, j: int) -> RoundMessage:
    """Read back round j's messages; only the most recent round is decodable.

    A word the encoder cannot have written (weight off budget, b too wide) raises.
    """
    if not 1 <= j <= state.params.t:
        raise ValueError(f"round {j} out of range 1..{state.params.t}")
    if state.round != j:
        raise ValueError(f"block holds {state.round} round(s), round {j} is not current")
    p = state.params
    if j == 1:
        b1 = p.budgets[0]
        return RoundMessage(1, tuple([subset_rank(d, b1) for d in state.data]))
    budget = p.budgets[j - 1]
    for i, d in enumerate(state.data):
        if d.weight > budget:
            raise ValueError(f"data word {i} has weight {d.weight}, above round-{j} budget {budget}")
    side = state.sides[j - 2].bits
    a, b = side & ((1 << p.n) - 1), side >> p.n
    out_len = p.k_for_round(j) - p.l
    if b >> out_len:
        raise ValueError(f"side word {j - 2} holds b = {b}, wider than {out_len} bits")
    return RoundMessage(j, tuple(hash_apply(a, b, out_len, d) for d in state.data))

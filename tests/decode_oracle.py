"""Reference implementation of the round decoder, kept as it was.

This is the per-word body of `block_codec.decode_round`: it checks the data
words against the round budget and the current side word's b, then sends
every data word through `hashfam.hash_apply`, which looks up the field and
runs a full multiply per word. The library checks a block once, in
`block_codec.check_block` when the block is built, and its decoder hashes
each word through one table of rows a*z^i per block. `check_block` also
checks the side words of earlier and of unwritten rounds, which this body
never reads, so tests compare the two only on blocks whose other side words
are ones the encoder writes, and hand this body states built without the
check.
"""

from __future__ import annotations

from womkit.bitwords import subset_rank
from womkit.block_codec import BlockState, RoundMessage
from womkit.hashfam import hash_apply


def decode_round(state: BlockState, j: int) -> RoundMessage:
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
        if d.weight < p.budgets[0]:  # round 1 wrote B_1 cells, and later rounds only add
            raise ValueError(f"data word {i} has weight {d.weight}, below round-1 weight {p.budgets[0]}")
        if d.weight > budget:
            raise ValueError(f"data word {i} has weight {d.weight}, above round-{j} budget {budget}")
    side = state.sides[j - 2].bits
    a, b = side & ((1 << p.n) - 1), side >> p.n
    out_len = p.k_for_round(j) - p.l
    if b >> out_len:
        raise ValueError(f"side word {j - 2} holds b = {b}, wider than {out_len} bits")
    return RoundMessage(j, tuple(hash_apply(a, b, out_len, d) for d in state.data))

"""Reference implementation of the round-j search, kept as it was.

This is the two-pass, set-based body of `block_codec.search_block_encoding`
and of the `bitwords.enumerate_above` it scanned, on ints: for each
multiplier it hashes every candidate into a set of targets, and on success
hashes the candidates a second time to find each word's smallest witness.
The library records target -> smallest witness in its one pass instead.
Tests require the same `(a, b, ys)`, the same `NoEncoding` message and the
same `bottleneck` from both.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from womkit.bitwords import BitWord
from womkit.block_codec import NoEncoding
from womkit.capacity import WomParams
from womkit.gf2n import canonical_spec


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
            raise ValueError(f"message {i} has {x.length} bits, expected {out_len}")

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

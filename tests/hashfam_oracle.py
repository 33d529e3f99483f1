"""Reference implementation of the two hash-family audits, kept as they were.

These are the bodies of `hashfam.image_fraction_audit` and
`hashfam.lhl_exact_distance` from before the audits went through the
shared row-table kernel (`hashfam.truncated_rows` and `hashfam.hash_words`).
Here every product is a full field multiply by `gf2n.mul_bits`, and the
distance audit walks all 2^n values of b. `tests/test_hash_kernel.py`
asserts that the library returns equal floats.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from womkit.bitwords import BitWord
from womkit.gf2n import canonical_spec, mul_bits
from womkit.hashfam import AUDIT_MAX_WIDTH, DISTANCE_MAX_WIDTH


def _distinct_masks(values: Iterable, n: int) -> list[int]:
    masks = set()
    for v in values:
        bits = v.bits if isinstance(v, BitWord) else int(v)
        if not 0 <= bits < (1 << n):
            raise ValueError(f"set element 0x{bits:x} is not an {n}-bit word")
        masks.add(bits)
    return sorted(masks)


def image_fraction_audit(n: int, k: int, l: int, sets: Sequence[Iterable]) -> float:
    """Worst-case fraction of coefficient pairs with a small truncated image.

    For each source Y (at least 2^k distinct n-bit words) counts the pairs
    (a, b) whose image H_{a,b}(Y) has at most 2^(k-l) * (1 - 2^(-l/4))
    distinct values, exhaustively over all 2^(2n) pairs, and returns the
    largest fraction seen. The image size is invariant under b (XOR by the
    truncated b permutes the output space), so each a is evaluated once and
    stands for all 2^n values of b.
    """
    if not 2 <= n <= AUDIT_MAX_WIDTH:
        raise ValueError(f"audit width must be in 2..{AUDIT_MAX_WIDTH}, got {n}")
    if not 0 <= l <= k <= n:
        raise ValueError(f"need 0 <= l <= k <= n, got l={l} k={k} n={n}")
    if not sets:
        raise ValueError("need at least one source set")
    modulus = canonical_spec(n)
    mask = (1 << (k - l)) - 1
    threshold = (1 << (k - l)) * (1.0 - 2.0 ** (-l / 4))
    worst = 0.0
    for raw in sets:
        ys = _distinct_masks(raw, n)
        if len(ys) < (1 << k):
            raise ValueError(f"source has {len(ys)} elements, need at least {1 << k}")
        bad_pairs = 0
        for a in range(1 << n):
            image_size = len({mul_bits(modulus, a, y) & mask for y in ys})
            if image_size <= threshold:
                bad_pairs += 1 << n
        worst = max(worst, bad_pairs / (1 << (2 * n)))
    return worst


def lhl_exact_distance(n: int, k: int, l: int, source: Iterable) -> float:
    """Exact statistical distance of (a, b, H_{a,b}(y)) from uniform.

    a and b are uniform over the field, y uniform over the 2^k-element
    source; the reference distribution is uniform over pairs x {0,1}^(k-l).
    Walks every atom of the joint distribution, so n is capped low.
    """
    if not 2 <= n <= DISTANCE_MAX_WIDTH:
        raise ValueError(f"distance width must be in 2..{DISTANCE_MAX_WIDTH}, got {n}")
    if not 0 <= l <= k <= n:
        raise ValueError(f"need 0 <= l <= k <= n, got l={l} k={k} n={n}")
    ys = _distinct_masks(source, n)
    if len(ys) != (1 << k):
        raise ValueError(f"source has {len(ys)} elements, expected exactly {1 << k}")
    modulus = canonical_spec(n)
    out_len = k - l
    mask = (1 << out_len) - 1
    size = len(ys)
    # Accumulate sum |count*2^(k-l) - |Y|| over all atoms in exact integers;
    # the distance is that sum / (2 * 2^(2n) * |Y| * 2^(k-l)).
    total = 0
    for a in range(1 << n):
        products = [mul_bits(modulus, a, y) for y in ys]
        for b in range(1 << n):
            counts = Counter((prod ^ b) & mask for prod in products)
            hit = 0
            for count in counts.values():
                total += abs(count * (1 << out_len) - size)
                hit += 1
            total += ((1 << out_len) - hit) * size
    return total / (2 * (1 << (2 * n)) * size * (1 << out_len))

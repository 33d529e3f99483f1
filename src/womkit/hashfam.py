"""Truncated affine maps over GF(2^n) and exact audits of their uniformity.

A map is the int pair (a, b) of n-bit coefficient masks: compute a*x + b
in the field, read the result as an n-bit word, keep the first k-l bits
(indices 0..k-l-1). The truncated product is GF(2)-linear in x, so the
map is evaluated over ints from `truncated_rows`, the n rows a*z^i cut to
k-l bits, by one of two kernels. `hash_words` hashes each word as the
shift (b's first k-l bits) XOR the rows of its set bits: the decoder,
`hash_apply` and the distance audit call it.
`hash_table` maps long word lists, the search's candidates and the image
audit's sources, to {hash at shift 0: last word}, one lookup per byte of a
word in a 256-entry table per 8 rows (the method of Four Russians). Two
exact audits back the guarantees the encoder relies on: how often the
truncated image of a fixed 2^k-element source is small, and the exact
statistical distance of (a, b, output) from uniform.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from .bitwords import BitWord
from .gf2n import canonical_spec

AUDIT_MAX_WIDTH = 12       # image audit enumerates all coefficient pairs
DISTANCE_MAX_WIDTH = 6     # distance audit walks the full joint distribution


def truncated_rows(modulus: int, a: int, out_len: int) -> list[int]:
    """The n rows a*z^i (i = 0..n-1) in the field of this modulus, cut to out_len bits."""
    n = modulus.bit_length() - 1
    top = 1 << n
    mask = (1 << out_len) - 1
    rows = []
    for _ in range(n):
        rows.append(a & mask)
        a <<= 1
        if a & top:
            a ^= modulus
    return rows


def hash_words(rows: Sequence[int], words: Iterable[int], shift: int) -> list[int]:
    """For each word mask: shift XOR the rows of its set bits."""
    out = []
    for y in words:
        acc = shift
        while y:
            low = y & -y
            acc ^= rows[low.bit_length() - 1]
            y ^= low
        out.append(acc)
    return out


def hash_table(rows: Sequence[int], words: Iterable[int]) -> dict[int, int]:
    """{shift-0 hash of y: y} over words of at most 24 bits, the last y kept per hash.

    Each 8 rows give a 256-entry table of their subsets' XORs, built by doubling.
    """
    t0, t1, t2 = tables = [[0], [0], [0]]
    for i, row in enumerate(rows):
        tables[i >> 3] += [x ^ row for x in tables[i >> 3]]
    return {t0[y & 255] ^ t1[y >> 8 & 255] ^ t2[y >> 16]: y for y in words}


def hash_apply(a: int, b: int, out_len: int, x: BitWord) -> BitWord:
    """The first out_len bits of a*x + b in the field as wide as the word x.

    The word's length is the field width n; a and b are n-bit coefficient
    masks and 0 <= out_len <= n (out_len = k - l for the family's k and l).
    """
    n = x.length
    modulus = canonical_spec(n)  # rejects widths outside the field range
    if not 0 <= out_len <= n:
        raise ValueError(f"output length {out_len} out of range 0..{n}")
    if not (0 <= a < 1 << n and 0 <= b < 1 << n):
        raise ValueError(f"coefficients 0x{a:x}, 0x{b:x} are not both {n}-bit masks")
    rows = truncated_rows(modulus, a, out_len)
    return BitWord(out_len, hash_words(rows, (x.bits,), b & ((1 << out_len) - 1))[0])


def _distinct_masks(values: Iterable, n: int) -> list[int]:
    masks = set()
    for v in values:
        if type(v) is not int or not 0 <= v < 1 << n:
            raise ValueError(f"set element {v!r} is not an int in 0..{(1 << n) - 1}")
        masks.add(v)
    return sorted(masks)


def _check_shape(n: int, k: int, l: int, max_width: int, kind: str) -> None:
    if not 2 <= n <= max_width:
        raise ValueError(f"{kind} width must be in 2..{max_width}, got {n}")
    if not 0 <= l <= k <= n:
        raise ValueError(f"need 0 <= l <= k <= n, got l={l} k={k} n={n}")


def _all_rows(n: int, out_len: int) -> Iterator[list[int]]:
    """Per multiplier a, the rows of H_{a,0}; it stands for every b, as XOR by b only permutes the outputs."""
    modulus = canonical_spec(n)
    for a in range(1 << n):
        yield truncated_rows(modulus, a, out_len)


def image_fraction_audit(n: int, k: int, l: int, sets: Sequence[Iterable]) -> float:
    """Worst-case fraction of coefficient pairs with a small truncated image.

    For each source Y (at least 2^k distinct n-bit words) counts the pairs
    (a, b) whose image H_{a,b}(Y) has at most 2^(k-l) * (1 - 2^(-l/4))
    distinct values, exhaustively over all 2^(2n) pairs, and returns the
    largest fraction seen.
    """
    _check_shape(n, k, l, AUDIT_MAX_WIDTH, "audit")
    if not sets:
        raise ValueError("need at least one source set")
    threshold = (1 << (k - l)) * (1.0 - 2.0 ** (-l / 4))
    worst = 0.0
    for raw in sets:
        ys = _distinct_masks(raw, n)
        if len(ys) < (1 << k):
            raise ValueError(f"source has {len(ys)} elements, need at least {1 << k}")
        bad_pairs = 0
        for rows in _all_rows(n, k - l):
            if len(hash_table(rows, ys)) <= threshold:
                bad_pairs += 1 << n
        worst = max(worst, bad_pairs / (1 << (2 * n)))
    return worst


def lhl_exact_distance(n: int, k: int, l: int, source: Iterable) -> float:
    """Exact statistical distance of (a, b, H_{a,b}(y)) from uniform.

    a and b are uniform over the field, y uniform over the 2^k-element
    source; the reference distribution is uniform over pairs x {0,1}^(k-l).
    Walks every (a, y) pair, so n is capped low.
    """
    _check_shape(n, k, l, DISTANCE_MAX_WIDTH, "distance")
    ys = _distinct_masks(source, n)
    if len(ys) != (1 << k):
        raise ValueError(f"source has {len(ys)} elements, expected exactly {1 << k}")
    out_len = k - l
    size = len(ys)
    # Accumulate sum |count*2^(k-l) - |Y|| over all atoms in exact integers;
    # the distance is that sum / (2 * 2^(2n) * |Y| * 2^(k-l)).
    total = 0
    for rows in _all_rows(n, out_len):
        counts = Counter(hash_words(rows, ys, 0))
        per_b = ((1 << out_len) - len(counts)) * size
        for count in counts.values():
            per_b += abs(count * (1 << out_len) - size)
        total += per_b << n
    return total / (2 * (1 << (2 * n)) * size * (1 << out_len))

"""The row-table kernel of `hashfam` against the field multiply and the old audits.

`truncated_rows` and `hash_words` are the one evaluator of the truncated
affine map H_{a,b}(y) = first out_len bits of a*y + b: the search, the
decoder, `hash_apply` and both audits call them. Here they are checked
against `gf2n.mul_bits`, which computes a*y by its own shift-and-add loop,
and the audits against their bodies from before they used the kernel
(`hashfam_oracle`), which multiply every pair and walk every b.
"""

import random

import hashfam_oracle as oracle
from womkit.cli import main
from womkit.gf2n import MAX_WIDTH, MIN_WIDTH, canonical_spec, mul_bits
from womkit.hashfam import hash_words, image_fraction_audit, lhl_exact_distance, truncated_rows


def by_multiply(modulus, a, b, out_len, words):
    mask = (1 << out_len) - 1
    return [(mul_bits(modulus, a, y) ^ b) & mask for y in words]


def check_kernel(rnd, n, out_len):
    modulus = canonical_spec(n)
    a, b = rnd.getrandbits(n), rnd.getrandbits(n)
    rows = truncated_rows(modulus, a, out_len)
    assert rows == by_multiply(modulus, a, 0, out_len, [1 << i for i in range(n)])
    words = [0, (1 << n) - 1] + [rnd.getrandbits(n) for _ in range(20)]
    shift = b & ((1 << out_len) - 1)
    assert hash_words(rows, words, shift) == by_multiply(modulus, a, b, out_len, words)
    assert hash_words(rows, [], shift) == []


def test_kernel_matches_field_multiply_at_every_width():
    rnd = random.Random(0x4A5)
    for n in range(MIN_WIDTH, MAX_WIDTH + 1):
        for _ in range(8):
            check_kernel(rnd, n, rnd.randint(0, n))


def test_kernel_matches_field_multiply_at_every_output_length():
    rnd = random.Random(0x4A6)
    for n in (2, 3, 8, 13, 24):
        for out_len in range(n + 1):
            for _ in range(4):
                check_kernel(rnd, n, out_len)


def test_kernel_edge_multipliers():
    # a = 0 hashes every word to the shift; a = 1 keeps the word's first bits
    for n in (2, 11, 24):
        modulus = canonical_spec(n)
        words = [0, 1, (1 << n) - 1, 0b101 & ((1 << n) - 1)]
        assert hash_words(truncated_rows(modulus, 0, n), words, 3) == [3] * len(words)
        assert hash_words(truncated_rows(modulus, 1, 2), words, 0) == [y & 0b11 for y in words]
        assert truncated_rows(modulus, (1 << n) - 1, 0) == [0] * n


def test_distance_audit_equals_oracle_for_every_shape():
    rnd = random.Random(0xD15)
    for n in range(2, 7):
        for k in range(n + 1):
            for l in range(k + 1):
                ys = rnd.sample(range(1 << n), 1 << k)
                assert lhl_exact_distance(n, k, l, ys) == oracle.lhl_exact_distance(n, k, l, ys), (n, k, l)


def test_image_audit_equals_oracle_for_every_shape():
    rnd = random.Random(0x1A6)
    for n in range(2, 9):
        for k in range(n + 1):
            for l in range(k + 1):
                sets = [rnd.sample(range(1 << n), rnd.randint(1 << k, min(1 << n, 2 << k)))]
                assert image_fraction_audit(n, k, l, sets) == oracle.image_fraction_audit(n, k, l, sets), (n, k, l)


def test_audit_hash_output_is_pinned(capsys):
    assert main(["audit-hash", "--n", "5", "--k", "3", "--l", "1", "--trials", "2"]) == 0
    assert capsys.readouterr().out == (
        "image_audit_worst=0.0\n"
        "image_audit_bound=0.8408964152537145\n"
        "image_audit=PASS\n"
        "distance_worst=0.22265625\n"
        "distance_bound=0.7071067811865476\n"
        "distance_audit=PASS\n"
    )

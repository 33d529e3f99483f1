import random

import pytest

from womkit.gf2n import MAX_WIDTH, canonical_spec, is_irreducible, mul_bits


def naive_mul(n, modulus, x, y):
    """Oracle: coefficient convolution then long division by the modulus."""
    prod = 0
    for i in range(n):
        if (x >> i) & 1:
            for j in range(n):
                if (y >> j) & 1:
                    prod ^= 1 << (i + j)
    for deg in range(2 * n - 2, n - 1, -1):
        if (prod >> deg) & 1:
            prod ^= modulus << (deg - n)
    return prod


def poly_divides(divisor, poly):
    db = divisor.bit_length()
    while poly and poly.bit_length() >= db:
        poly ^= divisor << (poly.bit_length() - db)
    return poly == 0


def irreducible_by_trial_division(poly):
    """Oracle: no divisor of degree 1..n/2 among all binary polynomials."""
    n = poly.bit_length() - 1
    for d in range(1, n // 2 + 1):
        for divisor in range(1 << d, 1 << (d + 1)):
            if poly_divides(divisor, poly):
                return False
    return True


def test_add_frozen_examples():
    # addition is XOR of coefficient masks, and the product distributes over it
    m3 = canonical_spec(3)
    assert 0b101 ^ 0b101 == 0b000 and 0b101 ^ 0b000 == 0b101 and 0b011 ^ 0b110 == 0b101
    assert mul_bits(m3, 0b010, 0b011 ^ 0b110) == mul_bits(m3, 0b010, 0b011) ^ mul_bits(m3, 0b010, 0b110)
    assert mul_bits(m3, 0b010, 0b101 ^ 0b101) == 0


def test_mul_identity():
    rnd = random.Random(1)
    m5 = canonical_spec(5)
    for _ in range(20):
        x = rnd.randrange(32)
        assert mul_bits(m5, 1, x) == x
        assert mul_bits(m5, x, 1) == x


def test_mul_frozen_examples():
    # z * z^2 = z^3 = z + 1 and z * (z^2 + z) = z^2 + z + 1 mod z^3 + z + 1
    assert canonical_spec(3) == 0b1011
    assert mul_bits(0b1011, 0b010, 0b100) == 0b011
    assert mul_bits(0b1011, 0b010, 0b110) == 0b111


def test_mul_against_naive_oracle():
    rnd = random.Random(2)
    for n in (3, 8, 12, 16):
        modulus = canonical_spec(n)
        for _ in range(300):
            x, y = rnd.randrange(1 << n), rnd.randrange(1 << n)
            assert mul_bits(modulus, x, y) == naive_mul(n, modulus, x, y)


def test_canonical_spec_frozen_masks():
    assert canonical_spec(2) == 0b111
    assert canonical_spec(3) == 0b1011
    assert canonical_spec(4) == 0b10011


def test_canonical_spec_all_widths_irreducible_and_minimal():
    for n in range(2, MAX_WIDTH + 1):
        modulus = canonical_spec(n)
        assert modulus.bit_length() == n + 1
        assert irreducible_by_trial_division(modulus)
        # nothing smaller of the same degree is irreducible
        for smaller in range((1 << n) + 1, modulus):
            assert not irreducible_by_trial_division(smaller)


def test_canonical_spec_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonical_spec(1)
    with pytest.raises(ValueError):
        canonical_spec(25)


def test_is_irreducible_matches_trial_division():
    for poly in range(0b100, 0b10000000):
        assert is_irreducible(poly) == irreducible_by_trial_division(poly), bin(poly)


def field_pow(modulus, x, e):
    acc = 1
    while e:
        if e & 1:
            acc = mul_bits(modulus, acc, x)
        x = mul_bits(modulus, x, x)
        e >>= 1
    return acc


def test_axioms_and_fermat():
    rnd = random.Random(3)
    for n in (3, 8, 12, 16):
        modulus = canonical_spec(n)

        def mul(x, y):
            return mul_bits(modulus, x, y)

        for _ in range(10_000):
            x = rnd.randrange(1 << n)
            y = rnd.randrange(1 << n)
            z = rnd.randrange(1 << n)
            assert mul(x, y) == mul(y, x)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, y ^ z) == mul(x, y) ^ mul(x, z)
        for _ in range(200):
            x = rnd.randrange(1, 1 << n)
            assert field_pow(modulus, x, (1 << n) - 1) == 1

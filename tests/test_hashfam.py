import random

import pytest

from womkit.bitwords import BitWord
from womkit.gf2n import canonical_spec, mul_bits
from womkit.hashfam import hash_apply, image_fraction_audit, lhl_exact_distance


def affine_shift_identity_check(a, b, out_len, x):
    """Truncation is linear: H_{a,b}(x) = H_{a,0}(x) XOR (first k-l bits of b)."""
    shifted = hash_apply(a, 0, out_len, x).bits ^ (b & ((1 << out_len) - 1))
    return hash_apply(a, b, out_len, x).bits == shifted


def test_hash_apply_identity_and_constant():
    rnd = random.Random(5)
    for _ in range(30):
        x = BitWord(6, rnd.getrandbits(6))
        # a = 1 truncates the input itself (k = 5, l = 2)
        assert hash_apply(1, 0, 3, x).bits == x.bits & 0b111
        # a = 0 is the constant map b truncated (k = 6, l = 3)
        assert hash_apply(0, 0b101101, 3, x).bits == 0b101101 & 0b111


def test_hash_apply_worked_example():
    # oracle: field product then XOR then truncate, done by hand here
    a, b, x = 0b010, 0b001, BitWord(3, 0b100)
    assert mul_bits(canonical_spec(3), a, x.bits) ^ b == 0b010
    out = hash_apply(a, b, 2, x)  # k = 3, l = 1
    assert out.length == 2
    assert out.bits == 0b10  # coordinate 0 clear, coordinate 1 set


def test_hash_apply_length_check():
    # the word's length is the field width: it must be one, and hold a and b
    with pytest.raises(ValueError):
        hash_apply(1, 0, 1, BitWord(1, 0))
    with pytest.raises(ValueError):
        hash_apply(1, 0, 3, BitWord(25, 0))
    with pytest.raises(ValueError):
        hash_apply(0b100000, 0, 3, BitWord(5, 0))  # a 6-bit multiplier on a 5-bit word


def test_hash_index_validation():
    x = BitWord(6, 0b101)
    with pytest.raises(ValueError):
        hash_apply(1, 0, 7, x)  # k above n
    with pytest.raises(ValueError):
        hash_apply(1, 0, -1, x)  # l above k
    with pytest.raises(ValueError):
        hash_apply(1, 1 << 6, 3, x)  # b outside the field
    with pytest.raises(ValueError):
        hash_apply(-1, 0, 3, x)
    assert hash_apply(1, 0, 0, x) == BitWord(0, 0)
    assert hash_apply(1, 0, 6, x) == x


def test_shift_identity_exhaustive_small_widths():
    for n, k, l in ((3, 3, 1), (4, 3, 1), (4, 4, 2), (5, 4, 2), (6, 5, 2)):
        for a in range(1 << n):
            for b in range(1 << n):
                for xv in range(1 << n):
                    assert affine_shift_identity_check(a, b, k - l, BitWord(n, xv))


def test_shift_identity_randomized_larger_widths():
    rnd = random.Random(6)
    for n in (12, 16):
        for _ in range(3000):
            k = rnd.randint(1, n)
            l = rnd.randint(0, k)
            a, b = rnd.getrandbits(n), rnd.getrandbits(n)
            assert affine_shift_identity_check(a, b, k - l, BitWord(n, rnd.getrandbits(n)))


def test_pairwise_independence_exhaustive_n4():
    modulus = canonical_spec(4)
    rnd = random.Random(7)
    for _ in range(5):
        x1 = rnd.randrange(16)
        x2 = rnd.randrange(16)
        if x1 == x2:
            continue
        seen = set()
        for a in range(16):
            for b in range(16):
                seen.add((mul_bits(modulus, a, x1) ^ b, mul_bits(modulus, a, x2) ^ b))
        assert len(seen) == 256  # uniform over all output pairs


def test_image_audit_full_cube():
    # with a != 0 the map is a bijection before truncation, so only the
    # a = 0 row can have a small image: exactly a 2^-n fraction of pairs
    assert image_fraction_audit(6, 6, 2, [range(64)]) == 2.0 ** -6
    # l = 0 makes the smallness threshold zero, so no pair is ever bad
    assert image_fraction_audit(5, 5, 0, [range(32)]) == 0.0 <= 2.0 ** -5


def test_image_audit_random_sets_within_bound():
    rnd = random.Random(8)
    sets = [rnd.sample(range(256), 64) for _ in range(10)]
    worst = image_fraction_audit(8, 6, 4, sets)
    assert worst <= 2.0 ** -1


def test_image_audit_matches_literal_pair_enumeration():
    # oracle: walk every (a, b) pair explicitly and recount
    rnd = random.Random(77)
    n, k, l = 4, 3, 2
    mask = (1 << (k - l)) - 1
    threshold = (1 << (k - l)) * (1.0 - 2.0 ** (-l / 4))
    for _ in range(5):
        ys = rnd.sample(range(1 << n), 1 << k)
        bad = 0
        for a in range(1 << n):
            for b in range(1 << n):
                image = {hash_apply(a, b, k - l, BitWord(n, y)).bits for y in ys}
                if len(image) <= threshold:
                    bad += 1
        assert image_fraction_audit(n, k, l, [ys]) == bad / (1 << (2 * n))


def test_image_audit_errors():
    with pytest.raises(ValueError):
        image_fraction_audit(8, 6, 4, [range(32)])  # set too small
    with pytest.raises(ValueError):
        image_fraction_audit(13, 6, 4, [range(64)])  # width out of range
    with pytest.raises(ValueError):
        image_fraction_audit(8, 6, 4, [])


def test_lhl_distance_degenerate_zero():
    assert lhl_exact_distance(4, 4, 4, range(16)) == 0.0


def test_lhl_distance_within_bound():
    assert lhl_exact_distance(4, 4, 2, range(16)) <= 2.0 ** -1
    rnd = random.Random(9)
    for _ in range(5):
        y = rnd.sample(range(64), 16)
        assert lhl_exact_distance(6, 4, 2, y) <= 2.0 ** -1


def test_lhl_distance_matches_fraction_oracle():
    # oracle: exact rational statistical distance from the full joint law
    from collections import Counter
    from fractions import Fraction

    rnd = random.Random(78)
    n, k, l = 3, 2, 1
    for _ in range(5):
        ys = rnd.sample(range(1 << n), 1 << k)
        atoms = Counter()
        for a in range(1 << n):
            for b in range(1 << n):
                for y in ys:
                    atoms[(a, b, hash_apply(a, b, k - l, BitWord(n, y)).bits)] += 1
        total_draws = (1 << (2 * n)) * len(ys)
        uniform = Fraction(1, (1 << (2 * n)) * (1 << (k - l)))
        distance = Fraction(0)
        for a in range(1 << n):
            for b in range(1 << n):
                for z in range(1 << (k - l)):
                    p = Fraction(atoms.get((a, b, z), 0), total_draws)
                    distance += abs(p - uniform)
        assert lhl_exact_distance(n, k, l, ys) == float(distance / 2)


def test_lhl_distance_errors():
    with pytest.raises(ValueError):
        lhl_exact_distance(4, 4, 2, range(8))  # wrong source size
    with pytest.raises(ValueError):
        lhl_exact_distance(8, 4, 2, range(16))  # width out of range

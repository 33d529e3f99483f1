"""Arithmetic in GF(2^n) for 2 <= n <= 24, on plain ints.

An element is an n-bit coefficient mask: bit i is the coefficient of z^i,
which gives a fixed bijection between the field and {0,1}^n. Addition is
XOR and `mul_bits` multiplies. Each width uses one canonical modulus (the
irreducible polynomial of degree n with the smallest integer encoding,
leading term included), which `canonical_spec(n)` returns, so two fields
of equal width are the same field.
"""

from __future__ import annotations

from functools import lru_cache

MIN_WIDTH = 2
MAX_WIDTH = 24


def _poly_mod(a: int, b: int) -> int:
    """Remainder of binary polynomial a modulo nonzero b."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _mulmod(a: int, b: int, modulus: int, n: int) -> int:
    """Product of two binary polynomials of degree < n, reduced mod modulus."""
    top = 1 << n
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return acc


def is_irreducible(modulus: int) -> bool:
    """Whether a binary polynomial of degree >= 1 is irreducible over GF(2).

    Uses Ben-Or's test (Ben-Or 1981; Gao & Panario 1997): f of degree n is
    irreducible iff gcd(z^(2^i) - z, f) = 1 for every i = 1..n/2, since a
    reducible f has an irreducible factor of some degree i <= n/2, which
    divides z^(2^i) - z.
    """
    n = modulus.bit_length() - 1
    if n < 1:
        raise ValueError("degree must be at least 1")
    z = power = 0b10
    for _ in range(n // 2):
        power = _mulmod(power, power, modulus, n)
        if _poly_gcd(power ^ z, modulus) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def canonical_spec(n: int) -> int:
    """The modulus of the width-n field: the smallest-mask irreducible polynomial."""
    if not MIN_WIDTH <= n <= MAX_WIDTH:
        raise ValueError(f"field width must be in {MIN_WIDTH}..{MAX_WIDTH}, got {n}")
    # Constant term must be 1, otherwise z divides the candidate.
    for candidate in range((1 << n) + 1, 1 << (n + 1), 2):
        if is_irreducible(candidate):
            return candidate
    raise AssertionError(f"no irreducible polynomial of degree {n}")  # unreachable


def mul_bits(modulus: int, a: int, b: int) -> int:
    """Product of two coefficient masks in the field of this modulus."""
    return _mulmod(a, b, modulus, modulus.bit_length() - 1)

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


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(modulus: int) -> bool:
    """Whether a binary polynomial of degree >= 1 is irreducible over GF(2).

    Uses the Frobenius criterion: f of degree n is irreducible iff
    z^(2^n) = z mod f and gcd(z^(2^(n/p)) - z, f) = 1 for every prime p
    dividing n.
    """
    n = modulus.bit_length() - 1
    if n < 1:
        raise ValueError("degree must be at least 1")
    if n == 1:
        return True
    if not modulus & 1:
        return False  # divisible by z
    checkpoints = {n // p for p in _prime_divisors(n)}
    z = 0b10
    power = z
    for i in range(1, n + 1):
        power = _mulmod(power, power, modulus, n)
        if i in checkpoints and _poly_gcd(power ^ z, modulus) != 1:
            return False
    return power == z


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

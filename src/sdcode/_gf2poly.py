"""Polynomials over GF(2) packed into Python integers.

Bit k of the integer is the coefficient of x^k, so x^4 + x + 1 is 0b10011
(0x13).  The zero polynomial is 0 and has degree -1.  All functions are
pure and width-agnostic; callers own any fixed-width bookkeeping.
"""

from __future__ import annotations


def degree(a: int) -> int:
    """Degree of a, with degree(0) == -1."""
    return a.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less (polynomial) product of a and b.  The shorter operand is
    the multiplier: one of at most five bits adds a shifted copy of the
    other per set bit, a longer one goes four bits at a time through a
    16-entry window of the other's multiples."""
    if a < b:
        a, b = b, a
    if b < 32:
        out = 0
        while b:
            low = b & -b        # lowest set bit; a * low is a shifted left
            out ^= a * low
            b ^= low
        return out
    a2, a4, a8 = a << 1, a << 2, a << 3
    a3, a12 = a2 ^ a, a8 ^ a4
    window = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
              a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
    out = k = 0
    while b:
        out ^= window[b & 15] << k
        b >>= 4
        k += 4
    return out


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a divided by b, for b != 0."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    nb, q = b.bit_length(), 0
    shift = a.bit_length() - nb
    while shift >= 0:
        q ^= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - nb
    return q, a


def mod(a: int, b: int) -> int:
    """Remainder of a modulo b, for b != 0."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    nb = b.bit_length()
    shift = a.bit_length() - nb
    while shift >= 0:
        a ^= b << shift
        shift = a.bit_length() - nb
    return a


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


def gcdext(a: int, b: int) -> tuple[int, int, int]:
    """Return (d, s, t) with s*a + t*b = d = gcd(a, b), by Euclid's algorithm
    taking one quotient term (three shift-XORs) at a time."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        nb = b.bit_length()
        j = a.bit_length() - nb
        while j >= 0:
            a ^= b << j
            s0 ^= s1 << j
            t0 ^= t1 << j
            j = a.bit_length() - nb
        a, b, s0, s1, t0, t1 = b, a, s1, s0, t1, t0
    return a, s0, t0


def mulmod(a: int, b: int, modulus: int) -> int:
    return mod(mul(a, b), modulus)


def invmod(a: int, modulus: int) -> int:
    """Inverse of a modulo modulus; raises ValueError if gcd != 1."""
    d, s, _ = gcdext(a, modulus)
    if d != 1:
        raise ValueError("element is not invertible modulo the given polynomial")
    return mod(s, modulus)


def powmod(a: int, e: int, modulus: int) -> int:
    """a**e modulo modulus, e >= 0, by square-and-multiply."""
    out = 1
    a = mod(a, modulus)
    while e:
        if e & 1:
            out = mulmod(out, a, modulus)
        a = mulmod(a, a, modulus)
        e >>= 1
    return out


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: int) -> bool:
    """Rabin's test: f of degree n is irreducible over GF(2) iff
    x^(2^n) == x (mod f) and gcd(x^(2^(n/p)) - x, f) == 1 for every
    prime p dividing n."""
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = 2
    for p in _prime_factors(n):
        t = x
        for _ in range(n // p):
            t = mulmod(t, t, f)
        if gcd(t ^ x, f) != 1:
            return False
    t = x
    for _ in range(n):
        t = mulmod(t, t, f)
    return t == x

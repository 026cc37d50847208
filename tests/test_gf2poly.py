"""Carry-less (GF(2)[x]) integer-polynomial helpers."""
import random

import pytest

from sdcode import _gf2poly as poly


def naive_mul(a: int, b: int) -> int:
    out = 0
    k = 0
    while b >> k:
        if (b >> k) & 1:
            out ^= a << k
        k += 1
    return out


def naive_irreducible(f: int) -> bool:
    d = poly.degree(f)
    if d <= 0:
        return False
    for g in range(2, 1 << d):
        if poly.degree(g) >= 1 and poly.divmod_(f, g)[1] == 0:
            return False
    return True


def test_degree():
    assert poly.degree(0) == -1
    assert poly.degree(1) == 0
    assert poly.degree(2) == 1
    assert poly.degree(0b1011) == 3
    assert poly.degree(1 << 40) == 40


def test_mul_matches_schoolbook():
    rng = random.Random(101)
    for _ in range(300):
        a = rng.getrandbits(12)
        b = rng.getrandbits(12)
        assert poly.mul(a, b) == naive_mul(a, b)
    # zero, one, the shift-and-add multipliers of 2 to 5 bits, and the
    # 4-bit window's lengths up to 300 bits, multiples of 4 or not, in
    # both argument orders
    lengths = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 99, 100, 101, 299, 300]
    operands = [0, 1] + [rng.getrandbits(n) | 1 << (n - 1) for n in lengths]
    operands += [rng.getrandbits(rng.randrange(301)) for _ in range(40)]
    for a in operands:
        for b in operands:
            assert poly.mul(a, b) == naive_mul(a, b) == poly.mul(b, a)
    # multiplication is carry-less: (x+1)^2 = x^2+1
    assert poly.mul(0b11, 0b11) == 0b101


def test_divmod_identity():
    rng = random.Random(202)
    for _ in range(300):
        a = rng.getrandbits(16)
        b = rng.getrandbits(9) | (1 << 8)
        q, r = poly.divmod_(a, b)
        assert poly.mul(q, b) ^ r == a
        assert poly.degree(r) < poly.degree(b)
        assert poly.mod(a, b) == r
    for _ in range(300):
        a = rng.getrandbits(rng.randrange(260))
        b = rng.getrandbits(rng.randrange(1, 130)) | 1
        q, r = poly.divmod_(a, b)
        assert poly.mul(q, b) ^ r == a
        assert poly.degree(r) < poly.degree(b)
        assert poly.mod(a, b) == r
    assert poly.mod(0b10011, 0b10011) == 0
    assert poly.divmod_(0, 0b101) == (0, 0) and poly.divmod_(0b11, 0b101) == (0, 0b11)
    for div in (poly.divmod_, poly.mod):
        with pytest.raises(ZeroDivisionError):
            div(0b101, 0)


def test_gcd_and_ext():
    rng = random.Random(303)
    for _ in range(200):
        a = rng.getrandbits(14)
        b = rng.getrandbits(14)
        if a == 0 and b == 0:
            continue
        d = poly.gcd(a, b)
        assert d != 0
        assert poly.mod(a, d) == 0
        assert poly.mod(b, d) == 0
        g, s, t = poly.gcdext(a, b)
        assert g == d
        assert poly.mul(s, a) ^ poly.mul(t, b) == g
    # 100-bit pairs, half of them sharing a random common factor
    for k in range(200):
        common = rng.getrandbits(rng.randrange(2, 30)) | 1 if k % 2 else 1
        a = poly.mul(rng.getrandbits(100), common)
        b = poly.mul(rng.getrandbits(100), common)
        g, s, t = poly.gcdext(a, b)
        assert g == poly.gcd(a, b) and poly.mod(g, common) == 0
        assert poly.mod(a, g) == poly.mod(b, g) == 0
        assert poly.mul(s, a) ^ poly.mul(t, b) == g
    assert poly.gcdext(0, 0b1011) == (0b1011, 0, 1)
    assert poly.gcdext(0b1011, 0) == (0b1011, 1, 0)


def test_invmod():
    modulus = 0x13  # x^4 + x + 1
    for a in range(1, 16):
        inv = poly.invmod(a, modulus)
        assert poly.mulmod(a, inv, modulus) == 1
    # x and x+1 share a factor with x^2+x, so no inverse exists there
    try:
        poly.invmod(0b10, 0b110)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for a non-unit")


def test_powmod():
    modulus = 0x13
    acc = 1
    for e in range(50):
        assert poly.powmod(2, e, modulus) == acc
        acc = poly.mulmod(acc, 2, modulus)
    assert poly.powmod(2, 15, modulus) == 1  # x generates the 15 nonzero residues


def test_is_irreducible_matches_trial_division():
    for f in range(2, 1 << 9):
        assert poly.is_irreducible(f) == naive_irreducible(f), hex(f)


def test_known_irreducibles():
    for f in (0b111, 0b1011, 0b1101, 0x13, 0x25, 0x43, 0x89, 0x11D):
        assert poly.is_irreducible(f)
    for f in (0, 1, 0b110, 0b101, 0b1111, 0x15):  # 0, 1, x^2+x, (x+1)^2, ...
        assert not poly.is_irreducible(f)

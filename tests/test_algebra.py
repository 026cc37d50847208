"""Field GF(2^w) and ring GF(2)[x]/(M_p) arithmetic."""
import random

import pytest

from sdcode import (
    Element,
    Field,
    Matrix,
    Ring,
    make_field,
    make_ring,
    mp_factorization,
    parse_algebra,
)
from sdcode import _gf2poly as poly
from sdcode.algebra import DEFAULT_FIELD_POLY
from sdcode.errors import (
    AlgebraMismatchError,
    BadWidthError,
    NotAUnitError,
    NotPrimeError,
    ReducibleModulusError,
)


# ---------------------------------------------------------------- fields

def test_default_moduli_cover_2_to_16_and_x_has_full_order():
    for w in range(2, 17):
        f = make_field(w)
        assert poly.degree(DEFAULT_FIELD_POLY[w]) == w
        assert poly.is_irreducible(DEFAULT_FIELD_POLY[w])
        assert f.order_of_alpha() == (1 << w) - 1


def test_field_width_and_modulus_validation():
    with pytest.raises(BadWidthError):
        Field(1)
    with pytest.raises(BadWidthError):
        Field(17)
    with pytest.raises(BadWidthError):
        Field(4, modulus=0x25)  # degree 5 modulus for w=4
    with pytest.raises(ReducibleModulusError):
        Field(4, modulus=0x15)  # x^4+x^2+1 = (x^2+x+1)^2
    with pytest.raises(ReducibleModulusError):
        Field(4, modulus=0x14)


def test_field_mul_table_against_carryless_reference(gf16, ring17):
    # x generates GF(16) mod 0x13, but not mod 0x1f (order 5) nor mod the
    # degree-8 factors of M_17 (order 17): both ways of stepping the
    # tables are checked
    cases = [(gf16.ops, 0x13), (Field(4, modulus=0x1F).ops, 0x1F)]
    cases += [(ops, f) for f, ops in zip(ring17.factorization.factors, ring17.factor_ops)]
    assert {ops.exp[1] == 2 for ops, _ in cases} == {True, False}
    for ops, f in cases:
        for a in range(ops.q):
            for b in range(ops.q):
                assert ops.mul(a, b) == poly.mulmod(a, b, f)


def test_field_inverse_and_units(gf16):
    assert not gf16.is_unit(gf16.zero)
    with pytest.raises(NotAUnitError):
        gf16.inv(gf16.zero)
    for a in range(1, 16):
        e = gf16.element(a)
        assert gf16.is_unit(e)
        assert gf16.mul(e, gf16.inv(e)) == gf16.one


def test_alpha_power_wraps_and_accepts_negative_exponents(gf16):
    assert gf16.alpha_pow(0) == gf16.one
    assert gf16.alpha_pow(15) == gf16.one
    assert gf16.alpha_pow(-1) == gf16.inv(gf16.alpha)
    for k in range(-40, 40):
        assert gf16.alpha_pow(k) == gf16.alpha_pow(k % 15)


def test_nonprimitive_modulus_gives_small_alpha_order():
    # x has order 5 modulo x^4+x^3+x^2+x+1, even though the field is GF(16).
    f = Field(4, modulus=0x1F)
    assert f.order_of_alpha() == 5
    assert f.alpha_pow_bits(4) == 0xF
    assert f.alpha_pow_bits(5) == 1
    # inverses still work: the multiplicative group of the field is intact
    for a in range(1, 16):
        assert f.mul_bits(a, f.inv_bits(a)) == 1


def test_element_algebra_mismatch(gf16, gf256):
    a = gf16.element(3)
    b = gf256.element(3)
    with pytest.raises(AlgebraMismatchError):
        gf16.mul(a, b)
    with pytest.raises(AlgebraMismatchError):
        a + b


def test_element_arithmetic_operators(gf16):
    a = gf16.element(0b0011)
    b = gf16.element(0b0101)
    assert (a + b).bits == 0b0110
    assert (a * b).bits == gf16.mul_bits(0b0011, 0b0101)
    assert bool(a) and not bool(gf16.zero)


# ---------------------------------------------------------------- rings

def test_ring_requires_prime_exponent():
    for p in (1, 4, 9, 15, 21):
        with pytest.raises(NotPrimeError):
            Ring(p)
    for p in (3, 5, 7, 11, 13, 17, 19):
        assert Ring(p).order_of_alpha() == p


def test_ring_alpha_cycle_and_all_ones(ring17):
    # residues are (p-1)-bit; x^(p-1) is the all-ones residue and x^p = 1
    assert ring17.alpha_pow_bits(16) == (1 << 16) - 1
    assert ring17.alpha_pow_bits(17) == 1
    for k in range(16):
        assert ring17.alpha_pow_bits(k) == 1 << k
    for k in range(-60, 60):
        assert ring17.alpha_pow_bits(k) == ring17.alpha_pow_bits(k % 17)


def test_ring_units_and_zero_divisors(ring17, ring7):
    fac = ring7.factorization
    zd = fac.factors[0]  # a proper factor of M_7 is a zero divisor
    assert not ring7.is_unit_bits(zd)
    with pytest.raises(NotAUnitError):
        ring7.inv_bits(zd)
    rng = random.Random(7)
    hits = 0
    for _ in range(400):
        a = rng.getrandbits(16)
        if ring17.is_unit_bits(a):
            hits += 1
            assert ring17.mul_bits(a, ring17.inv_bits(a)) == 1
    assert hits > 300


def test_ring_powers_of_alpha_are_units(ring17, ring7, ring5):
    for ring in (ring17, ring7, ring5):
        for k in range(ring.order_of_alpha()):
            assert ring.is_unit_bits(ring.alpha_pow_bits(k))


def test_mul_is_carryless_mod_mp(ring17):
    rng = random.Random(17)
    m17 = (1 << 17) - 1
    for _ in range(300):
        a = rng.getrandbits(16)
        b = rng.getrandbits(16)
        assert ring17.mul_bits(a, b) == poly.mod(poly.mul(a, b), m17)


# ------------------------------------------------- M_p factorization

def naive_mp_factors(p: int) -> tuple[int, ...]:
    m = (1 << p) - 1
    d = 1
    while pow(2, d, p) != 1:
        d += 1
    found = []
    for g in range(1 << d, 1 << (d + 1)):
        if poly.mod(m, g) == 0 and poly.is_irreducible(g):
            found.append(g)
    return tuple(sorted(found))


def test_mp_factorization_matches_trial_division():
    for p in (3, 5, 7, 11, 13, 17):
        fac = mp_factorization(p)
        assert fac.factors == naive_mp_factors(p)


def test_mp_factorization_self_consistency():
    for p in (3, 5, 7, 11, 13, 17, 19):
        fac = mp_factorization(p)
        assert fac.product() == (1 << p) - 1
        assert fac.factors == tuple(sorted(fac.factors))
        for g in fac.factors:
            assert poly.is_irreducible(g)
            assert poly.degree(g) == fac.factor_degree


def test_known_factorizations():
    assert mp_factorization(5).factors == (0x1F,)
    assert mp_factorization(7).factors == (0xB, 0xD)
    f17 = mp_factorization(17).factors
    assert len(f17) == 2 and all(poly.degree(g) == 8 for g in f17)


def test_crt_round_trip(ring17, ring7):
    for ring in (ring17, ring7):
        rng = random.Random(ring.p)
        nbits = ring.p - 1
        for _ in range(200):
            a = rng.getrandbits(nbits)
            residues = [ring.project_bits(a, k)
                        for k in range(len(ring.factorization.factors))]
            assert ring.crt_bits(residues) == a


# (name, algebra, number of factor views): M_5 and M_37 are irreducible,
# M_7 and M_17 split; M_37's degree-36 factor field has no tables
_VIEW_CASES = [("gf4", lambda: make_field(2), 1), ("gf256", lambda: make_field(8), 1),
               ("ring5", lambda: make_ring(5), 1), ("ring7", lambda: make_ring(7), 2),
               ("ring17", lambda: make_ring(17), 2), ("ring37", lambda: make_ring(37), 1)]


@pytest.mark.parametrize("make,nviews", [c[1:] for c in _VIEW_CASES],
                         ids=[c[0] for c in _VIEW_CASES])
def test_factor_views_and_crt_round_trip(make, nviews):
    alg = make()
    rng = random.Random(alg.descriptor())
    m = Matrix(alg, [[rng.getrandbits(alg.element_bits) for _ in range(6)]
                     for _ in range(5)] + [[0, 1, 2, 3, 0, 1]])
    views = alg.factor_views(m.bits)
    assert len(views) == nviews
    for i in range(m.rows):
        for j in range(m.cols):
            residues = [rows[i][j] for _, rows in views]
            assert all(v < ops.q for (ops, _), v in zip(views, residues))
            assert alg.crt_bits(residues) == m.bits[i][j]


@pytest.mark.parametrize("make", [c[1] for c in _VIEW_CASES],
                         ids=[c[0] for c in _VIEW_CASES])
def test_factor_views_are_fresh_copies(make):
    alg = make()
    m = Matrix(alg, [[1, 2, 3], [3, 0, 1]])
    source = [list(r) for r in m.bits]
    for rows_in in (m.bits, source):
        for _, rows in alg.factor_views(rows_in):
            for row in rows:
                row[0] ^= 1
                row.append(0)
    assert m.bits == ((1, 2, 3), (3, 0, 1))
    assert source == [[1, 2, 3], [3, 0, 1]]


# ---------------------------------------------------- tokens and parsing

def test_element_tokens_round_trip(gf16, ring17):
    for alg in (gf16, ring17):
        seen = set()
        for k in range(alg.order_of_alpha()):
            e = alg.alpha_pow(k)
            tok = alg.element_token(e)
            assert alg.parse_element(tok) == e
            seen.add(tok)
        assert "1" in seen
        assert "a^1" in seen
        assert alg.element_token(alg.zero) == "0"
        assert alg.parse_element("0") == alg.zero


def test_hex_tokens_for_non_powers(ring17):
    # sums of two alpha powers are usually not powers themselves
    e = ring17.add(ring17.alpha_pow(3), ring17.one)
    tok = ring17.element_token(e)
    assert tok.startswith("x:")
    assert ring17.parse_element(tok) == e


def test_parse_element_rejects_garbage(gf16):
    for bad in ("", "a^", "a^x", "2", "x:", "x:zz", "x:10000", "a^-1x"):
        with pytest.raises(ValueError):
            gf16.parse_element(bad)
    # negative exponents are legitimate tokens
    assert gf16.parse_element("a^-1") == gf16.inv(gf16.alpha)


def test_descriptor_round_trip(gf16, gf256, ring17):
    for alg in (gf16, gf256, ring17, Field(4, 0x19)):
        back = parse_algebra(alg.descriptor())
        assert back == alg
        assert back.descriptor() == alg.descriptor()
    assert parse_algebra("field w=4 poly=0x13") == gf16
    assert parse_algebra("ring p=17") == ring17


def test_parse_algebra_rejects_garbage():
    for bad in ("field", "field w=4 poly=0x15", "ring p=15",
                "field w=1 poly=0x3", "ring", "group p=17", ""):
        with pytest.raises((ValueError, BadWidthError,
                            ReducibleModulusError, NotPrimeError)):
            parse_algebra(bad)


def test_make_field_and_make_ring_cache():
    assert make_field(4) is make_field(4)
    assert make_ring(17) is make_ring(17)
    assert make_field(4, 0x19) == Field(4, 0x19)


def test_element_repr_mentions_token(gf16):
    assert "a^4" in repr(gf16.alpha_pow(4)) or "x:" in repr(gf16.alpha_pow(4))

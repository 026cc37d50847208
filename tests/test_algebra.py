"""Field GF(2^w) and ring GF(2)[x]/(M_p) arithmetic."""
import random
from functools import reduce
from operator import getitem, xor

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
from sdcode.algebra import (DEFAULT_FIELD_POLY, _Gf2mOps, bit_bytes, byte_tables, lane_width,
                            read_int)
from sdcode.errors import (
    AlgebraMismatchError,
    BadWidthError,
    NotAUnitError,
    NotPrimeError,
    ReducibleModulusError,
)
from fixtures import Index


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


def test_field_mul_bits_is_its_ops_mul():
    # one frame per product: a field's mul_bits is its ops.mul itself, so
    # it agrees with it everywhere, zeros included (all pairs over GF(2^4)
    # and GF(2^8), zero against every value and 4,000 random pairs over
    # GF(2^16)), and with the carry-less product reduced by the modulus
    rng = random.Random("mul_bits")
    for w in (4, 8, 16):
        f = make_field(w)
        assert f.mul_bits == f.ops.mul and f.mul_bits.__self__ is f.ops
        q = 1 << w
        pairs = ([(a, b) for a in range(q) for b in range(q)] if w < 16 else
                 [(0, b) for b in range(q)] + [(a, 0) for a in range(q)]
                 + [(rng.randrange(q), rng.randrange(q)) for _ in range(4000)])
        assert [f.mul_bits(a, b) for a, b in pairs] == [f.ops.mul(a, b) for a, b in pairs]
        assert all(f.mul_bits(a, b) == poly.mulmod(a, b, f.modulus) for a, b in pairs[::97])


def test_field_inverse_and_units(gf16):
    assert not gf16.is_unit(gf16.zero)
    with pytest.raises(NotAUnitError):
        gf16.inv(gf16.zero)
    with pytest.raises(ZeroDivisionError):
        gf16.ops.inv(0)
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
    with pytest.raises(TypeError):
        gf16.mul(a, 3)
    for bits in (-1, 16):
        with pytest.raises(ValueError):
            gf16.element(bits)
    # an equal algebra built apart takes the element as its own
    assert Field(4).mul(a, Field(4).one) == a


def test_element_bits_go_through_index():
    # floats and strings fail at construction, not later inside mul, and
    # 1.0 or True cannot alias the interned entry for 1
    for alg in (Field(8), make_ring(7)):
        for bad in (1.5, 1.0, "1", None):
            with pytest.raises(TypeError):
                alg.element(bad)
            with pytest.raises(TypeError):
                Element(alg, bad)
        for value, bits in ((True, 1), (False, 0), (Index(5), 5)):
            for e in (alg.element(value), Element(alg, value)):
                assert type(e.bits) is int and e.bits == bits
                assert e == alg.element(bits) and hash(e) == hash(alg.element(bits))
        for bits, shown in ((-1, "-0x1"), (1 << alg.element_bits, hex(1 << alg.element_bits))):
            with pytest.raises(ValueError, match=f"bits {shown} out of range"):
                alg.element(bits)


def test_field_elements_are_interned_and_rejects_leave_no_entry():
    f = Field(8)
    for bad in (1.5, 1.0, "1", -1, 256, Index(256), Index(-3)):
        with pytest.raises((TypeError, ValueError)):
            f.element(bad)
    assert f._elements == {}
    one = f.element(1)
    assert f.element(True) is one and f.element(Index(1)) is one
    assert list(f._elements) == [1] and type(next(iter(f._elements))) is int
    # arithmetic still builds Elements, equal to the interned ones
    assert f.mul(one, one) == one and f.mul(one, one) is not one
    ring = make_ring(7)
    assert ring.element(3) == ring.element(3) and ring.element(3) is not ring.element(3)


def test_gf65536_intern_table_is_bounded():
    import tracemalloc

    f = Field(16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            for bits in range(1 << 16):
                f.element(bits)
        for bad in (1 << 16, -1, 0.5):
            with pytest.raises((TypeError, ValueError)):
                f.element(bad)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(f._elements) == 1 << 16
    assert all(e.bits == bits for bits, e in f._elements.items())
    # 7.5 MiB with CPython 3.11: the dict, 2^16 Elements and their ints
    assert size < 16 << 20


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


def test_odd_prime_check_matches_sieve():
    from sdcode.algebra import _check_odd_prime

    limit = 20000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    for n in range(-5, limit):
        odd_prime = n > 2 and sieve[n]
        try:
            _check_odd_prime(n)
            accepted = True
        except NotPrimeError:
            accepted = False
        assert accepted == odd_prime, n


@pytest.mark.parametrize("p", [1, 2, 9, 561, 1105])
def test_non_odd_primes_rejected_by_ring_and_factorization(p):
    with pytest.raises(NotPrimeError):
        make_ring(p)
    with pytest.raises(NotPrimeError):
        mp_factorization(p)


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


@pytest.mark.parametrize("p", [5, 7, 17, 29, 31, 41, 101, 127])
def test_factor_views_project_through_the_byte_tables_as_project_bits(p):
    # M_p(x) splits into 2, 2, 6, 2 and 18 factors of degree 3, 8, 5, 20
    # and 7 for p = 7, 17, 31, 41, 127 (lanes of 8, 8, 8, 32, 8 bits); it
    # is irreducible for p = 5, 29, 101, which need no tables
    ring = make_ring(p)
    rng = random.Random(f"projection/{p}")
    values = [0, ring.all_ones, 1 << (p - 2)] + [rng.getrandbits(p - 1) for _ in range(300)]
    views = ring.factor_views([values, values[::-1], []])
    assert [ops for ops, _ in views] == ring.factor_ops
    for k, (_, (row, back, empty)) in enumerate(views):
        assert row == [ring.project_bits(v, k) for v in values]
        assert back == row[::-1] and empty == []
    if len(ring.factor_ops) == 1:       # residues are elements: no tables built
        assert "_projection_tables" not in vars(ring)
    else:
        assert "_projection_tables" in vars(ring)
        tables = ring._projection_tables
        assert len(tables) == (p + 6) // 8
        lane = lane_width(ring.factor_ops[0].degree)
        for k, table in enumerate(tables):
            for b in range(len(table)):
                residues = [ring.project_bits(b << 8 * k, f) for f in range(len(views))]
                assert table[b] == sum(v << f * lane for f, v in enumerate(residues))


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


def test_every_element_token_round_trips():
    # alpha has order 5 under modulus 0x1F, so 10 of GF(16)'s 15 nonzero
    # elements are not powers of alpha; in the ring p=7 the all-ones
    # residue is alpha^6 and 57 of 63 nonzero residues are not powers
    for alg, powers in ((make_field(4, 0x1F), 5), (make_ring(7), 7)):
        toks = [alg.token(v) for v in range(1 << alg.element_bits)]
        assert [alg.read_token(t) for t in toks] == list(range(1 << alg.element_bits))
        assert toks[:2] == ["0", "1"]
        assert sum(t.startswith("a^") for t in toks) == powers - 1
        assert sum(t.startswith("x:") for t in toks) == len(toks) - 1 - powers
        for v, t in enumerate(toks):
            assert alg.element_token(alg.element(v)) == t
            assert alg.parse_element(t) == alg.element(v)
    ring7 = make_ring(7)
    assert ring7.token(ring7.all_ones) == "a^6"
    assert ring7.read_token("a^6") == ring7.all_ones


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


def test_numbers_are_ascii_digits_only(gf16):
    assert (read_int("017"), read_int("0x1D", 16), read_int("1d", 16)) == (17, 29, 29)
    for bad in ("", "\u0662", "1_0", "+1", "-1", " 1", "1 ", "0x1", "1.0"):
        with pytest.raises(ValueError):
            read_int(bad)
    for bad in ("", "0x", "0x1_d", "0x0x5", "g", "-0x1", "\uff11"):
        with pytest.raises(ValueError):
            read_int(bad, 16)
    # int() would read each of these
    for bad in ("a^0_1", "a^\u0663", "a^+1", "a^-", "a^--1", "x:1_0", "x:0x0x5"):
        with pytest.raises(ValueError):
            gf16.parse_element(bad)
    for bad in ("field w=4 poly=0x1_3", "field w=4 poly=0x1_d", "field w=\u0664 poly=0x13",
                "ring p=1_7", "ring p=+17"):
        with pytest.raises(ValueError):
            parse_algebra(bad)


def test_ring_mul_fold_matches_mulmod():
    rng = random.Random(127)
    primes = [p for p in range(3, 128, 2) if all(p % d for d in range(3, p, 2))]
    assert len(primes) == 30 and primes[-1] == 127
    for p in primes:
        ring = make_ring(p)
        top = ring.element_bits
        operands = [0, 1, 2, ring.all_ones, 1 << (top - 1)]
        operands += [rng.getrandbits(top) for _ in range(12)]
        for a in operands:
            for b in operands:
                assert ring.mul_bits(a, b) == poly.mulmod(a, b, ring.modulus)


@pytest.mark.parametrize("p", [7, 17, 31, 37, 41, 101, 127])
def test_reduce_matches_mod_on_every_factor(p):
    # reduce's domain is a product of two residues of a tableless factor
    # field: M_37 and M_101 are irreducible (degrees 36 and 100), M_41
    # splits into two factors of degree 20; the factors of degree 3, 8, 5
    # and 7 for p = 7, 17, 31 and 127 multiply by log tables, with no fold
    ring = make_ring(p)
    rng = random.Random(p)
    for f, ops in zip(ring.factorization.factors, ring.factor_ops):
        d = ops.degree
        if ops.has_tables:
            assert ops._fold is None
            continue
        assert len(ops._fold) == (d + 6) // 8
        # the pairs include (x^(d-1))^2, the top product bit, and (2^d-1)^2
        operands = [0, 1, 2, ops.qm1, 1 << (d - 1)] + [rng.getrandbits(d) for _ in range(30)]
        for a in operands:
            for b in operands:
                v = poly.mul(a, b)
                assert ops.reduce(v) == poly.mod(v, f), (p, hex(f), a, b)
        assert ops.reduce(0) == 0 and ops.reduce(f) == 0


@pytest.mark.parametrize("p", [37, 41, 101])
def test_reduce_rejects_more_than_a_product_of_two_residues(p):
    # the fold tables cover x^d .. x^(2d-2); a longer input used to come
    # back as a wrong residue (1 << 60 gave 0 on a degree-20 factor of
    # M_41) or raise IndexError, by how many bytes it had above d
    for f, ops in zip(make_ring(p).factorization.factors, make_ring(p).factor_ops):
        d = ops.degree
        widest = (1 << (2 * d - 1)) - 1         # every bit a product can have
        assert ops.reduce(widest) == poly.mod(widest, f)
        for v in (1 << (2 * d - 1), 1 << 2 * d, 1 << 3 * d, (1 << 4 * d) - 1):
            with pytest.raises(ValueError, match="product of two residues"):
                ops.reduce(v)
    if p == 41:
        with pytest.raises(ValueError):
            make_ring(41).factor_ops[0].reduce(1 << 60)


@pytest.mark.parametrize("n", [1, 5, 8, 13, 30, 100])
def test_byte_tables_match_the_xor_of_images(n):
    rng = random.Random(f"byte_tables/{n}")
    images = [rng.getrandbits(40) for _ in range(n)]
    tables = byte_tables(images)
    assert [len(t) for t in tables] == [1 << min(8, n - 8 * t) for t in range(len(tables))]
    for t, table in enumerate(tables):
        chunk = images[8 * t:8 * t + 8]
        for b, v in enumerate(table):
            assert v == reduce(xor, (e for i, e in enumerate(chunk) if b >> i & 1), 0)
    for x in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(50)]:
        want = reduce(xor, (e for i, e in enumerate(images) if x >> i & 1), 0)
        got = reduce(xor, map(getitem, tables, x.to_bytes(len(tables), "little")), 0)
        assert got == want
    if n % 8:                           # the partial last table is not zero-padded
        with pytest.raises(IndexError):
            tables[-1][1 << n % 8]


def _tableless_ops():
    ops = [make_ring(41).factor_ops[1], make_ring(101).factor_ops[0], make_ring(37).factor_ops[0],
           make_ring(269).factor_ops[0]]
    assert [o.degree for o in ops] == [20, 100, 36, 268] and not any(o.has_tables for o in ops)
    return ops


def test_tableless_mul_and_inv_match_poly():
    rng = random.Random(41)
    for ops in _tableless_ops():
        f, d = ops.modulus, ops.degree
        operands = [0, 1, 2, ops.qm1, 1 << (d - 1)] + [rng.getrandbits(d) for _ in range(20)]
        for a in operands:
            for b in operands:
                assert ops.mul(a, b) == poly.mulmod(a, b, f)
            if a:
                assert ops.inv(a) == poly.invmod(a, f)


def _unspread(ops, v):
    """The residue of a spread int: the low bit of each slot."""
    return sum((v >> k * ops._slot & 1) << k for k in range(ops.degree))


@pytest.mark.parametrize("modulus, slot, reduction", [
    (make_ring(41).factor_ops[1].modulus, 8, "barrett"),
    (0x100001B, 8, "barrett"),      # x^24+x^4+x^3+x+1: floor(x^48/f) fills a fourth byte
    ((1 << 37) - 1, 8, "fold"), ((1 << 101) - 1, 8, "fold"),
    ((1 << 269) - 1, 16, "fold"), (1 << 281 | 1 << 93 | 1, 16, "barrett")],
    ids=["ring41", "deg24", "ring37", "ring101", "ring269", "deg281"])
def test_spread_products_match_mulmod(modulus, slot, reduction):
    # a slot counts up to d pairs of bits: one byte up to d = 255, two
    # above; M_p(x) folds at x^p, any other f takes Barrett reduction
    assert poly.is_irreducible(modulus)
    ops = _Gf2mOps(modulus)
    d = ops.degree
    assert (ops._slot, ops._spread_mul.__name__) == (slot, f"_mul_{reduction}")
    rng = random.Random(modulus)
    operands = [0, 1, 2, ops.qm1, 1 << (d - 1)] + [rng.getrandbits(d) for _ in range(15)]
    spread = ops._spread(operands)
    assert [_unspread(ops, v) for v in spread] == operands == [*map(ops._unspread, spread)]
    assert all(v >> d * slot == 0 and v & ~ops._ones == 0 for v in spread)
    for a, sa in zip(operands, spread):
        for b, sb in zip(operands, spread):
            assert ops._spread_mul(sa, sb) == ops._spread([poly.mulmod(a, b, modulus)])[0]
            assert ops._unspread(ops._spread_mul(sa, sb)) == poly.mulmod(a, b, modulus)


@pytest.mark.parametrize("p", [7, 17, 31, 41, 101, 127])
def test_ring_ops_multiply_in_the_ring(p):
    # an irreducible M_p(x) (p = 101) keeps its one factor field; a split
    # one gets tableless arithmetic mod M_p(x) itself, whose products, on
    # units and zero divisors alike, are the ring's
    ring = make_ring(p)
    ops = ring.ops
    if len(ring.factor_ops) == 1:
        assert ops is ring.factor_ops[0]
    assert (ops.modulus, ops.has_tables) == (ring.modulus, False) and ops is ring.ops
    rng = random.Random(f"ring-ops/{p}")
    operands = [0, 1, ring.all_ones]
    operands += [f for f in ring.factorization.factors[:2] if f != ring.modulus]
    operands += [rng.getrandbits(p - 1) for _ in range(10)]
    spread = ops._spread(operands)
    for a, sa in zip(operands, spread):
        for b, sb in zip(operands, spread):
            assert ops._spread_mul(sa, sb) == ops._spread([ring.mul_bits(a, b)])[0]
            assert ops._unspread(ops._spread_mul(sa, sb)) == ring.mul_bits(a, b)
            assert ops.mul(a, b) == ring.mul_bits(a, b)


@pytest.mark.parametrize("p", [7, 17])
def test_a_reducible_modulus_gets_no_tables(p):
    # M_7(x) and M_17(x) split and have degree at most 16: log tables
    # built on either would give wrong products, so none are
    ring = make_ring(p)
    ops = _Gf2mOps(ring.modulus)
    assert not ops.has_tables and ops.exp is None
    rng = random.Random(f"reducible/{p}")
    operands = [0, 1, ring.all_ones, *ring.factorization.factors]
    operands += [rng.getrandbits(p - 1) for _ in range(20)]
    for a in operands:
        for b in operands:
            assert ops.mul(a, b) == ring.mul_bits(a, b)


def test_bit_bytes_match_a_join_of_each_bytes_bits():
    # the join bit_bytes replaced, on every byte value, then on random
    # 1-2 KB buffers
    def join(data):
        return b"".join(bytes(v >> k & 1 for k in range(8)) for v in data)

    rng = random.Random("bit_bytes")
    buffers = [bytes(range(256)), b""] + [rng.randbytes(rng.randint(1024, 2048)) for _ in range(4)]
    for data in buffers:
        assert bit_bytes(data) == join(data)


def test_ratios_key_each_column_by_its_ratio(gf16):
    rng = random.Random(16)
    # every (x, y) of GF(16), then each tableless field
    pairs = [(x, y) for x in range(16) for y in range(16)]
    cases = [(gf16.ops, [x for x, _ in pairs], [y for _, y in pairs])]
    for ops in _tableless_ops():
        alphabet = [0, 1] + [rng.getrandbits(ops.degree) for _ in range(4)]
        xs = rng.choices(alphabet, k=60) + [0, 0, 5, 5]
        ys = rng.choices(alphabet, k=60) + [0, 7, 0, 7]
        # equal ratios from unequal columns: (x, y) and (cx, cy)
        c = rng.getrandbits(ops.degree) | 1
        xs += [ops.mul(c, x) for x in xs[:8]]
        ys += [ops.mul(c, y) for y in ys[:8]]
        cases.append((ops, xs, ys))
        assert ops.ratios([0] * 3, [0, 1, 5]) == [-1] * 3
    for ops, xs, ys in cases:
        keys = ops.ratios(xs, ys)
        want = [ops.mul(y, ops.inv(x)) if x else None for x, y in zip(xs, ys)]
        assert [k == -1 for k in keys] == [x == 0 for x in xs]
        # equal keys exactly when equal ratios; ratio 0 keeps its own key
        for i in range(len(xs)):
            for j in range(len(xs)):
                if xs[i] and xs[j]:
                    assert (keys[i] == keys[j]) == (want[i] == want[j])
        zero_keys = {k for k, x, y in zip(keys, xs, ys) if x and not y}
        assert len(zero_keys) == 1 and -1 not in zero_keys


def test_descriptor_round_trip(gf16, gf256, ring17):
    for alg in (gf16, gf256, ring17, Field(4, 0x19)):
        back = parse_algebra(alg.descriptor())
        assert back == alg
        assert back.descriptor() == alg.descriptor()
    assert parse_algebra("field w=4 poly=0x13") == gf16
    assert parse_algebra("ring p=17") == ring17


def test_parse_algebra_rejects_garbage():
    for bad in ("field", "field w=4 poly=0x15", "ring p=15",
                "field w=1 poly=0x3", "ring", "group p=17", "",
                "ring p=5 p=7", "field w=4 poly=0x13 poly=0x19"):
        with pytest.raises((ValueError, BadWidthError,
                            ReducibleModulusError, NotPrimeError)):
            parse_algebra(bad)


def test_make_field_and_make_ring_cache():
    assert make_field(4) is make_field(4)
    assert make_ring(17) is make_ring(17)
    assert make_field(4, 0x19) == Field(4, 0x19)


def test_element_repr_mentions_token(gf16):
    assert "a^4" in repr(gf16.alpha_pow(4)) or "x:" in repr(gf16.alpha_pow(4))

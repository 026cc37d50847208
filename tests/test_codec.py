"""Systematic encoding, erasure decoding, and the stripe text format."""
import dataclasses
import io
import json
import random
from itertools import product

import pytest

from sdcode import (
    ErasurePattern,
    Field,
    Stripe,
    build_h1,
    build_h2,
    build_h_generic,
    decode,
    default_parity_pattern,
    encode,
    enumerate_patterns,
    erase,
    make_field,
    make_ring,
    read_matrix,
    read_stripe,
    write_matrix,
    write_stripe,
)
from sdcode import codec, linalg
from sdcode.algebra import Element
from sdcode.codec import STRIPE_MAGIC, data_columns
from sdcode.construct import CodeSpec, ParityCheckMatrix
from sdcode.linalg import Matrix, eliminate, mul_vector, packed_map
from sdcode.sdcheck import erased_columns
from sdcode.errors import (
    AlgebraMismatchError,
    InconsistentSyndromeError,
    LengthMismatchError,
    ParseError,
    PatternInvalidError,
    ShapeMismatchError,
    SingularParitySupportError,
    TooManyParitySectorsError,
    UndecodablePatternError,
)


def random_data(alg, k, rng):
    return [alg.element(rng.getrandbits(alg.element_bits)) for _ in range(k)]


# ---------------------------------------------------- parity placement

def test_default_parity_pattern_layout(gf16):
    spec = build_h1(3, 5, gf16).spec
    p = default_parity_pattern(spec)
    assert p.disks == (4,)
    assert p.sectors == ((2, 2), (2, 3))
    spec2 = build_h2(3, 5, gf16).spec
    p2 = default_parity_pattern(spec2)
    assert p2.disks == (3, 4)
    assert p2.sectors == ((2, 1), (2, 2))


def test_default_parity_pattern_wraps_rows(gf16):
    from sdcode import CodeSpec
    spec = CodeSpec(n=2, m=1, s=3, r=4, algebra=gf16, family="generic")
    p = default_parity_pattern(spec)
    assert p.sectors == ((1, 0), (2, 0), (3, 0))
    with pytest.raises(TooManyParitySectorsError):
        default_parity_pattern(
            CodeSpec(n=2, m=1, s=5, r=4, algebra=gf16, family="generic"))


def test_data_columns_complement_parity(gf16):
    spec = build_h1(3, 5, gf16).spec
    dcols = data_columns(spec)
    assert len(dcols) == 15 - (3 + 2)
    assert dcols == sorted(dcols)
    from sdcode.sdcheck import erased_columns
    assert sorted(dcols + erased_columns(default_parity_pattern(spec), spec)) \
        == list(range(15))


# ---------------------------------------------------- encode

def test_encode_zero_syndrome_and_systematic_fill(gf16):
    hm = build_h1(3, 5, gf16)
    rng = random.Random(42)
    data = random_data(gf16, 10, rng)
    st = encode(hm, data)
    vec = [st.symbols[i][j] for i in range(hm.spec.r) for j in range(hm.spec.n)]
    assert not any(mul_vector(hm.matrix, vec))
    flat = st.vec_bits()
    for c, e in zip(data_columns(hm.spec), data):
        assert flat[c] == e.bits
    assert st.missing_positions() == []


def test_encode_length_check(gf16):
    hm = build_h1(3, 5, gf16)
    with pytest.raises(LengthMismatchError):
        encode(hm, random_data(gf16, 9, random.Random(0)))
    with pytest.raises(LengthMismatchError):
        encode(hm, random_data(gf16, 11, random.Random(0)))
    # a hand-made H whose parity slot (0, 4) has an all-zero column: the
    # parity support is not decodable
    rows = [list(r) for r in hm.matrix.bits]
    for row in rows:
        row[4] = 0
    singular = ParityCheckMatrix(hm.spec, linalg.Matrix(gf16, rows))
    with pytest.raises(SingularParitySupportError):
        encode(singular, random_data(gf16, 10, random.Random(0)))


def test_encode_is_linear(gf16):
    hm = build_h2(3, 5, gf16)
    rng = random.Random(7)
    k = len(data_columns(hm.spec))
    a = random_data(gf16, k, rng)
    b = random_data(gf16, k, rng)
    amb = [gf16.add(x, y) for x, y in zip(a, b)]
    va, vb, vab = (encode(hm, d).vec_bits() for d in (a, b, amb))
    assert [x ^ y for x, y in zip(va, vb)] == vab


def test_encode_zero_data_gives_zero_stripe(gf16):
    hm = build_h1(3, 5, gf16)
    st = encode(hm, [gf16.zero] * 10)
    assert st.vec_bits() == [0] * 15


# ---------------------------------------------------- decode

def test_round_trip_every_pattern_m1(gf16):
    hm = build_h1(3, 5, gf16)
    rng = random.Random(2024)
    data = random_data(gf16, 10, rng)
    st = encode(hm, data)
    for p in enumerate_patterns(hm.spec):
        damaged = erase(st, p)
        assert len(damaged.missing_positions()) == 5
        out = decode(hm, damaged)
        assert out.vec_bits() == st.vec_bits()
        assert out.missing_positions() == []


def test_round_trip_every_pattern_m2(gf16):
    hm = build_h2(3, 5, gf16)
    rng = random.Random(2025)
    st = encode(hm, random_data(gf16, len(data_columns(hm.spec)), rng))
    for p in enumerate_patterns(hm.spec):
        out = decode(hm, erase(st, p))
        assert out.vec_bits() == st.vec_bits()


def test_round_trip_every_pattern_ring(ring17):
    hm = build_h1(4, 4, ring17)
    rng = random.Random(17)
    st = encode(hm, random_data(ring17, len(data_columns(hm.spec)), rng))
    for p in enumerate_patterns(hm.spec):
        out = decode(hm, erase(st, p))
        assert out.vec_bits() == st.vec_bits()


def test_partial_patterns_also_decode(gf16):
    # fewer failures than the maximum are still recoverable
    hm = build_h1(3, 5, gf16)
    st = encode(hm, random_data(gf16, 10, random.Random(3)))
    for p in (ErasurePattern(), ErasurePattern((2,), ()),
              ErasurePattern((), ((0, 0),)), ErasurePattern((), ((1, 2), (2, 4)))):
        assert decode(hm, erase(st, p)).vec_bits() == st.vec_bits()


@pytest.mark.parametrize("p", [
    ErasurePattern((7,)),                     # disk outside [0, 5)
    ErasurePattern((0, 1)),                   # more disks than m = 1
    ErasurePattern((), ((3, 0),)),            # row outside [0, 3)
    ErasurePattern((2,), ((1, 2),)),          # sector inside the failed disk
])
def test_erase_rejects_invalid_patterns(gf16, p):
    st = encode(build_h1(3, 5, gf16), [gf16.one] * 10)
    with pytest.raises(PatternInvalidError):
        erase(st, p)


def _flips(alg):
    """The lowest and the highest bit of a symbol: with w > 8 they sit in
    the first and the last table byte of a packed map."""
    return alg.one, alg.element(1 << (alg.element_bits - 1))


def test_decode_complete_stripe_checks_syndrome(gf16):
    for hm in (build_h1(3, 5, gf16), build_h1(3, 5, make_field(16)),
               build_h1(4, 4, make_ring(31))):
        alg = hm.spec.algebra
        st = encode(hm, random_data(alg, len(data_columns(hm.spec)), random.Random(5)))
        assert decode(hm, st).vec_bits() == st.vec_bits()
        for flip in _flips(alg):
            bad = erase(st, ErasurePattern())
            bad.symbols[0][0] = alg.add(bad.symbols[0][0], flip)  # silent corruption
            with pytest.raises(InconsistentSyndromeError):
                decode(hm, bad)


def test_corruption_detected_on_cache_miss_and_hit(gf16, ring17):
    for hm in (build_h2(3, 5, gf16), build_h1(4, 4, ring17), build_h2(3, 5, make_field(16)),
               build_h1(4, 4, make_ring(31))):
        alg = hm.spec.algebra
        rng = random.Random(str(alg))
        pattern = ErasurePattern((1,), ((0, 0),))   # redundancy left: s - 1 rows
        linalg._solve_plan.cache_clear()
        for _ in range(3):
            st = encode(hm, random_data(alg, len(data_columns(hm.spec)), rng))
            damaged = erase(st, pattern)
            assert decode(hm, damaged).vec_bits() == st.vec_bits()
            for flip in _flips(alg):
                bad = erase(st, pattern)
                bad.symbols[2][3] = alg.add(bad.symbols[2][3], flip)
                with pytest.raises(InconsistentSyndromeError):
                    decode(hm, bad)
        assert linalg._solve_plan.cache_info().misses == 2    # parity support, pattern


def test_encode_and_decode_reuse_the_callers_elements(gf16):
    hm = build_h1(3, 5, gf16)
    data = random_data(gf16, 10, random.Random(14))
    kept = list(data)
    st = encode(hm, data)
    flat = [e for row in st.symbols for e in row]
    assert all(flat[c] is e for c, e in zip(data_columns(hm.spec), data))
    st.symbols[0][0] = gf16.add(st.symbols[0][0], gf16.one)
    assert data == kept
    damaged = erase(st, ErasurePattern((1,), ((0, 0), (2, 3))))
    before = damaged.vec_bits()
    out = decode(hm, damaged)
    for i, j in product(range(3), range(5)):
        assert (out.symbols[i][j] is damaged.symbols[i][j]) == damaged.present[i][j]
    out.symbols[1][2] = gf16.add(out.symbols[1][2], gf16.one)
    out.present[1][2] = False
    assert damaged.vec_bits() == before and damaged.present[1][2]


def test_encode_checks_every_data_symbol(gf16, gf256):
    hm = build_h1(3, 5, gf16)
    data = random_data(gf16, 10, random.Random(16))
    for bad, error in ((3, TypeError), (None, TypeError),
                       (gf256.element(3), AlgebraMismatchError),
                       (make_ring(5).element(3), AlgebraMismatchError)):
        with pytest.raises(error):
            encode(hm, data[:4] + [bad] + data[5:])
    # the first bad symbol decides the error, and the length comes first
    with pytest.raises(TypeError):
        encode(hm, [3, gf256.one] + data[2:])
    with pytest.raises(AlgebraMismatchError):
        encode(hm, [gf256.one, 3] + data[2:])
    with pytest.raises(LengthMismatchError):
        encode(hm, [3] + data)
    # an equal Field built apart is the same algebra
    twin = Field(4)
    assert twin is not gf16 and twin == gf16
    assert encode(hm, [twin.element(e.bits) for e in data]) == encode(hm, data)


def test_decode_reads_no_missing_slot(gf16, ring17):
    pattern = ErasurePattern((1,), ((0, 0), (2, 3)))
    for hm in (build_h1(3, 5, gf16), build_h1(3, 5, ring17)):
        alg = hm.spec.algebra
        st = encode(hm, random_data(alg, len(data_columns(hm.spec)), random.Random(17)))
        damaged = erase(st, pattern)
        for i, j in damaged.missing_positions():
            damaged.symbols[i][j] = None
        assert decode(hm, damaged) == st
        damaged.symbols[0][2] = 9       # a present slot is still checked
        with pytest.raises(TypeError):
            decode(hm, damaged)
        damaged.symbols[0][2] = Field(4, 0x19).element(9)
        with pytest.raises(AlgebraMismatchError):
            decode(hm, damaged)


def test_solved_symbols_are_interned_or_plain_in_range(gf16, ring17):
    pattern = ErasurePattern((1,), ((0, 0), (2, 3)))
    for hm in (build_h1(3, 5, gf16), build_h1(3, 5, make_field(16)), build_h1(3, 5, ring17)):
        alg = hm.spec.algebra
        st = encode(hm, random_data(alg, len(data_columns(hm.spec)), random.Random(18)))
        out = decode(hm, erase(st, pattern))
        solved = [flat[c] for flat in ([e for row in st.symbols for e in row],
                                       [e for row in out.symbols for e in row])
                  for c in sorted({*erased_columns(default_parity_pattern(hm.spec), hm.spec),
                                   *erased_columns(pattern, hm.spec)})]
        for e in solved:
            assert type(e) is Element and e.algebra is alg and type(e.bits) is int
            assert 0 <= e.bits < 1 << alg.element_bits and e == alg.element(e.bits)
            assert hash(e) == hash(alg.element(e.bits))
            if isinstance(alg, Field):
                assert e is alg.element(e.bits)


@pytest.mark.parametrize("alg", [make_field(4), make_field(8), make_field(16), make_ring(5),
                                 make_ring(7), make_ring(17), make_ring(31)], ids=str)
def test_decoded_stripes_equal_the_originals(alg):
    hm = build_h2(*((2, 4) if alg.order_of_alpha() >= 8 else (1, 5)), alg)
    rng = random.Random(f"round trip {alg}")
    for p in enumerate_patterns(hm.spec):
        st = encode(hm, random_data(alg, len(data_columns(hm.spec)), rng))
        out = decode(hm, erase(st, p))
        assert out == st and out.vec_bits() == st.vec_bits()


def _round_trips(fresh: bool) -> list[list[int]]:
    """L = 2 encode/decode calls per pattern of a field and a ring code,
    as flat vectors (decoded, then encoded); with fresh set, each
    pattern's first call starts from empty caches."""
    out = []
    for hm in (build_h1(3, 5, Field(4)), build_h1(3, 4, make_ring(17))):
        alg = hm.spec.algebra
        rng = random.Random(str(alg))
        for p in enumerate_patterns(hm.spec):
            if fresh:
                linalg._solve_plan.cache_clear()
            for _ in range(2):
                st = encode(hm, random_data(alg, len(data_columns(hm.spec)), rng))
                out.append(decode(hm, erase(st, p)).vec_bits() + st.vec_bits())
    return out


def test_cached_round_trips_match_a_fresh_process(python):
    proc = python(__file__)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _round_trips(fresh=False)


def test_one_solve_per_encode_and_decode(monkeypatch, gf16, ring17):
    # sdbench's traced run times the solve by patching codec.solve_bits:
    # every encode and decode must call it once through that name, on a
    # cache miss and on a hit
    for hm in (build_h2(3, 5, gf16), build_h1(4, 4, ring17)):
        alg = hm.spec.algebra
        data = random_data(alg, len(data_columns(hm.spec)), random.Random(str(alg)))
        pattern = ErasurePattern((1,), ((0, 0),))
        want = encode(hm, data)
        calls = []

        def counting(*args):
            calls.append(args)
            return linalg.solve_bits(*args)

        monkeypatch.setattr(codec, "solve_bits", counting)
        linalg._solve_plan.cache_clear()
        for hits in (0, 1):
            assert encode(hm, data) == want and len(calls) == 2 * hits + 1
            assert decode(hm, erase(want, pattern)) == want and len(calls) == 2 * hits + 2
            assert linalg._solve_plan.cache_info().hits == 2 * hits
        monkeypatch.undo()


def test_equal_specs_hash_equal_and_share_the_cached_layout(monkeypatch, gf16):
    # CodeSpec keeps its hash once computed, outside comparison and repr:
    # an equal spec built apart hashes equal and finds the cached layout
    a = build_h2(3, 5, gf16).spec
    b = CodeSpec(n=5, m=2, s=2, r=3, algebra=make_field(4), family="construction2")
    calls = []
    field_hash = Field.__hash__
    monkeypatch.setattr(Field, "__hash__", lambda f: calls.append(f) or field_hash(f))
    assert hash(b) == hash(b) and len(calls) == 1          # the algebra is hashed once
    monkeypatch.undo()
    assert a == b and a is not b and "_hash" not in repr(a)
    assert hash(a) == hash(b) == hash(dataclasses.replace(b))
    assert hash(a) == hash((5, 2, 2, 3, gf16, "construction2"))
    assert dataclasses.replace(a, r=4) != a
    codec._parity_layout.cache_clear()
    assert data_columns(a) == data_columns(b)
    info = codec._parity_layout.cache_info()
    assert (info.hits, info.misses) == (1, 1)


# --------------------------------------------- the two-step solve, as oracle

def _factor_oracle(a: Matrix):
    """The left inverse L of A stacked over A_t·L + e_t for each row t
    that some factor field did not pivot on, as rows, or None when A's
    columns are dependent: the factorisation the solve cached per
    coefficient Matrix before plans were cached per (H, missing set)."""
    n, alg = a.cols, a.algebra
    lefts, unpivoted = [], set()
    for ops, view in alg.factor_views(a.bits):
        for i, row in enumerate(view):
            row += [0] * a.rows
            row[n + i] = 1
        pivots = eliminate(ops, view, range(n))
        if len(pivots) < n:
            return None
        eliminate(ops, [view[p] for p in reversed(pivots)], reversed(range(n)))
        lefts.append([view[p][n:] for p in pivots])
        unpivoted.update(set(range(a.rows)).difference(pivots))
    left = [[alg.crt_bits(col) for col in zip(*rows)] for rows in zip(*lefts)]
    times_left = packed_map(Matrix(alg, [[row[j] for row in left] for j in range(a.rows)]))
    residuals = []
    for t in sorted(unpivoted):
        res = times_left(a.bits[t])
        res[t] ^= 1
        residuals.append(res)
    return left + residuals


def two_step_solve(h: Matrix, vec, cols):
    """The codec's solve in two steps: the coefficient matrix H at cols
    and the syndrome of vec held at 0 there, from H's packed map; then
    the factored map, x = L·syndrome above the residual checks."""
    stack = _factor_oracle(Matrix(h.algebra, [[row[c] for c in cols] for row in h.bits]))
    if stack is None:
        return "deficient", None
    syndrome = packed_map(h)([0 if c in cols else v for c, v in enumerate(vec)])
    out = packed_map(Matrix(h.algebra, stack))(syndrome)
    if any(out[len(cols):]):
        return "inconsistent", None
    return "ok", out[:len(cols)]


def _oracle_codes(alg):
    """Small construction codes over alg, and a code with random global
    rows, zero divisors over a ring: some patterns are deficient, and the
    factor fields pivot on different rows."""
    small = {5: (1, 5), 7: (2, 3)}.get(alg.order_of_alpha())    # r n <= O(alpha)
    codes = [build_h1(*small, alg)] if small else [build_h1(3, 4, alg), build_h2(2, 4, alg)]
    rng = random.Random(f"oracle:{alg}")
    views = getattr(alg, "factor_ops", ())

    def entry():
        """Nonzero; over a split ring, half the time zero in one factor field."""
        res = [rng.randrange(ops.q) for ops in views]
        if len(res) > 1 and rng.random() < 0.5:
            res[rng.randrange(len(res))] = 0
            return alg.element(alg.crt_bits(res)) if any(res) else alg.one
        return alg.element(1 + rng.randrange((1 << alg.element_bits) - 1))

    while True:
        rows = [[entry() for _ in range(6)] for _ in range(2)]
        hm = build_h_generic(3, 1, 2, 2, rows, alg)
        try:
            encode(hm, random_data(alg, len(data_columns(hm.spec)), rng))
        except SingularParitySupportError:
            continue
        return codes + [hm]


@pytest.mark.parametrize("alg", [make_field(4), make_field(8), make_field(16), make_ring(5),
                                 make_ring(7), make_ring(17), make_ring(31)], ids=str)
def test_one_plan_matches_the_two_step_oracle(alg):
    seen = set()
    for hm in _oracle_codes(alg):
        h, spec = hm.matrix, hm.spec
        rng = random.Random(f"{alg}:{spec}")
        sets = [tuple(erased_columns(p, spec)) for p in enumerate_patterns(spec)]
        for size in range(h.rows + 2):      # random sets, up to beyond the check count
            sets += [tuple(sorted(rng.sample(range(h.cols), size))) for _ in range(3)]
        for i, cols in enumerate(sets):
            clean = encode(hm, random_data(alg, len(data_columns(spec)), rng)).vec_bits()
            corrupt = list(clean)
            present = [c for c in range(h.cols) if c not in cols]
            if present:
                corrupt[rng.choice(present)] ^= 1 + rng.randrange((1 << alg.element_bits) - 1)
            linalg._solve_plan.cache_clear()
            for vec in ((clean, corrupt) if i % 2 else (corrupt, clean)):   # a miss, then a hit
                want = two_step_solve(h, vec, cols)
                assert linalg.solve_bits(h, [vec[c] for c in present], cols) == want, (spec, cols)
                if vec is clean and want[0] == "ok":
                    assert want[1] == [clean[c] for c in cols]
                seen.add(want[0])
            info = linalg._solve_plan.cache_info()
            assert (info.misses, info.hits) == (1, 1)
    assert seen == {"ok", "inconsistent", "deficient"}


def test_decode_rejects_foreign_symbols_and_ragged_grids(gf16, gf256):
    # a disk and both sectors are missing, so no redundancy is left and
    # the syndrome alone cannot catch a symbol from another algebra
    hm = build_h1(3, 5, gf16)
    st = encode(hm, random_data(gf16, 10, random.Random(13)))
    pattern = ErasurePattern((1,), ((0, 0), (2, 3)))
    assert decode(hm, erase(st, pattern)) == st
    for bits in (200, 9):   # out of GF(16)'s range, and in it
        foreign = erase(st, pattern)
        foreign.symbols[0][2] = gf256.element(bits)
        with pytest.raises(AlgebraMismatchError):
            decode(hm, foreign)
    for short in ("symbols", "present", "row"):
        bad = erase(st, pattern)
        (bad.symbols[1] if short == "row" else getattr(bad, short)).pop()
        with pytest.raises(ShapeMismatchError):
            decode(hm, bad)


def test_decode_undecodable_pattern(gf16):
    # mr + s + 1 = 6 erasures can never be independent on 5 parity rows
    hm = build_h1(3, 5, gf16)
    st = encode(hm, random_data(gf16, 10, random.Random(6)))
    damaged = erase(st, ErasurePattern((0,), ((0, 1), (1, 1), (2, 1))))
    with pytest.raises(UndecodablePatternError):
        decode(hm, damaged)


def test_decode_inconsistent_with_missing_symbols(gf16):
    hm = build_h1(3, 5, gf16)
    st = encode(hm, random_data(gf16, 10, random.Random(8)))
    damaged = erase(st, ErasurePattern((), ((0, 0),)))
    damaged.symbols[1][1] = gf16.add(damaged.symbols[1][1], gf16.one)
    with pytest.raises(InconsistentSyndromeError):
        decode(hm, damaged)


def test_decode_shape_mismatch(gf16, ring17):
    hm = build_h1(3, 5, gf16)
    other = encode(build_h1(5, 3, gf16), random_data(gf16, 8, random.Random(1)))
    with pytest.raises(ShapeMismatchError):
        decode(hm, other)
    ring_st = encode(build_h1(4, 4, ring17),
                     random_data(ring17, 10, random.Random(2)))
    with pytest.raises(ShapeMismatchError):
        decode(hm, ring_st)


def test_ring_and_field_decoders_agree_when_bits_coincide(ring5):
    # alpha has order 5 both in the ring mod M_5 and in GF(16) defined by
    # the same (irreducible) M_5, and its powers have identical 4-bit
    # patterns, so the two codes share every matrix entry bit for bit;
    # decoding must then recover identical symbols through either engine.
    f16alt = Field(4, modulus=0x1F)
    hr = build_h1(1, 5, make_ring(5))
    hf = build_h1(1, 5, f16alt)
    assert [[v for v in row] for row in hr.matrix.bits] == \
        [[v for v in row] for row in hf.matrix.bits]
    rng = random.Random(55)
    k = len(data_columns(hr.spec))
    for _ in range(40):
        raw = [rng.getrandbits(4) for _ in range(k)]
        sr = encode(hr, [hr.spec.algebra.element(v) for v in raw])
        sf = encode(hf, [f16alt.element(v) for v in raw])
        assert sr.vec_bits() == sf.vec_bits()
        for p in enumerate_patterns(hr.spec):
            dr = decode(hr, erase(sr, p))
            df = decode(hf, erase(sf, p))
            assert dr.vec_bits() == df.vec_bits()


# ---------------------------------------------------- stripe files

def test_stripe_file_round_trip(gf16):
    hm = build_h2(3, 5, gf16)
    st = encode(hm, random_data(gf16, len(data_columns(hm.spec)),
                                random.Random(9)))
    damaged = erase(st, ErasurePattern((1, 3), ((0, 0), (2, 2))))
    buf = io.StringIO()
    write_stripe(damaged, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == STRIPE_MAGIC
    assert "?" in text
    back = read_stripe(io.StringIO(text))
    assert back.vec_bits() == damaged.vec_bits()
    assert back.missing_positions() == damaged.missing_positions()
    assert (back.spec.n, back.spec.m, back.spec.s, back.spec.r) == (5, 2, 2, 3)
    assert back.spec.algebra == gf16


def test_stripe_file_round_trip_on_disk(tmp_path, ring17):
    hm = build_h1(4, 4, ring17)
    st = encode(hm, random_data(ring17, len(data_columns(hm.spec)),
                                random.Random(10)))
    path = tmp_path / "stripe.txt"
    write_stripe(st, path)
    back = read_stripe(path)
    assert back.vec_bits() == st.vec_bits()


def test_every_token_survives_matrix_and_stripe_files():
    # global rows and stripe symbols hold every element, including the
    # non-powers of alpha that are written as x:<hex>
    for alg, r, n in ((make_field(4, 0x1F), 4, 5), (make_ring(7), 11, 7)):
        size = 1 << alg.element_bits
        nonzero = [alg.element(1 + k % (size - 1)) for k in range(r * n)]
        hm = build_h_generic(n, 1, 2, r, [nonzero, nonzero[::-1]], alg)
        buf = io.StringIO()
        write_matrix(hm, buf)
        assert "x:" in buf.getvalue() and read_matrix(io.StringIO(buf.getvalue())) == hm
        present = [[(i * n + j) % 7 != 3 for j in range(n)] for i in range(r)]
        values = iter(range(r * n))
        symbols = [[alg.element(next(values) % size) if present[i][j] else alg.zero
                    for j in range(n)] for i in range(r)]
        st = Stripe(hm.spec, symbols, present)
        assert {e.bits for row in symbols for e in row} == set(range(size))
        buf = io.StringIO()
        write_stripe(st, buf)
        assert read_stripe(io.StringIO(buf.getvalue())) == st


def test_read_stripe_errors(gf16):
    good = io.StringIO()
    st = encode(build_h1(2, 3, gf16), random_data(gf16, 2, random.Random(4)))
    write_stripe(st, good)
    lines = good.getvalue().splitlines()

    def parse(*doctored):
        return read_stripe(io.StringIO("\n".join(doctored) + "\n"))

    with pytest.raises(ParseError) as ei:
        parse("BAD", *lines[1:])
    assert ei.value.line == 1
    with pytest.raises(ParseError) as ei:
        parse(lines[0], "field q=4", *lines[2:])
    assert ei.value.line == 2
    with pytest.raises(ParseError) as ei:
        parse(lines[0], lines[1], "params n=3 m=1 s=2", *lines[3:])
    assert ei.value.line == 3
    with pytest.raises(ParseError) as ei:
        parse(lines[0], lines[1], "params n=3 m=1 s=2 r=x", *lines[3:])
    assert (ei.value.line, ei.value.column) == (3, len("params n=3 m=1 s=2 ") + 1)
    params = "params n=3 m=1 s=2 r=2 r=1"  # a repeated key is rejected
    with pytest.raises(ParseError) as ei:
        parse(lines[0], lines[1], params, *lines[3:])
    assert (ei.value.line, ei.value.column) == (3, params.index("r=1") + 1)
    with pytest.raises(ParseError) as ei:
        parse(*lines[:-1])  # one stripe row short
    assert ei.value.line == 5 and ei.value.column == 1
    with pytest.raises(ParseError) as ei:
        parse(*lines, lines[-1])  # one stripe row extra
    assert ei.value.line == 6 and ei.value.column == 1
    bad_row = lines[3] + " 1"
    with pytest.raises(ParseError) as ei:
        parse(*lines[:3], bad_row, *lines[4:])
    assert ei.value.line == 4
    toks = lines[3].split()
    toks[1] = "a^z"
    with pytest.raises(ParseError) as ei:
        parse(*lines[:3], " ".join(toks), *lines[4:])
    assert ei.value.line == 4
    assert ei.value.column == len(toks[0]) + 2
    mixed = "?\t\u00a0" + toks[1]     # a missing symbol, then Unicode spacing
    with pytest.raises(ParseError) as ei:
        parse(*lines[:3], mixed + " " + toks[2], *lines[4:])
    assert (ei.value.line, ei.value.column) == (4, 4)


def test_decode_accepts_stripe_read_from_file(gf16):
    # a stripe file read back (family reported as generic) must still be
    # accepted by decode against the concrete family matrix
    hm = build_h1(3, 5, gf16)
    st = encode(hm, random_data(gf16, 10, random.Random(12)))
    damaged = erase(st, ErasurePattern((1,), ((0, 0), (2, 4))))
    buf = io.StringIO()
    write_stripe(damaged, buf)
    back = read_stripe(io.StringIO(buf.getvalue()))
    assert decode(hm, back).vec_bits() == st.vec_bits()


if __name__ == "__main__":
    print(json.dumps(_round_trips(fresh=True)))

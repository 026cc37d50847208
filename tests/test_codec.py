"""Systematic encoding, erasure decoding, and the stripe text format."""
import io
import json
import random

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
from sdcode.codec import STRIPE_MAGIC, data_columns
from sdcode.construct import ParityCheckMatrix
from sdcode.linalg import mul_vector
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


def test_decode_complete_stripe_checks_syndrome(gf16):
    hm = build_h1(3, 5, gf16)
    st = encode(hm, random_data(gf16, 10, random.Random(5)))
    assert decode(hm, st).vec_bits() == st.vec_bits()
    st.symbols[0][0] = gf16.add(st.symbols[0][0], gf16.one)  # silent corruption
    with pytest.raises(InconsistentSyndromeError):
        decode(hm, st)


def test_corruption_detected_on_cache_miss_and_hit(gf16, ring17):
    for hm in (build_h2(3, 5, gf16), build_h1(4, 4, ring17)):
        alg = hm.spec.algebra
        rng = random.Random(str(alg))
        pattern = ErasurePattern((1,), ((0, 0),))   # redundancy left: s - 1 rows
        codec._columns_plan.cache_clear()
        linalg._factor.cache_clear()
        for _ in range(3):
            st = encode(hm, random_data(alg, len(data_columns(hm.spec)), rng))
            damaged = erase(st, pattern)
            assert decode(hm, damaged).vec_bits() == st.vec_bits()
            damaged.symbols[2][3] = alg.add(damaged.symbols[2][3], alg.one)
            with pytest.raises(InconsistentSyndromeError):
                decode(hm, damaged)
        assert linalg._factor.cache_info().misses == 2    # parity support, pattern


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
                codec._columns_plan.cache_clear()
                linalg._factor.cache_clear()
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
        codec._columns_plan.cache_clear()
        linalg._factor.cache_clear()
        for hits in (0, 1):
            assert encode(hm, data) == want and len(calls) == 2 * hits + 1
            assert decode(hm, erase(want, pattern)) == want and len(calls) == 2 * hits + 2
            assert linalg._factor.cache_info().hits == 2 * hits
        monkeypatch.undo()


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

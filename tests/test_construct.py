"""Parity-check matrix builders and the matrix text format."""
import io
import random

import pytest

from sdcode import (
    CodeSpec,
    build_h1,
    build_h2,
    build_h_generic,
    make_field,
    make_ring,
    parse_algebra,
    read_matrix,
    rank,
    validate_structure,
    write_matrix,
)
from sdcode.construct import MAGIC
from sdcode.errors import (
    AlgebraMismatchError,
    OrderTooSmallError,
    ParseError,
    ShapeMismatchError,
    ZeroGlobalEntryError,
)
from fixtures import ALL_REFERENCE_MATRICES


# ------------------------------------------------- reference tables

def test_builders_match_reference_tables():
    for ref in ALL_REFERENCE_MATRICES:
        alg = parse_algebra(ref.algebra)
        build = build_h1 if ref.family == "construction1" else build_h2
        pcm = build(ref.r, ref.n, alg)
        assert len(ref.row_map) == len(ref.rows)
        for printed_i, built_i in enumerate(ref.row_map):
            tokens = ref.rows[printed_i].split()
            assert len(tokens) == ref.printed_cols, ref.name
            for j, tok in enumerate(tokens):
                want = alg.parse_element(tok)
                got = pcm.matrix.entry(built_i, j)
                assert got == want, (
                    f"{ref.name}: entry ({built_i}, {j}) is "
                    f"{alg.element_token(got)}, table says {tok}")


def test_reference_tables_declare_their_gaps():
    # fixtures either cover everything or say exactly what is missing
    for ref in ALL_REFERENCE_MATRICES:
        total_rows = ref.r + 2 if ref.family == "construction1" else 2 * ref.r + 2
        full = ref.printed_cols == ref.r * ref.n and len(ref.row_map) == total_rows
        assert full == ref.note.startswith("complete"), ref.name


# ------------------------------------------------- formulas

def test_h1_entries_follow_the_two_exponent_rules(gf16, ring17):
    for alg, r, n in ((gf16, 3, 5), (gf16, 5, 3), (ring17, 4, 4), (ring17, 2, 8)):
        pcm = build_h1(r, n, alg)
        mat = pcm.matrix
        assert (mat.rows, mat.cols) == (r + 2, r * n)
        for i in range(r):
            for c in range(r * n):
                want = 1 if i * n <= c < (i + 1) * n else 0
                assert mat.bits[i][c] == want
        for i in range(r):
            for j in range(n):
                c = i * n + j
                assert mat.bits[r][c] == alg.alpha_pow_bits(i * n + j)
                assert mat.bits[r + 1][c] == alg.alpha_pow_bits(2 * i * n - j)


def test_h2_entries_follow_the_four_row_rules(gf16, ring17):
    for alg, r, n in ((gf16, 3, 5), (gf16, 5, 3), (ring17, 4, 4)):
        pcm = build_h2(r, n, alg)
        mat = pcm.matrix
        assert (mat.rows, mat.cols) == (2 * r + 2, r * n)
        for i in range(r):
            for j in range(n):
                c = i * n + j
                assert mat.bits[2 * i][c] == 1
                assert mat.bits[2 * i + 1][c] == alg.alpha_pow_bits(j)
                assert mat.bits[2 * r][c] == alg.alpha_pow_bits(3 * i * n - j)
                assert mat.bits[2 * r + 1][c] == alg.alpha_pow_bits(2 * (i * n + j))
        # off-block local entries are zero
        for i in range(r):
            for c in range(r * n):
                if not i * n <= c < (i + 1) * n:
                    assert mat.bits[2 * i][c] == 0
                    assert mat.bits[2 * i + 1][c] == 0


def test_every_entry_is_zero_or_a_power_of_alpha(gf16, ring17):
    for pcm in (build_h1(3, 5, gf16), build_h2(3, 5, gf16), build_h1(4, 4, ring17)):
        alg = pcm.spec.algebra
        for row in pcm.matrix.bits:
            for v in row:
                tok = alg.element_token(alg.element(v))
                assert tok == "0" or tok == "1" or tok.startswith("a^")


def test_parity_rows_have_full_rank_over_fields(gf16):
    assert rank(build_h1(3, 5, gf16).matrix) == 1 * 3 + 2
    assert rank(build_h2(3, 5, gf16).matrix) == 2 * 3 + 2


def test_order_precondition_boundary(gf16, ring17):
    build_h1(3, 5, gf16)              # rn = 15 = O(alpha), allowed
    build_h1(5, 3, gf16)
    with pytest.raises(OrderTooSmallError):
        build_h1(4, 4, gf16)          # rn = 16 > 15
    with pytest.raises(OrderTooSmallError):
        build_h2(6, 3, gf16)          # rn = 18 > 15
    build_h1(4, 4, ring17)            # 16 <= 17
    build_h1(8, 2, ring17)
    with pytest.raises(OrderTooSmallError):
        build_h1(9, 2, ring17)        # 18 > 17
    msg = ""
    try:
        build_h1(4, 4, gf16)
    except OrderTooSmallError as e:
        msg = str(e)
    assert "16" in msg and "15" in msg


def test_spec_validation():
    gf16 = make_field(4)
    with pytest.raises(ValueError):
        CodeSpec(n=3, m=3, s=2, r=2, algebra=gf16, family="generic")
    with pytest.raises(ValueError):
        CodeSpec(n=3, m=0, s=2, r=2, algebra=gf16, family="generic")
    with pytest.raises(ValueError):
        CodeSpec(n=3, m=1, s=-1, r=2, algebra=gf16, family="generic")
    with pytest.raises(ValueError):
        CodeSpec(n=3, m=1, s=2, r=0, algebra=gf16, family="generic")
    with pytest.raises(ValueError):
        CodeSpec(n=3, m=1, s=2, r=2, algebra=gf16, family="bogus")
    spec = CodeSpec(n=3, m=2, s=1, r=4, algebra=gf16, family="generic")
    assert spec.parity_rows == 9
    assert spec.total_columns == 12
    assert spec.column_of(2, 1) == 7


# ------------------------------------------------- generic builder

def test_generic_reproduces_both_families(gf16, ring17):
    for alg, r, n in ((gf16, 3, 5), (ring17, 4, 4)):
        h1 = build_h1(r, n, alg)
        g1 = build_h_generic(
            n=n, m=1, s=2, r=r,
            global_rows=[h1.matrix.row_elements(r), h1.matrix.row_elements(r + 1)],
            algebra=alg)
        assert g1.matrix == h1.matrix
        assert g1.spec.family == "generic"
    h2 = build_h2(3, 5, gf16)
    g2 = build_h_generic(
        n=5, m=2, s=2, r=3,
        global_rows=[h2.matrix.row_elements(6), h2.matrix.row_elements(7)],
        algebra=gf16)
    assert g2.matrix == h2.matrix


def test_generic_validates_global_rows(gf16):
    ok_row = [gf16.one] * 15
    with pytest.raises(ShapeMismatchError):
        build_h_generic(n=5, m=1, s=2, r=3, global_rows=[ok_row], algebra=gf16)
    with pytest.raises(ShapeMismatchError):
        build_h_generic(n=5, m=1, s=2, r=3,
                        global_rows=[ok_row, ok_row[:-1]], algebra=gf16)
    bad = list(ok_row)
    bad[7] = gf16.zero
    with pytest.raises(ZeroGlobalEntryError):
        build_h_generic(n=5, m=1, s=2, r=3,
                        global_rows=[ok_row, bad], algebra=gf16)
    other = make_ring(17)
    with pytest.raises(AlgebraMismatchError):
        build_h_generic(n=5, m=1, s=2, r=3,
                        global_rows=[ok_row, [other.one] * 15], algebra=gf16)


def test_generic_s_zero_and_s_one(gf16):
    g = build_h_generic(n=4, m=1, s=0, r=2, global_rows=[], algebra=gf16)
    assert g.matrix.rows == 2
    g1 = build_h_generic(n=4, m=1, s=1, r=2,
                         global_rows=[[gf16.alpha_pow(c) for c in range(8)]],
                         algebra=gf16)
    assert g1.matrix.rows == 3
    assert validate_structure(g1)


# ------------------------------------------------- structure checks

def test_validate_structure_accepts_builders(gf16, ring17):
    assert validate_structure(build_h1(3, 5, gf16))
    assert validate_structure(build_h2(5, 3, gf16))
    assert validate_structure(build_h1(4, 4, ring17))


def test_validate_structure_rejects_tampering(gf16):
    import dataclasses
    from sdcode import Matrix, ParityCheckMatrix

    pcm = build_h1(3, 5, gf16)
    rows = [list(r) for r in pcm.matrix.bits]
    rows[0][7] = 1  # a one outside the local block
    assert not validate_structure(
        ParityCheckMatrix(pcm.spec, Matrix(gf16, rows)))
    rows = [list(r) for r in pcm.matrix.bits]
    rows[3][2] = 0  # a zero inside a global row
    assert not validate_structure(
        ParityCheckMatrix(pcm.spec, Matrix(gf16, rows)))
    rows = [list(r) for r in pcm.matrix.bits]
    bad_spec = dataclasses.replace(pcm.spec, r=4)
    assert not validate_structure(
        ParityCheckMatrix(bad_spec, Matrix(gf16, rows)))


# ------------------------------------------------- file format

def round_trip(pcm):
    buf = io.StringIO()
    write_matrix(pcm, buf)
    return read_matrix(io.StringIO(buf.getvalue())), buf.getvalue()


def test_write_read_round_trip(gf16, ring17):
    for pcm in (build_h1(3, 5, gf16), build_h2(5, 3, gf16),
                build_h1(4, 4, ring17), build_h2(4, 4, ring17)):
        back, text = round_trip(pcm)
        assert back.spec == pcm.spec
        assert back.matrix == pcm.matrix
        lines = text.splitlines()
        assert lines[0] == MAGIC
        assert lines[1] == pcm.spec.algebra.descriptor()


def test_file_round_trip_on_disk(tmp_path, gf16):
    pcm = build_h2(3, 5, gf16)
    path = tmp_path / "h.txt"
    write_matrix(pcm, path)
    back = read_matrix(path)
    assert back.matrix == pcm.matrix
    assert back.spec == pcm.spec


def test_generic_matrix_round_trip(gf16):
    rng = random.Random(11)
    gl = [[gf16.alpha_pow(rng.randrange(15)) for _ in range(8)] for _ in range(2)]
    pcm = build_h_generic(n=4, m=1, s=2, r=2, global_rows=gl, algebra=gf16)
    back, _ = round_trip(pcm)
    assert back.spec.family == "generic"
    assert back.matrix == pcm.matrix


def test_third_row_of_the_sample_header_starts_with_ramp(gf16):
    # the documented sample: family=construction1 r=3 n=5 over GF(16)
    _, text = round_trip(build_h1(3, 5, gf16))
    rows = text.splitlines()[3:]
    assert rows[3].startswith("1 a^1 a^2")


def parse_lines(*lines):
    return read_matrix(io.StringIO("\n".join(lines) + "\n"))


def test_read_matrix_error_positions(gf16):
    good = []
    buf = io.StringIO()
    write_matrix(build_h1(2, 3, gf16), buf)
    good = buf.getvalue().splitlines()

    with pytest.raises(ParseError) as ei:
        parse_lines("WRONG MAGIC", *good[1:])
    assert ei.value.line == 1

    with pytest.raises(ParseError) as ei:
        parse_lines(good[0], "field w=4 poly=0xzz", *good[2:])
    assert ei.value.line == 2

    with pytest.raises(ParseError) as ei:
        parse_lines(good[0], "field w=4 poly=0x13 poly=0x19", *good[2:])
    assert ei.value.line == 2 and "'poly=0x19'" in str(ei.value)

    with pytest.raises(ParseError) as ei:
        parse_lines(good[0], good[1], "params family=construction1 n=3 m=1 s=2", *good[3:])
    assert ei.value.line == 3 and "r=" in str(ei.value)  # missing r=

    with pytest.raises(ParseError) as ei:
        parse_lines(good[0], good[1], "params family=construction9 n=3 m=1 s=2 r=2", *good[3:])
    assert (ei.value.line, ei.value.column) == (3, 8)
    assert "unknown family" in str(ei.value)

    with pytest.raises(ParseError) as ei:
        parse_lines(good[0], good[1], "params family=construction2 n=3 m=1 s=2 r=2", *good[3:])
    assert ei.value.line == 3 and "fixes (m, s)" in str(ei.value)  # family contradicts m

    # a repeated key is rejected, not silently overridden
    params = "params n=3 m=1 s=2 r=2 family=construction1 n=5"
    with pytest.raises(ParseError) as ei:
        parse_lines(good[0], good[1], params, *good[3:])
    assert (ei.value.line, ei.value.column) == (3, params.index("n=5") + 1)

    # numbers are ASCII decimal: int() would read each of these
    for item in ("r=\u0662", "r=0_2", "r=+2"):
        params = f"params n=3 m=1 s=2 {item} family=construction1"
        with pytest.raises(ParseError) as ei:
            parse_lines(good[0], good[1], params, *good[3:])
        assert (ei.value.line, ei.value.column) == (3, params.index(item) + 1)
    with pytest.raises(ParseError) as ei:
        parse_lines(*good[:5], good[5].replace("a^1 ", "a^0_1 ", 1), *good[6:])
    assert (ei.value.line, ei.value.column) == (6, good[5].index("a^1 ") + 1)

    # truncated: one matrix row missing
    with pytest.raises(ParseError):
        parse_lines(*good[:-1])

    # wrong token count in a row
    bad_row = " ".join(good[4].split()[:-1])
    with pytest.raises(ParseError) as ei:
        parse_lines(*good[:4], bad_row, *good[5:])
    assert ei.value.line == 5

    # unparsable token: line and column point at it
    toks = good[4].split()
    toks[2] = "a^x"
    doctored = " ".join(toks)
    with pytest.raises(ParseError) as ei:
        parse_lines(*good[:4], doctored, *good[5:])
    assert ei.value.line == 5
    assert ei.value.column == doctored.index("a^x") + 1

    # zero inside a global row
    toks = good[6].split()  # second global row of r=2 build: row index 3
    toks[0] = "0"
    with pytest.raises(ParseError) as ei:
        parse_lines(*good[:6], " ".join(toks))
    assert ei.value.line == 7
    assert ei.value.column == 1

    # nonzero outside the local block
    toks = good[3].split()
    toks[5] = "1"
    with pytest.raises(ParseError) as ei:
        parse_lines(*good[:3], " ".join(toks), *good[4:])
    assert ei.value.line == 4
    assert ei.value.column == len(" ".join(toks[:5])) + 2

    # columns count every character of any whitespace run, Unicode
    # spaces included; the message is the token reader's own
    toks = good[4].split()
    toks[2] = "a^x"
    mixed = "\t" + " \u00a0".join(toks[:2]) + "\x0b\u3000 " + " ".join(toks[2:])
    with pytest.raises(ParseError) as ei:
        parse_lines(*good[:4], mixed, *good[5:])
    assert (ei.value.line, ei.value.column) == (5, mixed.index("a^x") + 1)
    assert str(ei.value) == "line 5, column 9: bad exponent in token 'a^x'"
    toks = good[3].split()
    toks[5] = "1"
    mixed = "\u2003".join(toks[:5]) + "\t\t" + " ".join(toks[5:])
    with pytest.raises(ParseError) as ei:
        parse_lines(*good[:3], mixed, *good[4:])
    assert (ei.value.line, ei.value.column) == (4, len("\u2003".join(toks[:5])) + 3)


def test_read_matrix_checks_order_precondition(gf16):
    buf = io.StringIO()
    write_matrix(build_h1(3, 5, gf16), buf)
    lines = buf.getvalue().splitlines()
    # doctor the params to claim r=4, n=4 (rn = 16 > 15) with matching rows
    with pytest.raises(ParseError) as ei:
        parse_lines(lines[0], lines[1], "params family=construction1 n=4 m=1 s=2 r=4",
                    *lines[3:])
    assert ei.value.line == 3 and "exceeds O(alpha)" in str(ei.value)


def test_read_matrix_tolerates_trailing_blank_lines(gf16):
    buf = io.StringIO()
    write_matrix(build_h1(2, 3, gf16), buf)
    text = buf.getvalue() + "\n\n"
    back = read_matrix(io.StringIO(text))
    assert back.matrix == build_h1(2, 3, gf16).matrix

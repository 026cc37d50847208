"""Exact linear algebra over fields and over the composite residue ring."""
import random

import pytest

from sdcode import (
    Matrix,
    determinant,
    is_invertible,
    make_field,
    make_ring,
    rank,
    solve,
    submatrix,
)
from sdcode import _gf2poly as poly
from sdcode import algebra, linalg
from sdcode.algebra import _Gf2mOps, unpack
from sdcode.linalg import (
    PackedMap,
    eliminate,
    factor_ranks,
    full_column_rank,
    identity,
    mul_vector,
    pack,
    solve_bits,
    x_powers,
)
from sdcode.errors import (
    AlgebraMismatchError,
    IndexOutOfRangeError,
    NotSquareError,
    ShapeMismatchError,
    SingularSystemError,
)
from fixtures import Index, solve_ab


def random_matrix(alg, rng, nrows, ncols):
    nb = alg.element_bits
    return Matrix(alg, [[rng.getrandbits(nb) for _ in range(ncols)]
                        for _ in range(nrows)])


def random_invertible(alg, rng, k):
    while True:
        m = random_matrix(alg, rng, k, k)
        if is_invertible(m):
            return m


# -------------------------------------------------------------- structure

def test_matrix_shape_and_entries(gf16):
    m = Matrix(gf16, [[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entry(1, 2).bits == 6
    assert [e.bits for e in m.row_elements(0)] == [1, 2, 3]
    with pytest.raises(IndexOutOfRangeError):
        m.entry(2, 0)
    with pytest.raises(IndexOutOfRangeError):
        m.entry(0, 3)
    with pytest.raises(IndexOutOfRangeError):
        m.row_elements(-1)


def test_matrix_rejects_ragged_and_oversized(gf16):
    with pytest.raises(ShapeMismatchError):
        Matrix(gf16, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(gf16, [[16, 0]])  # bits out of range for 4-bit elements


def test_matrix_entries_go_through_index(gf16):
    # as Element's bits: a float, a str or None fails at construction,
    # and a bool or an integer-like (a numpy int) is stored as an int
    for bad in (1.5, 2.0, "1", None):
        with pytest.raises(TypeError):
            Matrix(gf16, [[1, 2], [3, bad]])
    m = Matrix(gf16, [[True, Index(5)], (False, 15)])
    assert m.bits == ((1, 5), (0, 15)) and all(type(v) is int for r in m.bits for v in r)
    assert m == Matrix(gf16, [[1, 5], [0, 15]]) and hash(m) == hash(Matrix(gf16, [[1, 5], [0, 15]]))
    # the range is checked per row; the message names the first bad entry
    for row, shown in (([3, 16, -1], "0x10"), ([-1, 16], "0x-1"), ([0, Index(17)], "0x11")):
        with pytest.raises(ValueError, match=f"entry {shown} out of range for field w=4"):
            Matrix(gf16, [[1, 2, 3][:len(row)], row])
    assert Matrix(gf16, [[], []]).cols == 0


def test_from_elements_checks_algebra(gf16, gf256):
    a = gf16.element(3)
    b = gf256.element(3)
    m = Matrix.from_elements([[a, a], [a, a]])
    assert m.algebra == gf16
    with pytest.raises(AlgebraMismatchError):
        Matrix.from_elements([[a, b]])
    for empty in ([], [[]]):
        with pytest.raises(ShapeMismatchError):
            Matrix.from_elements(empty)


def test_submatrix_requires_strictly_increasing(gf16):
    m = Matrix(gf16, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = submatrix(m, [0, 2], [1, 2])
    assert [[e for e in row] for row in s.bits] == [[2, 3], [8, 9]]
    for rows, cols in ([[2, 0]], [[0, 1]]), ([[0, 0]], [[0]]), ([[0]], [[3]]), ([[-1]], [[0]]):
        with pytest.raises(IndexOutOfRangeError):
            submatrix(m, rows[0], cols[0])


# ------------------------------------------------------------ determinant

def test_determinant_small_cases(gf16):
    a = gf16.alpha
    one = gf16.one
    assert determinant(Matrix(gf16, [[7]])).bits == 7
    # det [[1,1],[a,b]] = a + b in characteristic 2
    m = Matrix.from_elements([[one, one], [a, gf16.alpha_pow(3)]])
    assert determinant(m) == gf16.add(a, gf16.alpha_pow(3))
    with pytest.raises(NotSquareError):
        determinant(Matrix(gf16, [[1, 2]]))


def test_determinant_pairwise_ratio_identity(gf16):
    # det [[a^-ln, 1], [1, a^(2ln + j - j')]] == 1 + a^(ln + j - j')
    n, r = 5, 3
    for ell in range(1, r):
        for j in range(n):
            for jp in range(n):
                m = Matrix.from_elements([
                    [gf16.alpha_pow(-ell * n), gf16.one],
                    [gf16.one, gf16.alpha_pow(2 * ell * n + j - jp)],
                ])
                want = gf16.add(gf16.one, gf16.alpha_pow(ell * n + j - jp))
                assert determinant(m) == want


def test_determinant_multiplicative_on_row_scaling(gf16):
    rng = random.Random(5)
    for _ in range(50):
        m = random_matrix(gf16, rng, 3, 3)
        c = gf16.alpha_pow(rng.randrange(15))
        scaled = Matrix(gf16, [
            [gf16.mul_bits(c.bits, x) for x in m.bits[0]],
            list(m.bits[1]),
            list(m.bits[2]),
        ])
        assert determinant(scaled) == gf16.mul(c, determinant(m))


def test_invertible_iff_unit_determinant(gf16, ring17):
    rng = random.Random(99)
    for alg in (gf16, ring17):
        for _ in range(150):
            k = rng.randrange(1, 5)
            m = random_matrix(alg, rng, k, k)
            assert is_invertible(m) == alg.is_unit(determinant(m))


def test_ring_zero_divisor_determinant_is_singular(ring7):
    # diag(u, 1) with u a zero divisor: determinant nonzero but not a unit
    u = ring7.crt_bits([0, 1])
    m = Matrix(ring7, [[u, 0], [0, 1]])
    d = determinant(m)
    assert d.bits != 0
    assert not ring7.is_unit(d)
    assert not is_invertible(m)
    assert not is_invertible(Matrix(ring7, [[0]]))


def test_determinant_dimension_cap(gf16):
    big = identity(gf16, 9)
    with pytest.raises(ValueError):
        determinant(big)


# -------------------------------------------------------------- rank

def test_rank_field_examples(gf16):
    assert rank(identity(gf16, 4)) == 4
    m = Matrix(gf16, [[1, 2, 3], [2, 4, 6], [0, 0, 0]])  # row2 = a * row1
    assert rank(m) == 1
    assert not full_column_rank(m)
    tall = Matrix(gf16, [[1, 0], [0, 1], [1, 1]])
    assert rank(tall) == 2
    assert full_column_rank(tall)
    assert not full_column_rank(Matrix(gf16, [[1, 0, 2], [0, 1, 3]]))    # wide


def test_rank_over_ring_is_per_factor(ring7):
    with pytest.raises(ValueError):
        rank(Matrix(ring7, [[1]]))
    f0, f1 = ring7.factorization.factors
    # f0 is zero in the first factor field only: ranks differ per factor
    m = Matrix(ring7, [[f0 % 64]])
    assert factor_ranks(m) == (0, 1) or factor_ranks(m) == (1, 0)
    assert not full_column_rank(m)
    assert full_column_rank(Matrix(ring7, [[1]]))


def test_vandermonde_full_rank(gf16, ring17):
    # rows alpha^(k*j) for k < s are independent wherever column exponents differ
    for alg, n in ((gf16, 15), (ring17, 17)):
        for k in range(1, 5):
            cols = list(range(n))[:6]
            m = Matrix(alg, [[alg.alpha_pow_bits(t * j) for j in cols]
                             for t in range(k)])
            assert min(factor_ranks(m)) == k


# -------------------------------------------------------------- solving

def test_solve_round_trip_field_and_ring(gf16, ring17, ring7, ring5):
    rng = random.Random(1234)
    # M_5 and M_37 are irreducible; M_37's one factor field has no tables
    for alg in (gf16, ring17, ring7, ring5, make_ring(37)):
        for _ in range(150):
            k = rng.randrange(1, 5)
            m = random_invertible(alg, rng, k)
            x = [alg.element(rng.getrandbits(alg.element_bits)) for _ in range(k)]
            b = mul_vector(m, x)
            assert solve(m, b) == x


def test_solve_matches_closed_form(gf16):
    # [[1,1],[1,a]] x = (0, b)  =>  x0 = x1 = b / (1 + a)
    a = gf16.alpha
    b = gf16.alpha_pow(7)
    m = Matrix.from_elements([[gf16.one, gf16.one], [gf16.one, a]])
    x = solve(m, [gf16.zero, b])
    expect = gf16.mul(b, gf16.inv(gf16.add(gf16.one, a)))
    assert x == [expect, expect]
    assert mul_vector(m, x) == [gf16.zero, b]


def test_solve_rejects_singular(gf16, ring7):
    m = Matrix(gf16, [[1, 1], [1, 1]])
    with pytest.raises(SingularSystemError):
        solve(m, [gf16.zero, gf16.one])
    f0 = ring7.factorization.factors[0]
    mr = Matrix(ring7, [[f0]])  # zero divisor: singular in one factor
    with pytest.raises(SingularSystemError):
        solve(mr, [ring7.one])


def test_solve_bits_statuses(gf16, ring7):
    # tall consistent, tall inconsistent, wide (deficient)
    status, x = solve_ab(Matrix(gf16, [[1], [2]]), [3, 6])
    assert status == "ok" and gf16.mul_bits(2, x[0]) == 6 and x[0] == 3
    status, _ = solve_ab(Matrix(gf16, [[1], [2]]), [3, 7])
    assert status == "inconsistent"
    # column 0 is zero in row 0, so row 1 pivots column 0 and row 0
    # column 1: back-substitution has to follow the pivot rows, not row order
    for alg in (gf16, ring7):
        a = [[0, alg.alpha_pow_bits(1)],
             [alg.alpha_pow_bits(2), 1],
             [1, alg.alpha_pow_bits(3)]]
        x = [alg.alpha_pow_bits(4), alg.alpha_pow_bits(5)]
        b = [alg.mul_bits(row[0], x[0]) ^ alg.mul_bits(row[1], x[1]) for row in a]
        assert solve_ab(Matrix(alg, a), b) == ("ok", x)
        b[2] ^= 1
        assert solve_ab(Matrix(alg, a), b) == ("inconsistent", None)
    # over ring p=7 the factor fields pivot on different rows
    for a, b, want in split_pivot_systems(ring7):
        assert solve_ab(Matrix(ring7, a), b) == want
    status, _ = solve_ab(Matrix(gf16, [[1, 2]]), [3])
    assert status == "deficient"
    status, x = solve_ab(Matrix(gf16, []), [])
    assert status == "ok" and x == []


def split_pivot_systems(ring7):
    """(A, b, result) for A = [[u], [1]] over ring p=7, u zero modulo the
    first factor of M_7 only: the first factor field pivots on row 1 and
    the second on row 0, so each row goes unpivoted in one of them.  w is
    nonzero modulo the first factor only, so b_0 = u·b_1 + w is
    inconsistent there alone."""
    u = ring7.crt_bits([0, 1])
    w = ring7.crt_bits([1, 0])
    out = []
    for b1 in (1, ring7.alpha_pow_bits(3), u, w):
        ub1 = ring7.mul_bits(u, b1)
        out.append(([[u], [1]], [ub1, b1], ("ok", [b1])))
        out.append(([[u], [1]], [ub1 ^ w, b1], ("inconsistent", None)))
    return out


def test_solve_bits_ring_all_zero_divisor_entries(ring7):
    # u, v project to (0,1) and (1,0): every entry is a zero divisor, yet
    # [[u, v], [v, u]] is invertible because each factor sees a permutation.
    u = ring7.crt_bits([0, 1])
    v = ring7.crt_bits([1, 0])
    m = Matrix(ring7, [[u, v], [v, u]])
    assert not ring7.is_unit_bits(u) and not ring7.is_unit_bits(v)
    assert is_invertible(m)
    assert ring7.is_unit(determinant(m))
    rng = random.Random(6)
    for _ in range(30):
        x = [rng.getrandbits(6), rng.getrandbits(6)]
        b = [ring7.add_bits(ring7.mul_bits(m.bits[i][0], x[0]),
                            ring7.mul_bits(m.bits[i][1], x[1])) for i in range(2)]
        status, got = solve_ab(m, b)
        assert status == "ok" and got == x


def test_solve_bits_ring_deficient_beats_inconsistent(ring7):
    # in factor 0 the matrix is singular; make factor 1 inconsistent too:
    # the combined verdict must be "deficient" (an erasure-decoding retry
    # cannot fix inconsistency, but deficiency is the stronger statement)
    u = ring7.crt_bits([0, 1])
    status, _ = solve_ab(Matrix(ring7, [[u], [u]]), [1, 0])
    assert status == "deficient"
    # the same system is inconsistent on its own in factor 1
    assert solve_ab(Matrix(make_field(3, 0xD), [[1], [1]]), [1, 0])[0] == "inconsistent"


def test_mul_vector_shapes(gf16):
    m = Matrix(gf16, [[1, 2], [3, 4]])
    with pytest.raises(ShapeMismatchError):
        mul_vector(m, [gf16.one])
    with pytest.raises(ShapeMismatchError):
        solve(m, [gf16.one])
    wide = Matrix(gf16, [[1, 2]])
    with pytest.raises(NotSquareError):
        solve(wide, [gf16.one])
    with pytest.raises(NotSquareError):
        is_invertible(wide)


# ------------------------------------------------------- packed maps

def dot(mul, row, vec):
    """The sum of v·vec[k] over a sparse row of (k, v) pairs: one product
    per nonzero pair, the oracle of the packed tables."""
    acc = 0
    for k, v in row:
        if vec[k]:
            acc ^= mul(v, vec[k])
    return acc


# widths 3, 4, 8, 16 and 20 (no log tables), then rings of widths 4, 6,
# 16, 30 and 40, the odd ones not a multiple of the 8-bit chunk
PACKED_ALGEBRAS = [make_field(3, 0xD), make_field(4), make_field(8), make_field(16),
                   _Gf2mOps(0x100009), make_ring(5), make_ring(7), make_ring(17),
                   make_ring(31), make_ring(41)]


@pytest.mark.parametrize("alg", PACKED_ALGEBRAS, ids=lambda a: (
    f"tableless w={a.degree}" if isinstance(a, _Gf2mOps) else str(a)))
def test_packed_map_matches_per_product_oracle(alg):
    tableless = isinstance(alg, _Gf2mOps)
    mul = alg.mul if tableless else alg.mul_bits
    width = alg.degree if tableless else alg.element_bits
    rng = random.Random(f"packed:{alg.modulus:x}")
    top = (1 << width) - 1
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 3), (3, 6), (7, 7)]
    for nrows, ncols in shapes * 4:
        rows = [[rng.getrandbits(width) if rng.random() < 0.7 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if ncols > 1:                       # a zero column, and a one-entry column
            for i, row in enumerate(rows):
                row[0] = 0
                row[-1] = top if i == nrows - 1 else 0
        packed = PackedMap(alg.modulus, [pack(col, width) for col in zip(*rows)], nrows)
        for x in ([0] * ncols, [top] * ncols, [1 << (width - 1)] * ncols,
                  [rng.getrandbits(width) for _ in range(ncols)]):
            want = [dot(mul, [(k, v) for k, v in enumerate(row) if v], x) for row in rows]
            assert packed(x) == want
            assert packed.packed(x) == sum(v << (i * width) for i, v in enumerate(want))


# moduli of degree 3, 7, 9, 16, 20, 36, 64 and 68: lanes of 8, 8, 16, 16,
# 32, 64, 64 and 72 bits (the last split by shift-and-mask); x_powers
# needs no irreducible modulus, only its degree
LANE_MODULI = [0xB, 0x89, 0x211, 0x1100B, 0x100009, (1 << 37) - 1,
               1 << 64 | 0x1B, 1 << 68 | 0x2B]


@pytest.mark.parametrize("modulus", LANE_MODULI, ids=lambda f: f"deg{f.bit_length() - 1}")
def test_x_powers_in_lanes_match_the_degree_packed_basis(modulus, monkeypatch):
    width = modulus.bit_length() - 1
    lane = algebra.lane_width(width)
    assert lane >= width and lane % 8 == 0 and (lane in (8, 16, 32, 64) or width > 64)
    rng = random.Random(f"lanes:{modulus:x}")
    count, top = 9, (1 << width) - 1
    cols = [[rng.getrandbits(width) for _ in range(count)] for _ in range(5)]
    cols += [[0] * count, [top] * count, [1 << (width - 1)] * count]
    tight = x_powers(modulus, [pack(c, width) for c in cols], count, width)
    wide = x_powers(modulus, [pack(c, lane) for c in cols], count, lane)
    for col, basis, lanes in zip(cols, tight, wide):
        assert len(basis) == len(lanes) == width
        for k, (t, u) in enumerate(zip(basis, lanes)):
            want = [poly.mod(v << k, modulus) for v in col]
            assert unpack(t, count, width) == unpack(u, count, lane) == want
            assert u == pack(want, lane)
    # without the native casts unpack falls back to shift-and-mask
    fast = [unpack(u, count, lane) for basis in wide for u in basis]
    monkeypatch.setattr(algebra, "_CASTS", {})
    assert [unpack(u, count, lane) for basis in wide for u in basis] == fast


# ------------------------------------------------- cached solve plans

def _oracle_field(ops, aug, ncols):
    """Solve the augmented system [A | b] in one field by elimination and
    back-substitution from scratch (the solver before factorisations
    were cached)."""
    pivots = eliminate(ops, aug, range(ncols))
    if len(pivots) < ncols:
        return "deficient", None
    used = set(pivots)
    if any(aug[k][ncols] for k in range(len(aug)) if k not in used):
        return "inconsistent", None
    x = [0] * ncols
    for c in reversed(range(ncols)):
        row = aug[pivots[c]]
        acc = row[ncols]
        for j in range(c + 1, ncols):
            if row[j]:
                acc ^= ops.mul(row[j], x[j])
        x[c] = acc
    return "ok", x


def oracle_solve_bits(alg, rows, b):
    ncols = len(rows[0]) if rows else 0
    aug = [(*r, v) for r, v in zip(rows, b)]
    parts = [_oracle_field(ops, view, ncols) for ops, view in alg.factor_views(aug)]
    for status in ("deficient", "inconsistent"):
        if any(st == status for st, _ in parts):
            return status, None
    return "ok", [alg.crt_bits(res) for res in zip(*(x for _, x in parts))]


def random_entry(alg, rng):
    """Zero a quarter of the time; over a ring, often a zero divisor (some
    residues zero) or a unit."""
    if rng.random() < 0.25:
        return 0
    views = getattr(alg, "factor_ops", None)
    if views and rng.random() < 0.5:
        res = [rng.randrange(ops.q) if rng.random() < 0.6 else 0 for ops in views]
        return alg.crt_bits(res)
    return rng.getrandbits(alg.element_bits)


def random_system(alg, rng, nrows, ncols):
    rows = [[random_entry(alg, rng) for _ in range(ncols)] for _ in range(nrows)]
    if ncols >= 2 and rng.random() < 0.3:   # a dependent column
        c = rng.getrandbits(alg.element_bits)
        for row in rows:
            row[-1] = alg.mul_bits(c, row[0])
    return rows


@pytest.mark.parametrize("alg", [make_field(4), make_field(8), make_field(16), make_ring(5),
                                 make_ring(7), make_ring(31)], ids=str)
def test_cached_solve_matches_uncached_oracle(alg):
    rng = random.Random(f"solve:{alg}")
    shapes = [(0, 0), (3, 0), (1, 1), (2, 2), (3, 3), (5, 3), (6, 4), (2, 4), (3, 5), (7, 7)]
    seen = set()
    for nrows, ncols in shapes * 6:
        rows = random_system(alg, rng, nrows, ncols)
        for _ in range(4):
            x = [rng.getrandbits(alg.element_bits) for _ in range(ncols)]
            b = [0] * nrows
            for i, row in enumerate(rows):
                for a, v in zip(row, x):
                    b[i] ^= alg.mul_bits(a, v)
            if nrows and rng.random() < 0.5:
                b[rng.randrange(nrows)] ^= 1 + rng.getrandbits(alg.element_bits - 1)
            want = oracle_solve_bits(alg, rows, b)
            assert solve_ab(Matrix(alg, rows), b) == want
            assert solve_ab(Matrix(alg, tuple(map(tuple, rows))), b) == want
            seen.add(want[0])
    if alg == make_ring(7):
        for a, b, want in split_pivot_systems(alg):
            assert oracle_solve_bits(alg, a, b) == want
            assert solve_ab(Matrix(alg, a), b) == want
    assert seen == {"ok", "inconsistent", "deficient"}


def test_cached_statuses_on_cache_hits(gf16, ring7):
    linalg._solve_plan.cache_clear()
    tall = [[1], [2]]
    assert solve_ab(Matrix(gf16, tall), [3, 7]) == ("inconsistent", None)
    assert solve_ab(Matrix(gf16, tall), [3, 6]) == ("ok", [3])
    assert solve_ab(Matrix(gf16, tall), [3, 7]) == ("inconsistent", None)
    wide = [[1, 2]]
    assert solve_ab(Matrix(gf16, wide), [3]) == ("deficient", None)
    assert solve_ab(Matrix(gf16, wide), [0]) == ("deficient", None)
    # deficient in factor 0, and inconsistent in factor 1 for b = (1, 0):
    # deficiency still wins when the plan comes from the cache
    u = ring7.crt_bits([0, 1])
    for b in ([1, 0], [0, 0], [1, 0]):
        assert solve_ab(Matrix(ring7, [[u], [u]]), b) == ("deficient", None)
    info = linalg._solve_plan.cache_info()
    assert (info.misses, info.hits) == (3, 5)


def test_solve_bits_reads_only_the_known_slots_and_checks_its_arguments(gf16):
    # m·vec = 0 at cols: x_0 + 2·x_1 = 3·v and x_1 = v for v at slot 2
    m = Matrix(gf16, [[1, 2, 3], [0, 1, 1]])
    want = solve_bits(m, [0, 0, 5], (0, 1))
    assert want[0] == "ok" and want == solve_bits(m, [9, 14, 5], [0, 1])
    x0, x1 = want[1]
    assert x0 ^ gf16.mul_bits(2, x1) ^ gf16.mul_bits(3, 5) == 0 and x1 == 5
    with pytest.raises(ShapeMismatchError):
        solve_bits(m, [0, 5], (0, 1))
    for cols in ((1, 0), (0, 3), (-1,), (1, 1)):
        with pytest.raises(IndexOutOfRangeError):
            solve_bits(m, [0, 0, 5], cols)

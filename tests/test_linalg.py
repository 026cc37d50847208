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
from sdcode.linalg import factor_ranks, full_column_rank, identity, mul_vector, solve_bits
from sdcode.errors import (
    AlgebraMismatchError,
    IndexOutOfRangeError,
    NotSquareError,
    ShapeMismatchError,
    SingularSystemError,
)


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


def test_from_elements_checks_algebra(gf16, gf256):
    a = gf16.element(3)
    b = gf256.element(3)
    m = Matrix.from_elements([[a, a], [a, a]])
    assert m.algebra == gf16
    with pytest.raises(AlgebraMismatchError):
        Matrix.from_elements([[a, b]])


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
    status, x = solve_bits(gf16, [[1], [2]], [3, 6])
    assert status == "ok" and gf16.mul_bits(2, x[0]) == 6 and x[0] == 3
    status, _ = solve_bits(gf16, [[1], [2]], [3, 7])
    assert status == "inconsistent"
    # column 0 is zero in row 0, so row 1 pivots column 0 and row 0
    # column 1: back-substitution has to follow the pivot rows, not row order
    for alg in (gf16, ring7):
        a = [[0, alg.alpha_pow_bits(1)],
             [alg.alpha_pow_bits(2), 1],
             [1, alg.alpha_pow_bits(3)]]
        x = [alg.alpha_pow_bits(4), alg.alpha_pow_bits(5)]
        b = [alg.mul_bits(row[0], x[0]) ^ alg.mul_bits(row[1], x[1]) for row in a]
        assert solve_bits(alg, a, b) == ("ok", x)
        b[2] ^= 1
        assert solve_bits(alg, a, b) == ("inconsistent", None)
    status, _ = solve_bits(gf16, [[1, 2]], [3])
    assert status == "deficient"
    status, x = solve_bits(gf16, [], [])
    assert status == "ok" and x == []


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
        status, got = solve_bits(ring7, m.bits, b)
        assert status == "ok" and got == x


def test_solve_bits_ring_deficient_beats_inconsistent(ring7):
    # in factor 0 the matrix is singular; make factor 1 inconsistent too:
    # the combined verdict must be "deficient" (an erasure-decoding retry
    # cannot fix inconsistency, but deficiency is the stronger statement)
    u = ring7.crt_bits([0, 1])
    status, _ = solve_bits(ring7, [[u], [u]], [1, 0])
    assert status == "deficient"
    # the same system is inconsistent on its own in factor 1
    assert solve_bits(make_field(3, 0xD), [[1], [1]], [1, 0])[0] == "inconsistent"


def test_mul_vector_shapes(gf16):
    m = Matrix(gf16, [[1, 2], [3, 4]])
    with pytest.raises(ShapeMismatchError):
        mul_vector(m, [gf16.one])
    with pytest.raises(ShapeMismatchError):
        solve(m, [gf16.one])

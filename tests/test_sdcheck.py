"""Exhaustive SD verification, erasure patterns, and shortening."""
import io
import random
from itertools import combinations
from math import comb, gcd

import pytest

from sdcode import (
    ErasurePattern,
    Ring,
    build_h1,
    build_h2,
    build_h_generic,
    enumerate_patterns,
    erased_columns,
    is_pattern_decodable,
    is_sd,
    make_field,
    make_ring,
    pattern_from_text,
    pattern_to_text,
    read_matrix,
    sd_depth,
    shorten,
)
from sdcode import sdcheck
from sdcode.algebra import _Gf2mOps
from sdcode.search import SearchConfig, random_nonzero, run_search
from sdcode.construct import _FORMULAS, CodeSpec, ParityCheckMatrix, _exponent_rows, _of_bits
from sdcode.linalg import Matrix, det_bits, determinant, eliminate, submatrix
from sdcode.sdcheck import SdReport, validate_pattern
from sdcode.errors import (
    BadRowCountError,
    PatternInvalidError,
    TooManyErasuresError,
)
from fixtures import mul_sum


def naive_is_sd(hm):
    """Reference implementation: test every pattern column set directly."""
    checked = 0
    witness = None
    for p in enumerate_patterns(hm.spec):
        checked += 1
        if witness is None and not is_pattern_decodable(hm, p):
            witness = p
    return witness, checked


def corrupt(hm, i, j, bits):
    rows = [list(r) for r in hm.matrix.bits]
    rows[i][j] = bits
    return ParityCheckMatrix(hm.spec, Matrix(hm.spec.algebra, rows))


# ------------------------------------------------------------- patterns

def test_pattern_normalizes_order():
    p = ErasurePattern(disks=(3, 1), sectors=((2, 0), (0, 4)))
    assert p.disks == (1, 3)
    assert p.sectors == ((0, 4), (2, 0))


def test_pattern_reads_numbers_through_index():
    # int() would turn sector (0.9, 2) into (0, 2) and read "2"; a float
    # disk would fail only later, inside submatrix
    for disks, sectors in (((1,), ((0.9, 2),)), ((1,), (("2", 3),)),
                           ((1.0,), ()), (("1",), ())):
        with pytest.raises(TypeError):
            ErasurePattern(disks, sectors)


def test_validate_pattern_errors(gf16):
    spec = build_h1(3, 5, gf16).spec
    validate_pattern(ErasurePattern((2,), ((0, 0), (1, 4))), spec)
    cases = [
        ErasurePattern((1, 2), ()),             # two disks but m = 1
        ErasurePattern((5,), ()),               # disk out of range
        ErasurePattern((0,), ((3, 1),)),        # row out of range
        ErasurePattern((0,), ((1, 5),)),        # sector disk out of range
        ErasurePattern((0,), ((1, 0),)),        # sector inside the failed disk
        ErasurePattern((2, 2), ()),             # duplicate disk
    ]
    for p in cases:
        with pytest.raises(PatternInvalidError):
            validate_pattern(p, spec)
    with pytest.raises(PatternInvalidError):
        validate_pattern(
            ErasurePattern((0,), ((1, 1), (1, 1))), spec)  # duplicate sector


def test_erased_columns(gf16):
    spec = build_h1(3, 5, gf16).spec
    p = ErasurePattern((1,), ((0, 0), (2, 3)))
    # disk 1 kills columns 1, 6, 11; sectors kill 0 and 13
    assert erased_columns(p, spec) == [0, 1, 6, 11, 13]
    assert erased_columns(ErasurePattern(), spec) == []


def test_enumerate_patterns_count_and_order(gf16):
    spec = build_h1(3, 5, gf16).spec
    pats = list(enumerate_patterns(spec))
    assert len(pats) == comb(5, 1) * comb(4 * 3, 2) == 330
    assert len(set(pats)) == len(pats)
    # lexicographic in (disks, sectors)
    assert pats == sorted(pats, key=lambda p: (p.disks, p.sectors))
    for p in pats:
        assert len(p.disks) == 1 and len(p.sectors) == 2
        validate_pattern(p, spec)


def test_pattern_text_round_trip():
    p = ErasurePattern((1, 3), ((0, 2), (4, 0)))
    text = pattern_to_text(p)
    assert text == "d=1,3 s=0:2,4:0"
    assert pattern_from_text(text) == p
    empty = ErasurePattern()
    assert pattern_to_text(empty) == "d=- s=-"
    assert pattern_from_text("d=- s=-") == empty
    for bad in ("", "d=1", "s=0:1", "d=1 s=0", "d=x s=-", "d=1 s=0:1 extra=2",
                "d=0 s=0:2 d=1", "d=\u0660 s=1_0:2", "d=+0 s=-", "d=- s=0:-1"):
        with pytest.raises(ValueError):
            pattern_from_text(bad)


# ------------------------------------------------------- decodability

def test_is_pattern_decodable_and_limits(gf16):
    hm = build_h1(3, 5, gf16)
    assert is_pattern_decodable(hm, ErasurePattern())
    assert is_pattern_decodable(hm, ErasurePattern((0,), ((0, 1), (2, 4))))
    too_many = ErasurePattern(
        (0,), ((0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)))
    with pytest.raises(TooManyErasuresError):
        is_pattern_decodable(hm, too_many)


# ------------------------------------------------------------- is_sd

def test_both_families_are_sd_at_reference_sizes(gf16, ring17):
    for hm, expect in (
        (build_h1(3, 5, gf16), 5 * comb(12, 2)),       # 330
        (build_h1(5, 3, gf16), 3 * comb(10, 2)),       # 135
        (build_h1(4, 4, ring17), 4 * comb(12, 2)),     # 264
        (build_h2(3, 5, gf16), comb(5, 2) * comb(9, 2)),   # 360
        (build_h2(5, 3, gf16), comb(3, 2) * comb(5, 2)),   # 30
        (build_h2(4, 4, ring17), comb(4, 2) * comb(8, 2)), # 168
    ):
        rep = is_sd(hm)
        assert rep.sd and rep.witness is None
        assert rep.patterns_checked == expect


def test_is_sd_matches_naive_on_corrupted_matrices(gf16, ring17):
    h = build_h1(3, 5, gf16)
    bad = corrupt(h, 3, 0, h.matrix.bits[3][1])  # duplicate a global entry
    rep = is_sd(bad)
    naive_witness, checked = naive_is_sd(bad)
    assert not rep.sd
    assert rep.patterns_checked == checked == 330
    assert rep.witness == naive_witness
    # every pattern of this shape erases r + 2 = 5 columns, so each
    # verdict can be cross-checked against a square determinant
    for p in enumerate_patterns(bad.spec):
        cols = erased_columns(p, bad.spec)
        sub = submatrix(bad.matrix, range(bad.matrix.rows), cols)
        assert sub.rows == sub.cols == 5
        assert is_pattern_decodable(bad, p) == (determinant(sub).bits != 0)


def test_is_sd_corrupted_ring_matrix(ring17):
    h = build_h1(4, 4, ring17)
    bad = corrupt(h, 4, 0, h.matrix.bits[4][6])
    rep = is_sd(bad)
    naive_witness, _ = naive_is_sd(bad)
    assert not rep.sd
    assert rep.witness == naive_witness


def test_witness_independent_of_jobs(gf16):
    h = build_h2(3, 5, gf16)
    bad = corrupt(h, 6, 1, h.matrix.bits[6][0])
    reports = [is_sd(bad, jobs=j) for j in (1, 2, 4)]
    assert len({(r.sd, r.witness, r.patterns_checked) for r in reports}) == 1
    assert not reports[0].sd


@pytest.mark.parametrize("p,r", [(29, 5), (41, 4), (127, 3)])
def test_jobs_invariant_on_cold_factor_tables(p, r):
    # fresh rings, not the make_ring cache, so jobs=4 scans with factor
    # fields, projection and CRT tables and Schur plans that
    # no earlier call has used; M_29 is irreducible (one tableless
    # GF(2^28), whose fold tables are built with it)
    def reports(jobs):
        h = build_h2(r, 5, Ring(p))
        bad = corrupt(h, 2 * r + 1, 2, h.matrix.bits[2 * r + 1][0])
        return [is_sd(hm, jobs=jobs) for hm in (h, bad)]
    assert reports(4) == reports(1)
    assert [rep.sd for rep in reports(1)] == [True, False]


def _m1(alg, columns, n=3):
    """m = 1, s = len(columns[0]), r = len(columns) / (n - 1), with
    all-ones local rows, built so that the residual columns of disk set
    (0,) are `columns`, in the order of the survivors (0,1), ..., (0,n-1),
    (1,1), ..."""
    s, r = len(columns[0]), len(columns) // (n - 1)
    it = iter(columns)
    glob = [[] for _ in range(s)]
    for i in range(r):
        for g in glob:
            g.append(1)
        for _ in range(1, n):
            for g, v in zip(glob, next(it)):
                g.append(v ^ 1)
    local = [[1 if c // n == i else 0 for c in range(r * n)] for i in range(r)]
    spec = CodeSpec(n=n, m=1, s=s, r=r, algebra=alg, family="generic")
    return ParityCheckMatrix(spec, Matrix(alg, local + glob))


def _ring7_columns(per_factor):
    """Ring p=7 residual columns from their residues mod the two factors
    (0xb, 0xd) of M_7(x)."""
    ring7 = make_ring(7)
    assert ring7.factorization.factors == (0xB, 0xD)
    return [tuple(ring7.crt_bits([a, b]) for a, b in zip(f1, f2))
            for f1, f2 in per_factor]


def _random_matrix(alg, n, m, s, r, seed):
    """Local blocks and global rows over a four-letter alphabet that
    includes 0, so local blocks can be singular and pairs dependent."""
    rng = random.Random(seed)
    alphabet = [0, 1] + [rng.randrange(2, 1 << alg.element_bits) for _ in range(2)]
    rows = []
    for i in range(r):
        for _ in range(m):
            row = [0] * (r * n)
            row[i * n:(i + 1) * n] = rng.choices(alphabet, k=n)
            rows.append(row)
    rows += [rng.choices(alphabet, k=r * n) for _ in range(s)]
    spec = CodeSpec(n=n, m=m, s=s, r=r, algebra=alg, family="generic")
    return ParityCheckMatrix(spec, Matrix(alg, rows))


# (name, matrix factory, first failing survivor pair of disk set (0,))
_CRAFTED = [
    # column 2 is zero: it fails with every other column
    ("zero-column", lambda: _m1(make_field(4), [(1, 2), (3, 5), (0, 0), (6, 7)]),
     (0, 2)),
    # columns 0 and 3 have r0 = 0 (ratio marker); column 1 has r1 = 0
    # (ratio 0), which must not pair with them
    ("infinite-ratio", lambda: _m1(make_field(4), [(0, 3), (5, 0), (2, 4), (0, 7)]),
     (0, 3)),
    # ratios 2, 3, 3, 2: both (0, 3) and (1, 2) fail; (0, 3) comes first
    ("two-pairs", lambda: _m1(make_field(4), [(1, 2), (1, 3), (1, 3), (1, 2)]),
     (0, 3)),
    ("two-pairs-gf4", lambda: _m1(make_field(2), [(1, 2), (1, 3), (1, 3), (1, 2)]),
     (0, 3)),
    # column 2 is zero mod 0xd only; mod 0xb all four ratios differ
    ("one-ring-factor", lambda: _m1(make_ring(7), _ring7_columns(
        [((1, 2), (1, 2)), ((1, 4), (1, 4)), ((1, 1), (0, 0)), ((2, 1), (2, 1))])),
     (0, 2)),
    # mod 0xb the first failing pair is (1, 2), mod 0xd it is (0, 3)
    ("first-pair-across-factors", lambda: _m1(make_ring(7), _ring7_columns(
        [((1, 2), (1, 2)), ((1, 3), (1, 4)), ((1, 3), (1, 5)), ((1, 6), (1, 2))])),
     (0, 3)),
]


def _brute_first_pair(mul, r0, r1):
    """The first column pair whose 2 x 2 determinant is zero, by trying them all."""
    return next(((i, j) for i, j in combinations(range(len(r0)), 2)
                 if mul(r0[i], r1[j]) == mul(r0[j], r1[i])), None)


@pytest.mark.parametrize("make", [lambda: make_field(4).ops, lambda: make_field(8).ops,
                                  lambda: make_ring(41).factor_ops[0],
                                  lambda: make_ring(37).factor_ops[0],
                                  lambda: make_ring(101).factor_ops[0],
                                  lambda: make_ring(269).factor_ops[0]],
                         ids=["gf16", "gf256", "tableless-gf2^20", "fold-gf2^36", "fold-gf2^100",
                              "wide-fold-gf2^268"])
def test_the_set_test_agrees_with_the_backward_pass(make):
    # rows of pairwise distinct ratios, then with planted faults: a
    # duplicate ratio, one or two x = 0 columns, one or two y = 0 columns,
    # and a lone all-zero column at the first, a middle and the last place;
    # tableless keys are spread products, by Barrett reduction at degree
    # 20 and by folding at x^p in M_37, M_101 and M_269 (two-byte slots)
    ops = make()
    rng = random.Random(f"set-test/{ops.modulus:x}")
    outcomes = {"set test": 0, "backward": 0}
    for _ in range(60):
        size = rng.randint(2, min(12, ops.qm1))
        ratios = []                     # pairwise distinct and nonzero
        while len(ratios) < size:
            k = rng.randrange(1, ops.q)
            if k not in ratios:
                ratios.append(k)
        r0 = [rng.randrange(1, ops.q) for _ in range(size)]
        r1 = [ops.mul(x, k) for x, k in zip(r0, ratios)]
        i, j = sorted(rng.sample(range(size), 2))
        mid = size // 2
        cases = [(r0, r1)]
        cases.append((r0, r1[:j] + [ops.mul(r0[j], ratios[i])] + r1[j + 1:]))
        for cols, row in (((i,), 0), ((i, j), 0), ((i,), 1), ((i, j), 1)):
            planted = [list(r0), list(r1)]
            for c in cols:
                planted[row][c] = 0
            cases.append(tuple(planted))
        for at in (0, mid, size - 1):
            cases.append(([0 if c == at else v for c, v in enumerate(r0)],
                          [0 if c == at else v for c, v in enumerate(r1)]))
        for a, b in cases:
            keys = ops.ratios(a, b)
            got = sdcheck._first_singular_pair(ops, a, b)
            assert got == sdcheck._first_pair_backward(a, b, keys)
            assert got == _brute_first_pair(ops.mul, a, b)
            outcomes["set test" if len(set(keys)) == len(keys) and got is None else "backward"] += 1
    assert min(outcomes.values()) > 100


def _brute_first_singular(mul, rows, s):
    """The first s-column subset whose s x s determinant is zero, by trying
    them all in combinations order."""
    return next((c for c in combinations(range(len(rows[0])), s)
                 if not det_bits(mul, [[row[j] for j in c] for row in rows])), None)


@pytest.mark.parametrize("make", [lambda: make_field(4).ops, lambda: make_field(8).ops,
                                  lambda: make_field(16).ops,
                                  lambda: make_ring(41).factor_ops[0],
                                  lambda: make_ring(101).factor_ops[0]],
                         ids=["gf16", "gf256", "gf65536", "tableless-gf2^20", "fold-gf2^100"])
def test_the_chart_peel_agrees_with_the_subset_oracle(make, monkeypatch):
    # s = 3, 4 and 5 rows, zero-free, then with planted faults: a zero in
    # every row (no chart: the elimination fallback), two coincident
    # columns up to a factor, and a collinear triple among the last
    # columns; eliminate runs only in a call whose every row has a zero
    ops = make()
    rng = random.Random(f"chart/{ops.modulus:x}")
    calls, eliminated = [], []
    first_singular = sdcheck._first_singular

    def spy_first_singular(ops, rows, s):
        calls.append(rows)
        try:
            return first_singular(ops, rows, s)
        finally:
            calls.pop()

    def spy_eliminate(*args):
        assert all(not all(row) for row in calls[-1])
        eliminated.append(args)
        return eliminate(*args)

    monkeypatch.setattr(sdcheck, "_first_singular", spy_first_singular)
    monkeypatch.setattr(sdcheck, "eliminate", spy_eliminate)
    outcomes = {"fails": 0, "passes": 0, "fallback": 0}
    for s in (3, 4, 5):
        for _ in range(3 if ops.degree > 16 else 6):
            size = rng.randint(s + 1, s + 4)
            rows = [[rng.randrange(1, ops.q) for _ in range(size)] for _ in range(s)]
            zeros = [list(row) for row in rows]
            for row in zeros:
                row[rng.randrange(size)] = 0
            a, b = sorted(rng.sample(range(size), 2))
            c = rng.randrange(1, ops.q)
            coincident = [row[:b] + [ops.mul(c, row[a])] + row[b + 1:] for row in rows]
            x, y = rng.randrange(1, ops.q), rng.randrange(1, ops.q)
            collinear = [row[:-1] + [ops.mul(x, row[-3]) ^ ops.mul(y, row[-2])] for row in rows]
            for case in (rows, zeros, coincident, collinear):
                before = len(eliminated)
                got = sdcheck._first_singular(ops, [list(row) for row in case], s)
                assert got == _brute_first_singular(ops.mul, case, s), (s, case)
                assert case is not rows or s > 3 or len(eliminated) == before
                outcomes["fails" if got else "passes"] += 1
                outcomes["fallback"] += case is zeros and len(eliminated) > before
    assert all(outcomes.values()), outcomes


# (name, matrix factory, first failing survivor triple of disk set (0,));
# n = 4 and r = 2, so disk set (0,) has six survivors
_CRAFTED_TRIPLES = [
    # column 0 is zero: the first triple it leads fails
    ("zero-column", lambda: _m1(make_field(4), [
        (0, 0, 0), (15, 1, 10), (10, 14, 11), (0, 14, 5), (9, 13, 0), (8, 3, 4)], n=4),
     (0, 1, 2)),
    # no two columns are dependent, but the triples (1, 3, 4) and (2, 3, 5) are
    ("pairwise-independent", lambda: _m1(make_field(4), [
        (6, 3, 14), (15, 1, 10), (10, 14, 11), (0, 14, 5), (9, 13, 0), (8, 3, 4)], n=4),
     (1, 3, 4)),
    # column 0 is nonzero only in row 1 (below: only in row 2), so its
    # pivot is not row 0
    ("pivot-in-row-1", lambda: _m1(make_field(4), [
        (0, 10, 0), (8, 10, 14), (12, 1, 2), (11, 6, 5), (15, 13, 15), (15, 11, 11)], n=4),
     (0, 2, 5)),
    ("pivot-in-row-2", lambda: _m1(make_field(4), [
        (0, 0, 14), (4, 3, 6), (3, 0, 2), (4, 1, 8), (13, 14, 11), (14, 14, 9)], n=4),
     (0, 3, 4)),
    # mod 0xb the first failing triple is (1, 2, 4), mod 0xd it is (0, 3, 5)
    ("first-triple-across-factors", lambda: _m1(make_ring(7), _ring7_columns([
        ((2, 1, 6), (1, 5, 5)), ((0, 0, 7), (4, 2, 1)), ((0, 6, 2), (5, 3, 3)),
        ((1, 7, 7), (5, 6, 0)), ((0, 2, 0), (0, 1, 7)), ((5, 0, 6), (3, 2, 3))]), n=4),
     (0, 3, 5)),
]


def _assert_first_failure(hm, subset):
    rep = is_sd(hm)
    naive_witness, checked = naive_is_sd(hm)
    survivors = [(i, j) for i in range(hm.spec.r) for j in range(1, hm.spec.n)]
    assert naive_witness == ErasurePattern((0,), tuple(survivors[t] for t in subset))
    assert (rep.sd, rep.witness, rep.patterns_checked) == (False, naive_witness, checked)


@pytest.mark.parametrize("build,pair", [c[1:] for c in _CRAFTED],
                         ids=[c[0] for c in _CRAFTED])
def test_is_sd_matches_naive_on_crafted_pairs(build, pair):
    _assert_first_failure(build(), pair)


@pytest.mark.parametrize("build,triple", [c[1:] for c in _CRAFTED_TRIPLES],
                         ids=[c[0] for c in _CRAFTED_TRIPLES])
def test_is_sd_matches_naive_on_crafted_triples(build, triple):
    _assert_first_failure(build(), triple)


_ALGEBRAS = {"gf4": lambda: make_field(2), "gf16": lambda: make_field(4),
             "ring7": lambda: make_ring(7), "ring17": lambda: make_ring(17),
             "ring31": lambda: make_ring(31)}
# (n, m, s, r); the last four have (n - m) r < s, so no pattern exists
_SHAPES = [(3, 1, 0, 2), (3, 1, 1, 2), (3, 1, 2, 2), (4, 1, 2, 2), (4, 2, 2, 1),
           (3, 1, 3, 2), (4, 2, 3, 2), (4, 3, 2, 2), (4, 1, 3, 1),
           (3, 1, 4, 2), (4, 1, 4, 2),
           (4, 3, 2, 1), (3, 2, 2, 1), (4, 3, 3, 1), (3, 2, 3, 1)]


@pytest.mark.parametrize("alg_name", sorted(_ALGEBRAS))
def test_is_sd_matches_naive_on_random_matrices(alg_name):
    alg = _ALGEBRAS[alg_name]()
    verdicts = set()
    for seed in range(8):
        for n, m, s, r in _SHAPES:
            hm = _random_matrix(alg, n, m, s, r, seed=f"{alg_name}/{seed}/{n}{m}{s}{r}")
            rep = is_sd(hm)
            naive_witness, checked = naive_is_sd(hm)
            assert rep == SdReport(naive_witness is None, naive_witness, checked), (
                alg_name, seed, (n, m, s, r))
            verdicts.add(rep.sd)
    assert verdicts == {True, False}


@pytest.mark.parametrize("alg_name", ["gf16", "ring7"])
def test_is_sd_with_dependent_disk_columns_but_no_patterns(alg_name):
    # (n - m) r = 1 < s: no pattern exists, so the code is SD with 0
    # patterns checked even though disk columns 0 and 1 are equal
    alg = _ALGEBRAS[alg_name]()
    a = alg.alpha_pow_bits
    spec = CodeSpec(n=4, m=3, s=2, r=1, algebra=alg, family="generic")
    hm = ParityCheckMatrix(spec, Matrix(alg, [[1, 1, a(k), a(2 * k)] for k in range(1, 6)]))
    assert naive_is_sd(hm) == (None, 0)
    assert is_sd(hm) == SdReport(True, None, 0)


def test_is_sd_python_path_without_tables():
    # p = 37: the factor field is GF(2^36), far past the table limit, so
    # the generic big-int path runs; tiny stripe keeps it fast
    ring37 = make_ring(37)
    hm = build_h1(1, 3, ring37)
    rep = is_sd(hm)
    assert rep.patterns_checked == comb(3, 1) * comb(2, 2) == 3
    assert rep.sd


def test_is_sd_generic_s_values(gf16):
    # s = 0: only whole-disk failures; local rows alone recover them
    g0 = build_h_generic(n=4, m=1, s=0, r=2, global_rows=[], algebra=gf16)
    # s = 0 with a local row that is zero at disk 1: that disk alone fails
    spec0 = CodeSpec(n=3, m=1, s=0, r=2, algebra=gf16, family="generic")
    bad0 = ParityCheckMatrix(spec0, Matrix(gf16, [[1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]))
    # s = 1 with the single-exponent global row
    g1 = build_h_generic(n=4, m=1, s=1, r=2,
                         global_rows=[[gf16.alpha_pow(c) for c in range(8)]],
                         algebra=gf16)
    # s = 1 with a zero residual column: sector (0, 2) of disk set (0,)
    bad1 = _m1(gf16, [(3,), (0,), (5,), (7,)])
    expected = [(g0, SdReport(True, None, 4)),
                (bad0, SdReport(False, ErasurePattern((1,), ()), 3)),
                (g1, SdReport(True, None, 4 * 6)),
                (bad1, SdReport(False, ErasurePattern((0,), ((0, 2),)), 3 * 4))]
    for hm, report in expected:
        naive_witness, checked = naive_is_sd(hm)
        assert is_sd(hm) == SdReport(naive_witness is None, naive_witness, checked) == report


def test_is_sd_progress_callback(gf16, monkeypatch):
    # each disk set is reported as its scan finishes, not after all of
    # them: once the residual stream has handed out its plan batch (64
    # bits hold two disk sets of w = 4 byte lanes) and, where the scan
    # reads it, that disk set's item.  On the row-scaled path an SD code's
    # batches pass whole, so no item is read; on the generic path each is
    monkeypatch.setattr(sdcheck, "_PLAN_BITS", 64)
    handed = []
    scans = _record_residuals(monkeypatch, handed)
    hm = build_h1(3, 5, gf16)
    for path in ("row-scaled", "generic"):
        assert _scaled(hm) == [path == "row-scaled"]
        for jobs in (0, 1):
            seen = []
            scans.clear()
            handed.clear()
            is_sd(hm, jobs=jobs, progress=lambda done, total: seen.append(
                (done, total, sum(map(len, handed)), len(scans))))
            read = [0] * 5 if path == "row-scaled" else [1, 2, 3, 4, 5]
            assert seen == [(done, 5, min(5, done + done % 2), k)
                            for done, k in zip(range(1, 6), read)]
        monkeypatch.setattr(sdcheck, "_row_scaled", lambda *a: None)


def test_is_sd_stops_at_the_first_failing_disk_set(gf16, monkeypatch):
    # the witness is in disk set 7 of 10: no disk set after it is scanned
    # or reported, and the count is still every pattern
    h = build_h2(3, 5, gf16)
    bad = corrupt(h, 3, 9, h.matrix.bits[3][0])
    naive_witness, checked = naive_is_sd(bad)
    disk_sets = list(combinations(range(5), 2))
    k = disk_sets.index(naive_witness.disks) + 1
    assert k == 7
    scans, seen = [], []
    group = sdcheck._group
    monkeypatch.setattr(sdcheck, "_group", lambda *a: scans.append(a[2]) or group(*a))
    report = is_sd(bad, progress=lambda done, total: seen.append((done, total)))
    assert report == SdReport(False, naive_witness, checked)
    assert seen == [(done, 10) for done in range(1, k + 1)]
    assert scans == disk_sets[:k]


def test_is_sd_builds_no_schur_plan_past_its_witness_batch(gf16, monkeypatch):
    # 72 bits hold 3 disk sets of w = 3 byte lanes: batches start at disk
    # sets 0, 3, 6 and 9, and the witness, disk set 7 of 10, is in the third
    monkeypatch.setattr(sdcheck, "_PLAN_BITS", 72)
    h = build_h2(3, 5, gf16)
    bad = corrupt(h, 3, 9, h.matrix.bits[3][0])
    naive_witness, checked = naive_is_sd(bad)
    firsts, plan = [], sdcheck._schur_plan
    monkeypatch.setattr(sdcheck, "_schur_plan", lambda ops, block, first, stop:
                        firsts.append(first) or plan(ops, block, first, stop))
    assert is_sd(bad) == SdReport(False, naive_witness, checked)
    assert sorted(set(firsts)) == [0, 3, 6]
    firsts.clear()
    assert is_sd(h).sd and firsts == [0, 3, 6, 9]


# ------------------------------------------ Schur residual against eliminate

def _eliminate_scan_group(views, spec, disks):
    """The group scan as it was before the Schur residual, kept as the
    oracle: per factor view, copy all mr + s rows, eliminate the mr disk
    columns, and sweep the s rows left."""
    mr = spec.m * spec.r
    disk_cols = sorted(spec.column_of(i, d) for i in range(spec.r) for d in disks)
    survivors = sdcheck._survivors(spec, disks)
    if len(survivors) < spec.s:
        return None
    survivor_cols = [spec.column_of(i, d) for i, d in survivors]
    firsts = []
    for ops, rows in views:
        work = [list(r) for r in rows]
        used = set(eliminate(ops, work, disk_cols))
        if len(used) < mr:
            firsts.append(tuple(range(spec.s)))
            break
        residual = [[work[t][c] for c in survivor_cols]
                    for t in range(len(work)) if t not in used]
        firsts.append(sdcheck._first_singular(ops, residual, spec.s))
    first = min((f for f in firsts if f is not None), default=None)
    return None if first is None else ErasurePattern(disks, [survivors[t] for t in first])


def _assert_groups_match_oracle(hm):
    """Every disk set's witness at every depth d equals the oracle's on
    the code shortened to d stripe rows; returns the number of groups
    that fail at depth r."""
    spec = hm.spec
    views = sdcheck._local_blocks(hm)
    codes = [(c.spec, spec.algebra.factor_views(c.matrix.bits))
             for c in [shorten(hm, d) for d in range(1, spec.r)] + [hm]]
    failing = 0
    for disks, residuals in _stream(spec, views):
        first_at = sdcheck._group(spec, views, disks, residuals)
        assert first_at(0) is None
        for short, plain in codes:
            want = _eliminate_scan_group(plain, short, disks)
            assert first_at(short.r) == want, (spec, short.r, disks)
        failing += want is not None
    return failing


def _random_generic(alg, n, m, s, r, rng):
    return build_h_generic(n, m, s, r, [[random_nonzero(rng, alg) for _ in range(r * n)]
                                        for _ in range(s)], alg)


_DIFF_ALGEBRAS = {"gf4": lambda: make_field(2), "gf16": lambda: make_field(4),
                  "gf256": lambda: make_field(8), "ring5": lambda: make_ring(5),
                  "ring7": lambda: make_ring(7), "ring17": lambda: make_ring(17)}


@pytest.mark.parametrize("alg_name", sorted(_DIFF_ALGEBRAS))
def test_schur_scan_matches_eliminate_on_random_generic_codes(alg_name):
    # GF(4) and ring p=5 have O(alpha) <= 5, so n = m + 3 repeats an
    # alpha power and some Vandermonde blocks are singular (the fallback)
    alg = _DIFF_ALGEBRAS[alg_name]()
    rng = random.Random(alg_name)
    verdicts = set()
    for m in (1, 2, 3):
        for s in range(4):
            for _ in range(2):
                n, r = m + rng.randint(1, 3), rng.randint(1, 4)
                hm = _random_generic(alg, n, m, s, r, rng)
                failing = _assert_groups_match_oracle(hm)
                if comb(n, m) * comb((n - m) * r, s) <= 300:     # small enough for naive
                    naive_witness, checked = naive_is_sd(hm)
                    assert is_sd(hm) == SdReport(naive_witness is None, naive_witness, checked)
                verdicts.add(failing == 0)
    assert verdicts == {True, False}


@pytest.mark.parametrize("build", [
    lambda: build_h2(2, 16, make_field(16)), lambda: build_h1(3, 16, make_field(16)),
    lambda: build_h2(2, 16, make_field(8)), lambda: build_h2(3, 5, make_ring(127)),
    lambda: _random_generic(make_field(16), 6, 1, 3, 2, random.Random(7919)),
    lambda: build_h2(2, 5, make_ring(101)), lambda: build_h2(2, 5, make_ring(41)),
    lambda: build_h2(2, 5, make_ring(37)), lambda: build_h2(2, 5, make_ring(269))],
    ids=["c2_r2_n16_gf65536", "c1_r3_n16_gf65536", "c2_r2_n16_gf256", "c2_r3_n5_ring127",
         "generic_m1_s3_r2_n6_gf65536", "c2_r2_n5_ring101", "c2_r2_n5_ring41",
         "c2_r2_n5_ring37", "c2_r2_n5_ring269"])
def test_schur_scan_matches_eliminate_on_small_ladder_shapes(build):
    hm = build()
    assert _assert_groups_match_oracle(hm) == 0
    # H column 1 copied onto column 2: disk sets holding both disks have a
    # singular block in stripe row 0, the others fail on sectors (0, 1), (0, 2)
    rows = [list(r) for r in hm.matrix.bits]
    for row in rows:
        row[2] = row[1]
    twin = ParityCheckMatrix(hm.spec, Matrix(hm.spec.algebra, rows))
    assert _assert_groups_match_oracle(twin) == comb(hm.spec.n, hm.spec.m)
    # the n = 5 ring shapes, whose tableless keys fold at x^p (p = 37, 101,
    # 269) or take Barrett reduction (p = 41), are small enough for naive
    if sdcheck._patterns(hm.spec, hm.spec.r) <= 300:
        for code in (hm, twin):
            naive_witness, checked = naive_is_sd(code)
            assert is_sd(code) == SdReport(naive_witness is None, naive_witness, checked)


def _hand_made(alg, n, m, s, blocks, global_rows):
    """Local block i of `blocks` (m rows of n entries) on stripe row i."""
    r = len(blocks)
    rows = []
    for i, block in enumerate(blocks):
        for part in block:
            row = [0] * (r * n)
            row[i * n:(i + 1) * n] = part
            rows.append(row)
    spec = CodeSpec(n=n, m=m, s=s, r=r, algebra=alg, family="generic")
    return ParityCheckMatrix(spec, Matrix(alg, rows + [list(g) for g in global_rows]))


def _fallback_cases():
    gf16, ring7 = make_field(4), make_ring(7)
    rng = random.Random(11)
    glob = lambda alg, s, cols: [[rng.randrange(1, 1 << alg.element_bits) for _ in range(cols)]
                                 for _ in range(s)]
    return {
        # stripe rows whose blocks differ from row 0's (no block is singular)
        "differing-blocks": (_hand_made(gf16, 4, 2, 2, [
            [[1, 1, 1, 1], [1, 2, 4, 8]], [[3, 5, 7, 9], [1, 1, 1, 1]],
            [[1, 2, 3, 4], [5, 6, 7, 8]]], glob(gf16, 2, 12)), False),
        # zeros inside blocks, so some disk sets have a singular block
        "zeros-in-blocks": (_hand_made(gf16, 4, 2, 2, [
            [[1, 0, 1, 1], [0, 1, 1, 2]], [[0, 0, 3, 1], [1, 1, 0, 5]]],
            glob(gf16, 2, 8)), True),
        # stripe row 1's block is singular at disk set (0, 2) in the field
        "singular-in-field": (_hand_made(gf16, 4, 2, 3, [
            [[1, 1, 1, 1], [1, 2, 4, 8]], [[1, 1, 1, 1], [6, 1, 6, 3]]],
            glob(gf16, 3, 8)), True),
        # det V at disk set (0, 1) is 0xa + 1 = x^3 + x + 1: zero mod the
        # factor 0xb of M_7(x) only, so one factor view falls back
        "ring7-one-factor": (_hand_made(ring7, 4, 2, 2, [
            [[1, 1, 1, 1], [0xA, 1, 4, 8]], [[1, 1, 1, 1], [0xA, 1, 2, 0x10]]],
            glob(ring7, 2, 8)), True),
        # rows 0 and 2 hold a block regular in both factor views, rows 1
        # and 3 the block singular at (0, 1) mod 0xb only (as in
        # _RING7_ONE_FACTOR_SINGULAR): two distinct blocks in four rows
        "ring7-repeated-blocks": (_hand_made(ring7, 4, 2, 2, [
            [[1, 1, 1, 1], [1, 2, 4, 8]], [[1, 1, 1, 1], [0xA, 1, 4, 8]]] * 2,
            glob(ring7, 2, 16)), True),
    }


@pytest.mark.parametrize("case", sorted(_fallback_cases()))
def test_schur_scan_fallback_on_hand_made_blocks(case, monkeypatch):
    hm, singular = _fallback_cases()[case]
    residuals = _record_residuals(monkeypatch)
    _assert_groups_match_oracle(hm)
    assert (None in residuals) == singular     # some view fell back to eliminate
    naive_witness, checked = naive_is_sd(hm)
    assert is_sd(hm) == SdReport(naive_witness is None, naive_witness, checked)


def test_ring7_block_singular_in_one_factor_view_only():
    hm, _ = _fallback_cases()["ring7-one-factor"]
    views = sdcheck._local_blocks(hm)
    residuals = dict(_stream(hm.spec, views))[(0, 1)]
    assert [res is None for res in residuals] == [True, False]
    assert [_schur_residual(hm.spec, *v[:4], (0, 1)) is None for v in views] == [True, False]


def test_repeated_blocks_singular_in_one_ring_factor_match_eliminate_at_every_depth():
    # disk set (0, 1) eliminates in the factor view of 0xb at every depth,
    # on local rows rebuilt from the two blocks in stripe-row order
    hm, _ = _fallback_cases()["ring7-repeated-blocks"]
    views = sdcheck._local_blocks(hm)
    assert [(len(v[2]), v[3]) for v in views] == [(2, (0, 1, 0, 1))] * 2
    assert [[res is None for res in residuals] for _, residuals in
            _stream(hm.spec, views)] == [[True, False]] + [[False, False]] * 5
    _assert_groups_match_oracle(hm)
    assert sd_depth(hm) == per_depth_sd_depth(hm)


def test_scans_project_only_the_distinct_blocks_and_the_global_rows(monkeypatch):
    # m rows of n entries per distinct local block, then the s global rows:
    # of a row-scaled code's, stripe row 0 and g[n] alone
    cases = [(build_h2(3, 5, make_ring(17)), 1), (build_h1(3, 5, make_field(4)), 1),
             (_fallback_cases()["ring7-repeated-blocks"][0], 2),
             (_fallback_cases()["differing-blocks"][0], 3)]
    for (hm, distinct), scaled in zip(cases, (True, True, False, False)):
        alg, spec = hm.spec.algebra, hm.spec
        assert all(_scaled(hm)) == scaled
        lengths, project = [], alg.factor_views
        monkeypatch.setattr(alg, "factor_views",
                            lambda rows: lengths.append([len(r) for r in rows]) or project(rows))
        is_sd(hm)
        sd_depth(hm)
        monkeypatch.undo()
        want = [spec.n] * (spec.m * distinct) + [spec.n + 1 if scaled else spec.r * spec.n] * spec.s
        assert lengths == [want, want], spec


def _record_residuals(monkeypatch, handed=None):
    """A list that collects every residual (None for a singular V_i) that
    the scan reads from sdcheck._schur_residuals from now on (none of a
    batch it takes whole); each batch's disk sets go to handed, if given,
    as the stream hands the batch out."""
    residuals = []
    schur = sdcheck._schur_residuals

    def record(*args):
        for disk_sets, least, items in schur(*args):
            if handed is not None:
                handed.append(disk_sets)
            yield disk_sets, least, (residuals.extend(found) or found for found in items)
    monkeypatch.setattr(sdcheck, "_schur_residuals", record)
    return residuals


def _stream(spec, views):
    """(disks, each view's item at disks) for every disk set, from the
    batches of sdcheck._schur_residuals."""
    return [pair for disk_sets, _, items in sdcheck._schur_residuals(spec, views)
            for pair in zip(disk_sets, items)]


def _schur_residual(spec, ops, glob, blocks, kind, disks):
    """The per-call Schur step the cached plans replace, kept as their
    oracle: the global rows glob after the Schur step at these disks, None
    if a V_i is singular."""
    m, n, r = spec.m, spec.n, spec.r
    alive = [j for j in range(n) if j not in disks]
    w, coefs = len(alive), []   # per block: det(V), then adj(V) B, on the alive disks
    for block in blocks:
        v = [[row[d] for d in disks] for row in block]
        det = det_bits(ops.mul, v)
        if not det:
            return None
        minor = lambda t, k: det_bits(ops.mul, [vr[:k] + vr[k + 1:] for vr in v[:t] + v[t + 1:]])
        bs = [[row[j] for j in alive] for row in block]
        coefs.append([[det] * w] + [mul_sum(ops, [[minor(t, k)] * w for t in range(m)], bs)
                                    for k in range(m)])
    # column (i, j): g[i,j] det(V) + sum over d of g[i,d] (adj(V) B)[d][j], V = block kind[i]
    factors = [[c for t in kind for c in coefs[t][k]] for k in range(m + 1)]
    at = [[i * n + j for i in range(r) for j in js] for js in [alive] + [[d] * w for d in disks]]
    return [mul_sum(ops, factors, [[g[c] for c in cols] for cols in at]) for g in glob]


def _assert_plans_match_oracle(hm):
    """Every factor view's residual at every disk set equals the oracle's,
    and a row-scaled view's depth and witnesses are those of the oracle's
    residual; returns the number of (view, disk set) items that are None."""
    spec, nones = hm.spec, 0
    views = sdcheck._local_blocks(hm)
    whole = spec.algebra.factor_views(hm.matrix.bits[spec.m * spec.r:])   # every global entry
    stream = _stream(spec, views)
    assert [disks for disks, _ in stream] == list(combinations(range(spec.n), spec.m))
    # a batch's least is its items' smallest depth, 0 where any is not one
    for disk_sets, least, items in sdcheck._schur_residuals(spec, views):
        depths = [item and item[0] if test else None
                  for each, (*_, test) in zip(zip(*items), views) for item in each]
        assert least == (min(depths) if None not in depths else 0)
    for disks, residuals in stream:
        assert len(residuals) == len(views)
        for (ops, _, blocks, kind, test), (_, glob), item in zip(views, whole, residuals):
            want = _schur_residual(spec, ops, glob, blocks, kind, disks)
            if test and item is not None:   # row-scaled: (depth, t, at) from stripe row 0
                _assert_depth_item(item, _expanded_pairs(ops, want, spec.n - spec.m, spec.r))
            else:
                assert item == want, (spec, disks)
            nones += item is None
    return nones


def _expanded_pairs(ops, rows, w, r):
    """The row-scaled depth test's oracle: at each depth d = 1..r, the
    first pair (a, b), a < b < d w, of the columns of the two expanded
    residual rows whose 2 x 2 determinant is zero, or None."""
    r0, r1 = rows
    fails = [(a, b) for a, b in combinations(range(r * w), 2)
             if ops.mul(r0[a], r1[b]) == ops.mul(r0[b], r1[a])]
    return [next((p for p in fails if p[1] < d * w), None) for d in range(1, r + 1)]


def _assert_depth_item(item, wants):
    """A row-scaled item (depth, t, at): depth is the first depth with a
    failing pair (r + 1 when none), and at(t, d) that pair from there on."""
    depth, t, at = item
    assert depth == next((d for d, want in enumerate(wants, 1) if want), len(wants) + 1)
    assert [at(t, d) for d in range(depth, len(wants) + 1)] == wants[depth - 1:]


_PLAN_ALGEBRAS = {"gf16": lambda: make_field(4), "gf256": lambda: make_field(8),
                  "gf65536": lambda: make_field(16), "ring7": lambda: make_ring(7),
                  "ring17": lambda: make_ring(17), "ring31": lambda: make_ring(31),
                  "ring29": lambda: make_ring(29), "ring41": lambda: make_ring(41)}


def _plan_cases(alg, name):
    """Construction codes, random generic codes, and random matrices with
    a local block per stripe row."""
    rng = random.Random(f"plan/{name}")
    n = min(5, alg.order_of_alpha())      # the constructions need r n <= O(alpha)
    r = min(3, alg.order_of_alpha() // n)
    cases = [build_h1(r, n, alg), build_h2(r, n, alg)]
    cases += [_random_generic(alg, m + rng.randint(1, 3), m, s, rng.randint(1, 3), rng)
              for m in (1, 2, 3) for s in (0, 1, 2, 3)]
    cases += [_random_matrix(alg, n, m, s, 3, seed=f"plan/{name}/{n}{m}{s}")
              for n, m, s, _ in _SHAPES]
    return cases


@pytest.mark.parametrize("alg_name", sorted(_PLAN_ALGEBRAS))
def test_schur_plans_match_the_per_call_oracle(alg_name):
    # GF(2^28) (ring p=29) and GF(2^20) (p=41) are tableless factor fields
    alg = _PLAN_ALGEBRAS[alg_name]()
    assert sum(_assert_plans_match_oracle(hm) for hm in _plan_cases(alg, alg_name)) > 0


def test_matrix_blocks_and_kinds_match_a_split_from_scratch():
    # the split ParityCheckMatrix makes once, which the scan reads, against
    # one cut entry by entry: the distinct m x n local blocks in first-seen
    # order, and each stripe row's index into them
    def split(hm):
        spec, bits = hm.spec, hm.matrix.bits
        m, n, blocks, kinds = spec.m, spec.n, [], []
        for i in range(spec.r):
            block = tuple(tuple(bits[i * m + t][i * n + j] for j in range(n)) for t in range(m))
            if block not in blocks:
                blocks.append(block)
            kinds.append(blocks.index(block))
        return tuple(blocks), tuple(kinds)

    fallback = _fallback_cases()
    codes = [hm for name, alg in sorted(_PLAN_ALGEBRAS.items()) for hm in _plan_cases(alg(), name)]
    codes += [hm for hm, _ in fallback.values()]
    for hm in codes:
        assert (hm.blocks, hm.kinds) == split(hm), hm.spec
    assert fallback["ring7-repeated-blocks"][0].kinds == (0, 1, 0, 1)
    assert fallback["differing-blocks"][0].kinds == (0, 1, 2)


@pytest.mark.parametrize("case", sorted(_fallback_cases()))
def test_schur_plans_match_the_oracle_on_hand_made_blocks(case):
    hm, singular = _fallback_cases()[case]
    assert (_assert_plans_match_oracle(hm) > 0) == singular


@pytest.mark.parametrize("cap", [1, 40, 100])
def test_schur_plans_match_the_oracle_across_batches(cap, monkeypatch):
    # caps of 1, 40 and 100 bits put 1 to 8 disk sets in a batch (all of
    # them at 100 bits over ring p=7), so most views span several
    # batches, the last one often short
    monkeypatch.setattr(sdcheck, "_PLAN_BITS", cap)
    gf16, ring7, ring41 = make_field(4), make_ring(7), make_ring(41)
    rng = random.Random(f"batches/{cap}")
    for hm in (build_h2(2, 6, gf16), _random_generic(gf16, 6, 3, 2, 2, rng),
               _random_matrix(ring7, 5, 2, 2, 3, seed=f"batches/{cap}"),
               build_h2(2, 5, ring41), _fallback_cases()["ring7-one-factor"][0]):
        _assert_plans_match_oracle(hm)
        naive_witness, checked = naive_is_sd(hm)
        assert is_sd(hm) == SdReport(naive_witness is None, naive_witness, checked)


def test_construction_scan_runs_no_elimination_and_one_block(gf256, monkeypatch):
    # every stripe row shares one Vandermonde block, invertible on every
    # disk set, so the s = 2 scan never calls eliminate
    hm = build_h2(6, 8, gf256)
    views = sdcheck._local_blocks(hm)
    assert [len(v[2]) for v in views] == [1]
    calls = []
    monkeypatch.setattr(sdcheck, "eliminate", lambda *a: calls.append(a) or eliminate(*a))
    assert is_sd(hm).sd and not calls


def test_construction_batches_pass_whole_with_no_per_disk_set_work(monkeypatch):
    # sdbench's verify-table shapes: every plan batch's line passes, so
    # is_sd reads no disk set's item, runs no _line_depths and no
    # _first_pair_backward, and builds no group, though the stream hands
    # out every disk set; past the bound (h2 at n = 16, r = 17 over
    # GF(2^8), rn = 272 > 255) the failing batches run all three
    calls, handed = [], []
    for name in ("_line_depths", "_first_pair_backward", "_group"):
        monkeypatch.setattr(sdcheck, name, (lambda name, fn: lambda *a: calls.append(name) or fn(
            *a))(name, getattr(sdcheck, name)))
    residuals = _record_residuals(monkeypatch, handed)
    for hm in (build_h2(32, 16, make_field(16)), build_h1(60, 16, make_field(16)),
               build_h2(15, 16, make_field(8)), build_h2(25, 5, make_ring(127))):
        handed.clear()
        assert is_sd(hm).sd
        assert not calls and not residuals
        assert sum(map(len, handed)) == comb(hm.spec.n, hm.spec.m)
    assert not is_sd(_formula(make_field(8), 2, 16, 17, _H2)).sd
    assert set(calls) == {"_line_depths", "_first_pair_backward", "_group"} and residuals


# ------------------------------------------------ the row-scaled s = 2 scan

def _formula(alg, m, n, r, exponents):
    """The code whose global row g holds alpha^(a in + b j) at column
    in + j, (a, b) = exponents[g]: the form of both constructions, from
    their row builder through _of_bits at any r, past rn <= O(alpha) too."""
    spec = CodeSpec(n=n, m=m, s=len(exponents), r=r, algebra=alg, family="generic")
    return _of_bits(spec, _exponent_rows(alg, n, r, exponents))


# the constructions' (a_g, b_g)
_H1, _H2 = (_FORMULAS[family][1] for family in ("construction1", "construction2"))


def _scaled(hm):
    """Whether each factor view of hm is row-scaled."""
    return [least is not None for *_, least in sdcheck._local_blocks(hm)]


def _scans(hm):
    """is_sd's report, from its early-stopping pass, and _scan's triple:
    is_sd's report, sd_depth's depth and its report, which verify prints."""
    return is_sd(hm), sdcheck._scan(hm)


def _formula_cases(alg, name):
    """(case, code): the two constructions inside the bound; a_0 = a_1, so
    mu_i is one value; a b_g in 0..m-1, so global row g is in the local
    span and its residual is zero; both constructions past the bound,
    whose stripe row 0 passes and which fail across stripe rows; random
    exponents inside and past the bound."""
    rng = random.Random(f"formula/{name}")
    order = alg.order_of_alpha()
    expo = lambda: rng.randrange(order)
    cases = [("h1", _formula(alg, 1, 5, order // 5, _H1)),
             ("h2", _formula(alg, 2, 4, order // 4, _H2)),
             ("repeated-mu", _formula(alg, 2, 5, 3, ((7, expo()), (7, expo())))),
             ("in-local-span", _formula(alg, 1, 4, 3, ((expo(), 0), (expo(), expo())))),
             ("in-local-span", _formula(alg, 2, 5, 2, ((expo(), expo()), (expo(), 1)))),
             ("past-bound", _formula(alg, 1, 3, order // 3 + 1, _H1)),
             ("past-bound", _formula(alg, 2, 4, order // 4 + 2, _H2))]
    for k in range(6):
        n = rng.randint(3, 7)
        m, bound = rng.randint(1, min(3, n - 2)), max(1, order // n)
        r = rng.randint(1, bound) if k % 2 else rng.randint(bound + 1, bound + 3)
        cases.append(("random", _formula(alg, m, n, r, ((expo(), expo()), (expo(), expo())))))
    return cases


_FORMULA_ALGEBRAS = {"gf16": lambda: make_field(4), "gf32": lambda: make_field(5),
                     "gf256": lambda: make_field(8), "ring7": lambda: make_ring(7),
                     "ring17": lambda: make_ring(17), "ring31": lambda: make_ring(31),
                     "ring37": lambda: make_ring(37), "ring41": lambda: make_ring(41),
                     "ring101": lambda: make_ring(101)}


@pytest.mark.parametrize("alg_name", sorted(_FORMULA_ALGEBRAS))
def test_row_scaled_scan_matches_the_generic_path_on_formula_codes(alg_name, monkeypatch):
    # table factors up to p = 31; GF(2^36), GF(2^20) and GF(2^100), the
    # factors of p = 37, 41 and 101, are tableless
    alg = _FORMULA_ALGEBRAS[alg_name]()
    cases = _formula_cases(alg, alg_name)
    assert cases[0][1].matrix == build_h1(alg.order_of_alpha() // 5, 5, alg).matrix
    assert cases[1][1].matrix == build_h2(alg.order_of_alpha() // 4, 4, alg).matrix
    assert all(all(_scaled(hm)) for _, hm in cases)
    got = [_scans(hm) for _, hm in cases]
    kinds = {}
    for (case, hm), (_, (_, depth, _)) in zip(cases, got):
        kinds.setdefault(case, set()).add(_depth_kind(hm, depth))
        if sdcheck._patterns(hm.spec, hm.spec.r) <= 300:
            naive_witness, checked = naive_is_sd(hm)
            assert is_sd(hm) == SdReport(naive_witness is None, naive_witness, checked)
    assert kinds["h1"] == kinds["h2"] == {"all"}
    assert kinds["repeated-mu"] <= {"none", "some"} and kinds["in-local-span"] == {"none"}
    assert kinds["past-bound"] == {"some"}
    monkeypatch.setattr(sdcheck, "_row_scaled", lambda *a: None)
    assert not any(any(_scaled(hm)) for _, hm in cases)
    assert [_scans(hm) for _, hm in cases] == got


def test_the_constructions_are_sd_up_to_the_bound_and_no_further(monkeypatch):
    # built past rn <= O(alpha), at r = O(alpha) // n + 3, the depth is
    # O(alpha) // n on both paths, except h2 at n = 3 over GF(2^5), which
    # stays SD up to the + 3 cap
    for path in ("row-scaled", "generic"):
        for w in (4, 5):
            alg = make_field(w)
            order = alg.order_of_alpha()
            for n in range(3, 9):
                for name, m, exponents in (("h1", 1, _H1), ("h2", 2, _H2)):
                    hm = _formula(alg, m, n, order // n + 3, exponents)
                    want = order // n + 3 if (w, n, name) == (5, 3, "h2") else order // n
                    assert sd_depth(hm)[0] == want, (path, w, n, name)
                    assert _scaled(hm) == [path == "row-scaled"]
        monkeypatch.setattr(sdcheck, "_row_scaled", lambda *a: None)


@pytest.mark.parametrize("alg_name", ["gf16", "gf256", "ring7", "ring37", "ring41"])
def test_the_depth_test_and_the_key_witness_match_the_expanded_residual(alg_name):
    # one batch of 12 disk sets' stripe row 0 residuals (x, y): drawn from
    # four values, zero among them, so ratios repeat and x = 0 and y = 0
    # columns occur; nonzero at random; nonzero with rho_1 = rho_0 mu^t
    # planted, once with rho_0 = mu^-s, s <= t, so that rho_0 and rho_1
    # lie on both sides of 1 on mu's cycle; and some with a planted zero
    # column or a planted repeated ratio, (x_1, y_1) = a (x_0, y_0).  h1
    # and h2 go past the bound, so mu^t = 1 within r over GF(2^4) and ring
    # 7; mu generates the field's units or does not (n = 4 and 5 over
    # GF(2^8)).  Each disk set's depth and every at(t, d) must be those of
    # its own residual, expanded by lambda_{g,i} = g[in] / g[0], whatever
    # the rest of the batch holds (without tables the batch's keys share
    # one constant)
    alg = _FORMULA_ALGEBRAS[alg_name]()
    rng = random.Random(f"key-witness/{alg_name}")
    r = 9
    for n, m, exponents in ((4, 1, _H1), (5, 1, _H1), (4, 2, _H2), (5, 2, _H2)):
        hm = _formula(alg, m, n, r, exponents)
        w = n - m
        views = sdcheck._local_blocks(hm)
        for (ops, _, _, _, test), (_, glob) in zip(views, alg.factor_views(hm.matrix.bits[m * r:])):
            lam = [[ops.mul(g[i * n], ops.inv(g[0])) for i in range(r)] for g in glob]
            cases = []
            for k in range(12):
                pool = [0] + [rng.randrange(1, ops.q) for _ in range(3)] if k % 3 == 0 else []
                x, y = ([rng.choice(pool) if pool else rng.randrange(1, ops.q)
                         for _ in range(w)] for _ in range(2))
                if k % 3 == 2:
                    t = rng.randrange(1, r)
                    mu_t = ops.mul(lam[1][t], ops.inv(lam[0][t]))
                    if k == 8:          # rho_0 = mu^-s: the pair meets across mu^0 = 1
                        s = rng.randrange(1, t + 1)
                        y[0] = ops.mul(x[0], ops.mul(lam[0][s], ops.inv(lam[1][s])))
                    y[1] = ops.mul(ops.mul(y[0], ops.inv(x[0])), ops.mul(x[1], mu_t))
                if k % 4 == 1:
                    j = rng.randrange(w)
                    x[j] = y[j] = 0
                if k % 4 == 3:
                    a = rng.randrange(1, ops.q)
                    x[1], y[1] = ops.mul(a, x[0]), ops.mul(a, y[0])
                cases.append((x, y))
            depths, at = test([v for x, _ in cases for v in x], [v for _, y in cases for v in y], w)
            assert len(depths) == len(cases)
            for t, (x, y) in enumerate(cases):
                rows = [[ops.mul(c, v) for c in lam_g for v in row]
                        for lam_g, row in zip(lam, (x, y))]
                _assert_depth_item((depths[t], t, at), _expanded_pairs(ops, rows, w, r))


_LINE_ALGEBRAS = {"gf16": lambda: make_field(4).ops, "gf256": lambda: make_field(8).ops,
                  "gf65536": lambda: make_field(16).ops,
                  "ring7": lambda: make_ring(7).factor_ops[0]}


@pytest.mark.parametrize("alg_name", sorted(_LINE_ALGEBRAS))
def test_the_batch_line_matches_the_expanded_residual_in_every_layout(alg_name, monkeypatch):
    # batches built column by column: column j of a disk set has x_j at
    # random and y_j = x_j g^c mu^p, so that rho_j lies in coset c of mu's
    # powers (g generates the units) at place p on mu's cycle.  mu
    # generates the units, has several cosets (three or more, as q - 1 is
    # odd), or has order at most r (mu = 1 over ring 7's GF(8)).  Layouts:
    # a batch that passes whole, with one disk set twice (equal keys in two
    # disk sets); one planted failure among passing disk sets; a failing
    # pair straddling the wrap (places near the order and near 0); one
    # place in three cosets; rho_j = 1 throughout; zero entries; random
    # columns; w = 1.  Every disk set's depth and at(t, d) must be those of
    # its expanded residual, also when at is read after the next batch is
    # keyed, and _line_depths runs exactly where a batch does not pass
    ops = _LINE_ALGEBRAS[alg_name]()
    rng = random.Random(f"batch-line/{alg_name}")
    lines, line_depths = [], sdcheck._line_depths
    monkeypatch.setattr(sdcheck, "_line_depths", lambda *a: lines.append(a) or line_depths(*a))
    qm1, g = ops.qm1, ops.exp[1]
    power = lambda a, e: ops.exp[ops.log[a] * e % qm1]
    least = next(p for p in range(2, qm1 + 1) if qm1 % p == 0)    # smallest prime factor
    unit = next(e for e in range(rng.randrange(1, qm1), 2 * qm1) if gcd(e, qm1) == 1)
    for mu, order in ((power(g, unit), qm1), (power(g, least), qm1 // least),
                      (power(g, qm1 // least), least)):
        cosets, r = qm1 // order, order + 2 if order <= 8 else min(6, order // 3)
        w, far = 3, order // 3
        c0 = rng.randrange(1, ops.q)
        lam = [[power(c, i) for i in range(r)] for c in (c0, ops.mul(c0, mu))]
        batch = sdcheck._depth_test(ops, [[1] * 4 + [c0], [1] * 4 + [lam[1][1]]], 4, r)

        def column(c, p):
            x = rng.randrange(1, ops.q)
            return [x, ops.mul(x, ops.mul(power(g, c), power(mu, p)))]

        def check(sets, w):
            """The batch's depths, checked against the oracle by again()."""
            x, y = ([v for cols in sets for v in cols[k::2]] for k in (0, 1))
            depths, at = batch(x, y, w)

            def again():
                for t in range(len(sets)):
                    rows = [[ops.mul(c, v) for c in lam_g for v in row[t * w:(t + 1) * w]]
                            for lam_g, row in zip(lam, (x, y))]
                    _assert_depth_item((depths[t], t, at), _expanded_pairs(ops, rows, w, r))
            again()
            return depths, again

        spread = lambda p: column(0, p) + column(0, p + far) + column(0, p + 2 * far)
        passing = [spread(rng.randrange(order)) for _ in range(4)]
        passing.insert(2, passing[0])           # the same keys in disk sets 0 and 2
        t, p, a = rng.randrange(1, r), rng.randrange(order), rng.randrange(1, r)
        b = rng.randrange(r - a)
        zero = list(passing[0])
        zero[rng.randrange(2 * w)] = 0
        layouts = [passing,
                   passing[:3] + [column(0, p) + column(0, p + t) + column(0, p + 2 * far)]
                   + passing[3:],
                   passing[:1] + [column(0, -a) + column(0, b) + column(0, order // 2)],
                   [column(0, p) + column(1, p) + column(2, p),     # place p in three bands
                    column(1, p) + column(1, p + t) + column(0, p + t)] + passing,
                   [[v for _ in range(w) for v in [rng.randrange(1, ops.q)] * 2]] + passing,
                   [zero] + passing,
                   [[rng.choice([0, rng.randrange(1, ops.q)]) for _ in range(2 * w)]
                    for _ in range(6)]]
        for sets in layouts[:3] + layouts[3 if cosets > 1 else 4:]:
            before = len(lines)
            depths = check(sets, w)[0]
            assert (len(lines) > before) == (depths != [r + 1] * len(sets))
        if order > r:
            assert check(passing, w)[0] == [r + 1] * 5
            assert check(layouts[1], w)[0] == [r + 1] * 3 + [t + 1] + [r + 1] * 2
            assert check(layouts[2], w)[0][1] <= a + b + 1
        if cosets > 1:                          # t mod order is the pair's cyclic distance
            near = min(t % order, -t % order, r)
            assert check(layouts[3], w)[0][:2] == [min(order, r) + 1, near + 1]
        # w = 1: a lone column meets itself only at mu^order = 1
        singles = [column(rng.randrange(cosets), rng.randrange(order)) for _ in range(5)]
        assert check(singles, 1)[0] == [min(order, r) + 1] * 5
        # two batches: the first one's witnesses stay its own
        again = check(layouts[1], w)[1]
        check(layouts[-1], w)
        again()


def test_a_singular_block_in_a_row_scaled_batch_takes_the_elimination_path(monkeypatch):
    # one local block on every stripe row and h2's geometric global rows,
    # each times alpha^(g+1) so that g[0] is not 1, inside the bound and
    # past it, with a block singular at one disk set: its second row
    # repeats an entry (singular in every view), or over ring 7 holds
    # 0xa + 1 = 0xb, zero mod that factor of M_7(x) alone.  That disk
    # set's item is None in that view and it eliminates, on global
    # rows rebuilt from stripe row 0 and g[n]; the rest of its batch keeps
    # batch depths.  Every disk set's witness at every depth equals the
    # eliminate oracle's, and reports equal the generic path's and the
    # naive and per-depth oracles'
    m, same_mu = 2, ((3, -1), (3, 2))
    cases = [(make_field(4), [[1, 1, 1, 1], [1, 2, 2, 8]], (1, 2), 1, _H2),
             (make_ring(7), [[1, 1, 1, 1], [0xA, 1, 4, 8]], (0, 1), 1, _H2),
             (make_ring(41), [[1, 1, 1, 1], [1, 2, 2, 8]], (1, 2), 2, _H2),
             # one survivor per stripe row and mu = 1: at depth 2 the
             # rebuilt stripe row 1 decides whether the disk set fails
             (make_field(4), [[1, 1, 1], [1, 2, 2]], (1, 2), 1, same_mu),
             (make_ring(7), [[1, 1, 1], [1, 2, 2]], (1, 2), 2, same_mu),
             (make_ring(41), [[1, 1, 1], [2, 2, 8]], (0, 1), 2, same_mu)]
    codes = []
    for alg, block, singular, nones, exponents in cases:
        n = len(block[0])
        for r in (3, 5):
            glob = [[alg.mul_bits(v, alg.alpha_pow_bits(g + 1)) for v in row]
                    for g, row in enumerate(_formula(alg, m, n, r, exponents).matrix.bits[m * r:])]
            hm = _hand_made(alg, n, m, 2, [block] * r, glob)
            assert all(_scaled(hm))
            views = sdcheck._local_blocks(hm)
            stream = _stream(hm.spec, views)
            assert [disks for disks, items in stream if None in items] == [singular]
            assert _assert_plans_match_oracle(hm) == nones    # the singular views' items
            _assert_groups_match_oracle(hm)
            naive_witness, checked = naive_is_sd(hm)
            assert is_sd(hm) == SdReport(naive_witness is None, naive_witness, checked)
            assert sd_depth(hm) == per_depth_sd_depth(hm)
            codes.append(hm)
    got = [_scans(hm) for hm in codes]
    monkeypatch.setattr(sdcheck, "_row_scaled", lambda *a: None)
    assert [_scans(hm) for hm in codes] == got


def test_the_bounds_exceptions_reach_to_the_order_of_alpha():
    # h1 at n = 2 and h2 at n = 3 stay SD past rn <= O(alpha), built at
    # r = O(alpha) + 3, up to depth O(alpha), where stripe row O(alpha)
    # repeats stripe row 0; h2 over GF(2^4) and GF(2^8) is tight instead
    for alg in (make_field(4), make_field(5), make_field(8), make_ring(17), make_ring(31)):
        order = alg.order_of_alpha()
        assert sd_depth(_formula(alg, 1, 2, order + 3, _H1))[0] == order, alg
        tight = alg in (make_field(4), make_field(8))
        assert sd_depth(_formula(alg, 2, 3, order + 3, _H2))[0] == (
            order // 3 if tight else order), alg


def test_the_row_scaled_test_declines_every_other_view():
    gf256, ring41 = make_field(8), make_ring(41)
    for hm in (build_h2(4, 6, gf256), build_h1(8, 5, ring41)):
        assert all(_scaled(hm))
        # global row 1 at stripe row 2, disk 3, times the unit 1 + x: in
        # no view is it still its stripe row 0 part times one factor
        spec, row = hm.spec, hm.matrix.bits[-1]
        bad = corrupt(hm, len(hm.matrix.bits) - 1, 2 * spec.n + 3,
                      spec.algebra.mul_bits(row[2 * spec.n + 3], 3))
        assert not any(_scaled(bad))
    # stripe row 2 times one unit beta != 1, in both global rows (each
    # stripe row still a multiple of stripe row 0, mu unchanged) or in
    # global row 0 alone: stripe row i + 1 is no longer one constant
    # times stripe row i, and the generic scan decides the code
    n, r = 4, 4
    for alg in (gf256, make_ring(7), ring41):
        beta = alg.alpha_pow_bits(1)
        for m, exponents in ((1, _H1), (2, _H2)):
            hm = _formula(alg, m, n, r, exponents)
            assert all(_scaled(hm))
            for scaled_rows in ((0, 1), (0,)):
                glob = [list(g) for g in hm.matrix.bits[m * r:]]
                for g in scaled_rows:
                    glob[g][2 * n:3 * n] = [alg.mul_bits(v, beta) for v in glob[g][2 * n:3 * n]]
                code = _of_bits(hm.spec, glob)
                assert not any(_scaled(code))
                report, (_, depth, depth_report) = _scans(code)
                naive_witness, checked = naive_is_sd(code)
                assert report == SdReport(naive_witness is None, naive_witness, checked)
                assert (depth, depth_report) == per_depth_sd_depth(code)
    # two local blocks, s = 3, a global row with a zero entry
    assert _scaled(_fallback_cases()["ring7-repeated-blocks"][0]) == [False, False]
    assert _scaled(_random_generic(gf256, 6, 1, 3, 2, random.Random(3))) == [False]
    hm = build_h1(3, 4, gf256)
    assert _scaled(corrupt(hm, 3, 5, 0)) == [False]


def test_a_ring_code_row_scaled_in_one_factor_view_only(monkeypatch):
    # adding 0xb, a factor of M_7(x), to one global entry of h1 keeps that
    # entry mod 0xb and changes it mod 0xd: one view geometric, one not, so
    # the ring test declines and neither view is row-scaled
    ring7 = make_ring(7)
    hm = build_h1(2, 3, ring7)
    codes = [corrupt(hm, g, col, hm.matrix.bits[g][col] ^ 0xB) for g in (2, 3) for col in range(6)]
    assert all(_scaled(code) == [False, False] for code in codes)
    got = [_scans(code) for code in codes]
    assert {report.sd for report, _ in got} == {True, False}
    for code, (report, (_, depth, depth_report)) in zip(codes, got):
        naive_witness, checked = naive_is_sd(code)
        assert report == SdReport(naive_witness is None, naive_witness, checked)
        assert (depth, depth_report) == per_depth_sd_depth(code)
    monkeypatch.setattr(sdcheck, "_row_scaled", lambda *a: None)
    assert [_scans(code) for code in codes] == got


def _view_geometric(ops, glob, n):
    """The per-view geometric test that the ring test replaced, kept as its
    oracle: no zero entry in the view and, with tables, one ratio key of
    each entry against the one a stripe row above per global row; without,
    the cross products g[k] g[0] = g[n] g[k - n] of spread residues."""
    if not all(map(all, glob)):
        return False
    for g in glob:
        if ops.has_tables:
            if len(set(ops.ratios(g[:-n], g[n:]))) > 1:
                return False
        else:
            sp, mul = ops._spread(g), ops._spread_mul
            if any(mul(a, sp[0]) != mul(sp[n], b) for a, b in zip(sp[n:], sp)):
                return False
    return True


@pytest.mark.parametrize("p", [7, 17, 31, 41, 127])
def test_the_ring_test_accepts_exactly_where_every_view_test_does(p):
    # formula codes inside the bound and past it, and from each: one global
    # entry changed at random; one plus z, a factor of M_p(x), which keeps
    # it in z's view alone; column j of a global row times z in every
    # stripe row, a row-0 entry that is a nonzero zero divisor with the
    # cross products still holding in the ring; and c_g = z, so that g[n] =
    # z g[0] is one.  The ring test runs once: every view is row-scaled, or
    # none is, exactly when every view's own test accepts
    ring = make_ring(p)
    rng = random.Random(f"ring-test/{p}")
    z, mul = ring.factorization.factors[0], ring.mul_bits
    codes = []
    for k in range(6):
        n, m = rng.randint(3, 6), rng.randint(1, 2)
        r = rng.randint(1, 4) if k % 2 else p // n + 1
        hm = _formula(ring, m, n, r, [(rng.randrange(p), rng.randrange(p)) for _ in range(2)])
        glob = hm.matrix.bits[m * r:]
        g, col, j = rng.randrange(2), rng.randrange(r * n), rng.randrange(n)
        times_z = [list(row) for row in glob]
        times_z[g][j::n] = [mul(v, z) for v in times_z[g][j::n]]
        powers = [list(row) for row in glob]   # stripe row i: z^i times stripe row 0
        for c in range(n, r * n):
            powers[g][c] = mul(powers[g][c - n], z)
        codes += [hm, corrupt(hm, m * r + g, col, rng.randrange(1, 1 << (p - 1))),
                  corrupt(hm, m * r + g, col, glob[g][col] ^ z),
                  _of_bits(hm.spec, times_z), _of_bits(hm.spec, powers)]
    verdicts = []
    for hm in codes:
        spec = hm.spec
        want = all(_view_geometric(ops, glob, spec.n) for ops, glob in
                   ring.factor_views(hm.matrix.bits[spec.m * spec.r:]))
        assert _scaled(hm) == [want] * len(ring.factor_ops), spec
        verdicts.append(want)
    assert verdicts[::5] == [True] * 6 and not any(verdicts[3::5])
    assert not any(v for v, hm in zip(verdicts[4::5], codes[4::5]) if hm.spec.r > 1)


def test_the_row_scaled_test_runs_on_every_construction_disk_set_and_never_in_search(
        monkeypatch):
    # the test runs once per code; each batch's depth test decides all of
    # its disk sets, so every disk set of every view is decided once; in
    # search it declines every trial after keying stripe row 1 alone
    tests, decided, keyed = [], [], []
    row_scaled, depth_test, ratios = sdcheck._row_scaled, sdcheck._depth_test, _Gf2mOps.ratios

    def spy(*args):
        before = len(keyed)
        scaled = row_scaled(*args)
        tests.append((scaled, sum(keyed[before:])))
        return scaled

    def counted(*args):
        batch = depth_test(*args)

        def deciding(x, y, w):
            depths, at = batch(x, y, w)
            decided.append(len(depths))
            return depths, at
        return deciding

    monkeypatch.setattr(_Gf2mOps, "ratios", lambda self, xs, ys: keyed.append(len(xs))
                        or ratios(self, xs, ys))
    monkeypatch.setattr(sdcheck, "_row_scaled", spy)
    monkeypatch.setattr(sdcheck, "_depth_test", counted)
    # sdbench's search shape: generic global rows, never row-scaled
    run_search(SearchConfig(n=8, m=2, s=2, r_max=8, trials=3, seed=7919,
                            algebra=make_field(16)))
    assert tests and not decided
    assert all(not scaled and count <= 8 for scaled, count in tests)
    for hm in (build_h1(5, 6, make_field(8)), build_h2(3, 5, make_field(4)),
               build_h2(4, 5, make_ring(31)), build_h1(8, 5, make_ring(41))):
        views = len(hm.spec.algebra.factor_views([]))
        tests.clear()
        decided.clear()
        assert is_sd(hm).sd and [scaled for scaled, _ in tests] == [True]
        assert sum(decided) == comb(hm.spec.n, hm.spec.m) * views


# ------------------------------------------- sd_depth against per-depth is_sd

def per_depth_sd_depth(hm):
    """The loop sd_depth replaces, kept as its oracle: is_sd on the code
    shortened to 1, 2, ... stripe rows, up to the first that is not SD."""
    for r in range(1, hm.spec.r + 1):
        report = is_sd(hm if r == hm.spec.r else shorten(hm, r))
        if not report.sd:
            return r - 1, report
    return hm.spec.r, report


def _depth_kind(hm, depth):
    return "none" if depth == 0 else "all" if depth == hm.spec.r else "some"


_DEPTH_ALGEBRAS = {"gf16": lambda: make_field(4), "gf256": lambda: make_field(8),
                   "ring7": lambda: make_ring(7), "ring17": lambda: make_ring(17)}


@pytest.mark.parametrize("alg_name", sorted(_DEPTH_ALGEBRAS))
def test_sd_depth_matches_per_depth_is_sd_on_random_generic_codes(alg_name):
    # 48 codes per algebra; over ring p=17 (two GF(2^8) factors) none
    # fails at depth 1, over the others some do
    alg = _DEPTH_ALGEBRAS[alg_name]()
    rng = random.Random(f"sd_depth/{alg_name}")
    kinds = set()
    for m in (1, 2, 3):
        for s in (1, 2, 3, 4):
            for _ in range(4):
                n, r = m + rng.randint(1, 3), rng.randint(1, 5)
                hm = _random_generic(alg, n, m, s, r, rng)
                got = sd_depth(hm)
                assert got == per_depth_sd_depth(hm), (alg_name, n, m, s, r)
                kinds.add(_depth_kind(hm, got[0]))
    assert kinds == {"some", "all"} | ({"none"} if alg_name != "ring17" else set())


@pytest.mark.parametrize("alg_name", sorted(_ALGEBRAS))
def test_sd_depth_matches_per_depth_is_sd_on_random_matrices(alg_name, monkeypatch):
    # zeros in the local blocks make some V_i singular: those disk sets
    # scan the views cut to each depth the bisection tries
    residuals = _record_residuals(monkeypatch)
    alg = _ALGEBRAS[alg_name]()
    kinds = set()
    for seed in range(3):
        for n, m, s, _ in _SHAPES:
            hm = _random_matrix(alg, n, m, s, 3, seed=f"depth/{alg_name}/{seed}/{n}{m}{s}")
            got = sd_depth(hm)
            assert got == per_depth_sd_depth(hm), (alg_name, seed, (n, m, s))
            kinds.add(_depth_kind(hm, got[0]))
    assert kinds == {"none", "some", "all"}
    assert None in residuals


@pytest.mark.parametrize("alg_name", sorted(_ALGEBRAS))
def test_a_disk_set_failing_at_a_depth_fails_one_deeper(alg_name):
    # what sd_depth's bisection rests on, for any H (singular blocks
    # included): the code at depth d is the code at depth d + 1 with its
    # last stripe row held at zero
    alg = _ALGEBRAS[alg_name]()
    kinds = set()
    for seed in range(3):
        for n, m, s, _ in _SHAPES:
            hm = _random_matrix(alg, n, m, s, 3, seed=f"monotone/{alg_name}/{seed}/{n}{m}{s}")
            codes = [shorten(hm, 1), shorten(hm, 2), hm]
            for disks in combinations(range(n), m):
                fails = [_eliminate_scan_group(alg.factor_views(c.matrix.bits), c.spec, disks)
                         is not None for c in codes]
                assert fails == sorted(fails), (alg_name, seed, (n, m, s), disks)
                kinds.add(fails.count(True))
    assert kinds == {0, 1, 2, 3}


# Stripe row 1's block has det(V) = 0xa + 1 = 0xb = x^3 + x + 1 at disk set
# (0, 1): zero modulo the factor 0xb of M_7(x) only, and no other block
# or disk set is singular in either factor view.
_RING7_ONE_FACTOR_SINGULAR = """\
SDCODE-H v1
ring p=7
params n=4 m=2 s=2 r=3 family=generic
1 1 1 1 0 0 0 0 0 0 0 0
1 a^1 a^2 a^3 0 0 0 0 0 0 0 0
0 0 0 0 1 1 1 1 0 0 0 0
0 0 0 0 x:a 1 a^2 a^3 0 0 0 0
0 0 0 0 0 0 0 0 1 1 1 1
0 0 0 0 0 0 0 0 1 a^1 a^2 a^3
x:3e x:38 x:3d x:37 a^2 x:6 x:6 x:18 x:36 x:b x:30 x:34
x:2b x:37 x:14 x:11 x:27 x:e x:27 x:3 x:26 x:2c x:b x:1c
"""


def test_sd_depth_falls_back_where_one_ring_factor_has_a_singular_block(monkeypatch):
    hm = read_matrix(io.StringIO(_RING7_ONE_FACTOR_SINGULAR))
    views = sdcheck._local_blocks(hm)
    assert [[res is None for res in residuals] for _, residuals in
            _stream(hm.spec, views)] == [[True, False]] + [[False, False]] * 5
    cut = []
    singular_ops = hm.spec.algebra.factor_ops[0]
    monkeypatch.setattr(sdcheck, "eliminate",
                        lambda ops, work, cols: cut.append(
                            (ops is singular_ops, sorted({c % 4 for c in cols}), len(work[0]) // 4))
                        or eliminate(ops, work, cols))
    got = sd_depth(hm)
    # only disk set (0, 1), in the singular factor view only, eliminates
    # its rows cut to depth, ceil(log2 r) + 1 = 3 times (depths 3, 1, 2),
    # and it fails at depth 2
    assert cut == [(True, [0, 1], 3), (True, [0, 1], 1), (True, [0, 1], 2)]
    assert got == per_depth_sd_depth(hm) == (
        1, SdReport(False, ErasurePattern((0, 1), ((0, 2), (0, 3))), comb(4, 2) * comb(4, 2)))


# Global rows of an n=4, m=1, s=2, r=3 code over GF(16) whose disk sets
# (0,), (1,), (2,), (3,) first fail at depths 3, 2, 2 and 3: a later disk
# set fails shallower than an earlier one, and the next one ties with it.
_CARRIED = ("a^9 a^13 a^14 a^8 a^10 a^7 a^6 a^6 a^2 a^12 a^8 a^10",
            "a^8 a^14 a^8 a^14 a^5 1 a^13 a^10 a^9 a^5 1 a^10")


def test_sd_depth_carries_the_smallest_failing_depth_across_disk_sets(gf16, monkeypatch):
    hm = build_h_generic(4, 1, 2, 3, [[gf16.parse_element(t) for t in row.split()]
                                      for row in _CARRIED], gf16)

    def fails(disks, depth):        # the per-pattern oracle at one disk set
        code = hm if depth == 3 else shorten(hm, depth)
        return any(not is_pattern_decodable(code, p)
                   for p in enumerate_patterns(code.spec) if p.disks == disks)

    assert [min(d for d in (1, 2, 3) if fails((k,), d)) for k in range(4)] == [3, 2, 2, 3]
    asked, group = [], sdcheck._group

    def recording(spec, views, disks, residuals):
        first_at = group(spec, views, disks, residuals)
        return lambda depth: asked.append((disks, depth)) or first_at(depth)

    monkeypatch.setattr(sdcheck, "_group", recording)
    got = sd_depth(hm)
    # (0,) bisects over 0..3; (1,) fails at best - 1 = 2 and bisects over
    # 0..2; (2,) and (3,) pass at best - 1 = 1 and are skipped, so the tie
    # at depth 2 keeps (1,)'s witness
    assert asked == [((0,), 3), ((0,), 1), ((0,), 2), ((1,), 2), ((1,), 1),
                     ((2,), 1), ((3,), 1)]
    assert got == per_depth_sd_depth(hm)
    assert got[0] == 1 and got[1].witness.disks == (1,)


def test_sd_depth_of_codes_sd_at_every_depth(gf16, ring17):
    for hm in (build_h1(3, 5, gf16), build_h2(4, 4, ring17), build_h2(1, 5, gf16)):
        assert sd_depth(hm) == per_depth_sd_depth(hm) == (hm.spec.r, is_sd(hm))


# ------------------------------------------------------------- shorten

def test_shorten_equals_direct_build(gf16, ring17):
    for alg, r, n, build in ((gf16, 5, 3, build_h1), (gf16, 5, 3, build_h2),
                             (ring17, 4, 4, build_h1), (ring17, 4, 4, build_h2)):
        tall = build(r, n, alg)
        for r2 in range(1, r):
            short = shorten(tall, r2)
            direct = build(r2, n, alg)
            assert short.spec == direct.spec
            assert short.matrix == direct.matrix
            assert is_sd(short).sd


def test_shorten_and_submatrix_equal_the_checked_constructor(gf16, ring17):
    # both pass rows of plain in-range ints to Matrix._of_ints, which
    # skips Matrix's checks: the result must be the Matrix that the
    # checked constructor makes of the same rows
    def same(got, rows):
        want = Matrix(got.algebra, rows)
        assert type(got) is Matrix and got == want and hash(got) == hash(want)
        assert (got.rows, got.cols, got.bits) == (want.rows, want.cols, want.bits)
        assert all(type(row) is tuple for row in got.bits)

    for hm in (build_h2(3, 5, gf16), build_h1(4, 4, ring17), _random_generic(
            gf16, 5, 2, 3, 3, random.Random("trusted"))):
        spec, bits = hm.spec, hm.matrix.bits
        for r2 in range(1, spec.r):
            same(shorten(hm, r2).matrix, [row[:r2 * spec.n] for row in
                                          bits[:spec.m * r2] + bits[spec.m * spec.r:]])
        for rows, cols in (([0, 2, len(bits) - 1], [1, 3, 4, 9]), (range(len(bits)), [0]),
                           ([1], range(spec.total_columns)), ([], [0, 1]), ([0, 1], [])):
            same(submatrix(hm.matrix, rows, cols), [[bits[i][j] for j in cols] for i in rows])


def test_shorten_rejects_bad_row_counts(gf16):
    hm = build_h1(3, 5, gf16)
    for bad in (0, -1, 3, 4):
        with pytest.raises(BadRowCountError):
            shorten(hm, bad)


def test_is_sd_leaves_numpy_unloaded(python):
    # np_tables holds the library's only numpy import, and only sdbench
    # calls it: is_sd over a field, a split ring and a tableless ring
    # field must not load numpy, nor a thread pool (the scan runs on one
    # thread)
    script = "\n".join([
        "import sys",
        "from sdcode import build_h2, is_sd, make_field, make_ring",
        "for alg in (make_field(4), make_ring(17), make_ring(41)):",
        "    assert is_sd(build_h2(2, 4, alg)).sd, alg",
        "print('numpy loaded:', 'numpy' in sys.modules)",
        "print('concurrent.futures loaded:', 'concurrent.futures' in sys.modules)",
    ])
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["numpy loaded: False",
                                        "concurrent.futures loaded: False"]

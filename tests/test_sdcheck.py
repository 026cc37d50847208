"""Exhaustive SD verification, erasure patterns, and shortening."""
import random
from itertools import combinations
from math import comb

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
    shorten,
)
from sdcode import sdcheck
from sdcode.search import random_nonzero
from sdcode.construct import CodeSpec, ParityCheckMatrix
from sdcode.linalg import Matrix, determinant, eliminate, submatrix
from sdcode.sdcheck import SdReport, validate_pattern
from sdcode.errors import (
    BadRowCountError,
    PatternInvalidError,
    TooManyErasuresError,
)


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
    # fresh rings, not the make_ring cache, so the factor fields' fold
    # tables start empty; M_29 is irreducible (one tableless GF(2^28)), and
    # its elements need no folding, so the threads of jobs=4 build the
    # tables for products while they scan
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
    # each disk set is reported as its scan finishes, not after all of them
    scans = []
    scan = sdcheck._scan_group
    monkeypatch.setattr(sdcheck, "_scan_group", lambda *a: scans.append(a) or scan(*a))
    hm = build_h1(3, 5, gf16)
    for jobs in (0, 1):
        seen = []
        scans.clear()
        is_sd(hm, jobs=jobs,
              progress=lambda done, total: seen.append((done, total, len(scans))))
        assert seen == [(1, 5, 1), (2, 5, 2), (3, 5, 3), (4, 5, 4), (5, 5, 5)]


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
    """Every disk set's witness equals the oracle's; returns the number
    of groups that fail."""
    spec, plain = hm.spec, hm.spec.algebra.factor_views(hm.matrix.bits)
    views = sdcheck._local_blocks(spec, plain)
    failing = 0
    for disks in combinations(range(spec.n), spec.m):
        want = _eliminate_scan_group(plain, spec, disks)
        assert sdcheck._scan_group(views, spec, disks) == want, (spec, disks)
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
    lambda: build_h2(2, 5, make_ring(101)), lambda: build_h2(2, 5, make_ring(41))],
    ids=["c2_r2_n16_gf65536", "c1_r3_n16_gf65536", "c2_r2_n16_gf256", "c2_r3_n5_ring127",
         "generic_m1_s3_r2_n6_gf65536", "c2_r2_n5_ring101", "c2_r2_n5_ring41"])
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
    }


@pytest.mark.parametrize("case", sorted(_fallback_cases()))
def test_schur_scan_fallback_on_hand_made_blocks(case, monkeypatch):
    hm, singular = _fallback_cases()[case]
    residuals = []
    schur = sdcheck._schur_residual
    monkeypatch.setattr(sdcheck, "_schur_residual",
                        lambda *a: residuals.append(schur(*a)) or residuals[-1])
    _assert_groups_match_oracle(hm)
    assert (None in residuals) == singular     # some view fell back to eliminate
    naive_witness, checked = naive_is_sd(hm)
    assert is_sd(hm) == SdReport(naive_witness is None, naive_witness, checked)


def test_ring7_block_singular_in_one_factor_view_only():
    hm, _ = _fallback_cases()["ring7-one-factor"]
    views = sdcheck._local_blocks(hm.spec, hm.spec.algebra.factor_views(hm.matrix.bits))
    assert [sdcheck._schur_residual(hm.spec, *v, (0, 1)) is None for v in views] == [True, False]


def test_construction_scan_runs_no_elimination_and_one_block(gf256, monkeypatch):
    # every stripe row shares one Vandermonde block, invertible on every
    # disk set, so the s = 2 scan never calls eliminate
    hm = build_h2(6, 8, gf256)
    views = sdcheck._local_blocks(hm.spec, gf256.factor_views(hm.matrix.bits))
    assert [len(v[2]) for v in views] == [1]
    calls = []
    monkeypatch.setattr(sdcheck, "eliminate", lambda *a: calls.append(a) or eliminate(*a))
    assert is_sd(hm).sd and not calls


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


def test_shorten_rejects_bad_row_counts(gf16):
    hm = build_h1(3, 5, gf16)
    for bad in (0, -1, 3, 4):
        with pytest.raises(BadRowCountError):
            shorten(hm, bad)

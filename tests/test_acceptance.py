"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line (bypassing
capture) with the measured values and the pinned limits, then asserts.
Criterion 4 is the full-scale run (116,280 patterns, well under a
second).
"""
import os
import random
import time
from itertools import combinations
from math import comb

from sdcode import (
    ErasurePattern,
    Field,
    Matrix,
    build_h1,
    build_h2,
    decode,
    encode,
    enumerate_patterns,
    erase,
    erased_columns,
    is_sd,
    make_field,
    make_ring,
    parse_algebra,
    run_search,
    shorten,
    submatrix,
    SearchConfig,
)
from sdcode.codec import data_columns
from sdcode.construct import ParityCheckMatrix
from sdcode.linalg import determinant, is_invertible, mul_vector
from sdcode.search import extend_global_rows, format_report, trial_generator
from fixtures import ALL_REFERENCE_MATRICES, solve_ab

JOBS = os.cpu_count() or 1


def outcome(report, name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} {detail}"
    report(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_builders_match_reference_tables(report):
    t0 = time.perf_counter()
    checked = 0
    skipped = []
    mismatches = []
    for ref in ALL_REFERENCE_MATRICES:
        alg = parse_algebra(ref.algebra)
        build = build_h1 if ref.family == "construction1" else build_h2
        pcm = build(ref.r, ref.n, alg)
        covered = set()
        for printed_i, built_i in enumerate(ref.row_map):
            tokens = ref.rows[printed_i].split()
            for j, tok in enumerate(tokens):
                covered.add((built_i, j))
                checked += 1
                if pcm.matrix.entry(built_i, j) != alg.parse_element(tok):
                    mismatches.append((ref.name, built_i, j, tok))
        uncovered = pcm.matrix.rows * pcm.matrix.cols - len(covered)
        if uncovered:
            skipped.append(f"{ref.name}: {uncovered} entries skipped ({ref.note})")
    elapsed = time.perf_counter() - t0
    for line in skipped:
        report(f"  criterion 1 skip: {line}")
    ok = not mismatches and elapsed < 1.0 and checked >= 300
    outcome(report, "criterion 1", ok,
            f"entries checked={checked} mismatches={len(mismatches)} "
            f"tables=5 time={elapsed:.3f}s (limit 1s)")


def test_criterion_02_m1_family_sd_at_desk_scale(report):
    cases = (
        (build_h1(3, 5, make_field(4)), 330),
        (build_h1(5, 3, make_field(4)), 135),
        (build_h1(4, 4, make_ring(17)), 264),
    )
    results = []
    ok = True
    for hm, expect in cases:
        t0 = time.perf_counter()
        rep = is_sd(hm, jobs=JOBS)
        dt = time.perf_counter() - t0
        results.append(f"r={hm.spec.r},n={hm.spec.n}:{rep.patterns_checked}"
                       f"@{dt:.2f}s")
        ok &= rep.sd and rep.witness is None
        ok &= rep.patterns_checked == expect
        ok &= dt < 5.0
    outcome(report, "criterion 2", ok,
            f"sd=yes patterns [{', '.join(results)}] (limit 5s each)")


def test_criterion_03_m2_family_sd_with_exact_count(report):
    cases = (build_h2(3, 5, make_field(4)), build_h2(5, 3, make_field(4)))
    results = []
    counts = []
    ok = True
    for hm in cases:
        spec = hm.spec
        formula = comb(spec.n, spec.m) * comb((spec.n - spec.m) * spec.r, spec.s)
        t0 = time.perf_counter()
        rep = is_sd(hm, jobs=JOBS)
        dt = time.perf_counter() - t0
        results.append(f"r={spec.r},n={spec.n}:{rep.patterns_checked}@{dt:.2f}s")
        counts.append(rep.patterns_checked)
        ok &= rep.sd and rep.patterns_checked == formula
        ok &= dt < 10.0
    ok &= counts == [360, 30]
    outcome(report, "criterion 3", ok,
            f"sd=yes patterns=[{', '.join(results)}] "
            f"formula C(n,m)*C((n-m)r,s) asserted (limit 10s each)")


def test_criterion_04_full_scale_deep_stripe(report):
    hm = build_h2(51, 5, make_field(8))
    assert hm.spec.parity_rows == 104
    t0 = time.perf_counter()
    rep = is_sd(hm, jobs=JOBS)
    dt = time.perf_counter() - t0
    ok = rep.sd and rep.witness is None and rep.patterns_checked == 116280
    outcome(report, "criterion 4", ok,
            f"sd={'yes' if rep.sd else 'no'} patterns={rep.patterns_checked} "
            f"(expect 116280) time={dt:.2f}s jobs={JOBS}")


def _same_row_3x3_invertible(alg, r, n):
    bad = 0
    total = 0
    for i in range(r):
        for js in combinations(range(n), 3):
            m = Matrix(alg, [
                [1, 1, 1],
                [alg.alpha_pow_bits(i * n + j) for j in js],
                [alg.alpha_pow_bits(2 * i * n - j) for j in js],
            ])
            total += 1
            if not (is_invertible(m) and alg.is_unit(determinant(m))):
                bad += 1
    return total, bad


def _same_row_4x4_invertible(alg, r, n):
    bad = 0
    total = 0
    for i in range(r):
        for ts in combinations(range(n), 4):
            m = Matrix(alg, [
                [1, 1, 1, 1],
                [alg.alpha_pow_bits(t) for t in ts],
                [alg.alpha_pow_bits(3 * i * n - t) for t in ts],
                [alg.alpha_pow_bits(2 * (i * n + t)) for t in ts],
            ])
            total += 1
            if not (is_invertible(m) and alg.is_unit(determinant(m))):
                bad += 1
    return total, bad


def _ratio_units(alg, r, n):
    bad = 0
    total = 0
    for ell in range(1, r):
        for j in range(-(n - 1), n):
            total += 1
            v = alg.add_bits(1, alg.alpha_pow_bits(ell * n + j))
            if not alg.is_unit_bits(v):
                bad += 1
    return total, bad


def test_criterion_05_proof_identity_suites(report):
    gf16 = make_field(4)
    ring17 = make_ring(17)
    shapes = ((gf16, 3, 5), (gf16, 5, 3), (ring17, 4, 4))
    t3 = t4 = tu = 0
    bad = 0
    for alg, r, n in shapes:
        a, b = _same_row_3x3_invertible(alg, r, n)
        t3 += a
        bad += b
        a, b = _same_row_4x4_invertible(alg, r, n)
        t4 += a
        bad += b
        a, b = _ratio_units(alg, r, n)
        tu += a
        bad += b
    ok = bad == 0 and t3 == 3 * 10 + 5 * 1 + 4 * 4 and t4 == 3 * 5 + 0 + 4 * 1 \
        and tu == 2 * 9 + 4 * 5 + 3 * 7
    outcome(report, "criterion 5", ok,
            f"3x3 checks={t3} 4x4 checks={t4} unit-ratio checks={tu} "
            f"failures={bad} (require 0)")


def test_criterion_06_one_plus_alpha_power_is_unit(report):
    algebras = (make_field(4), make_field(8), make_ring(5), make_ring(7),
                make_ring(17))
    total = 0
    bad = 0
    for alg in algebras:
        for k in range(1, alg.order_of_alpha()):
            total += 1
            if not alg.is_unit_bits(alg.add_bits(1, alg.alpha_pow_bits(k))):
                bad += 1
    ok = bad == 0 and total == 14 + 254 + 4 + 6 + 16
    outcome(report, "criterion 6", ok,
            f"units checked={total} over GF(16), GF(256), p=5,7,17 "
            f"failures={bad} (require 0)")


def test_criterion_07_shortening_preserves_sd_and_matches_builds(report):
    gf16 = make_field(4)
    ring17 = make_ring(17)
    matrices = (
        (build_h1, 3, 5, gf16), (build_h1, 5, 3, gf16), (build_h1, 4, 4, ring17),
        (build_h2, 3, 5, gf16), (build_h2, 5, 3, gf16),
    )
    sd_checked = equal_checked = 0
    bad = []
    for build, r, n, alg in matrices:
        tall = build(r, n, alg)
        for r2 in range(1, r):
            short = shorten(tall, r2)
            if not is_sd(short, jobs=JOBS).sd:
                bad.append(f"sd lost at r'={r2} of {build.__name__}({r},{n})")
            sd_checked += 1
            direct = build(r2, n, alg)
            if short.matrix != direct.matrix or short.spec != direct.spec:
                bad.append(f"mismatch at r'={r2} of {build.__name__}({r},{n})")
            equal_checked += 1
    ok = not bad and sd_checked == equal_checked == 2 + 4 + 3 + 2 + 4
    outcome(report, "criterion 7", ok,
            f"shortened matrices: sd verdicts={sd_checked} entrywise "
            f"equalities={equal_checked} failures={len(bad)} {bad or ''}")


def test_criterion_08_codec_round_trip_exhaustive(report):
    gf16 = make_field(4)
    rng = random.Random(0xC0DEC)
    t0 = time.perf_counter()
    trials = 0
    bad = 0
    for hm in (build_h1(3, 5, gf16), build_h2(3, 5, gf16)):
        k = len(data_columns(hm.spec))
        data = [gf16.element(rng.getrandbits(4)) for _ in range(k)]
        st = encode(hm, data)
        for p in enumerate_patterns(hm.spec):
            out = decode(hm, erase(st, p))
            trials += 1
            if out.vec_bits() != st.vec_bits():
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and trials == 330 + 360 and elapsed < 30.0
    outcome(report, "criterion 8", ok,
            f"pattern trials={trials} (need >= 690) mismatches={bad} "
            f"seed=0xC0DEC time={elapsed:.2f}s (limit 30s)")


def test_criterion_09_ring_field_cross_check(report):
    ring5 = make_ring(5)
    f16alt = Field(4, modulus=0x1F)  # same modulus, field machinery
    rng = random.Random(509)
    systems = 0
    status_counts = {"ok": 0, "deficient": 0, "inconsistent": 0}
    bad = 0
    while systems < 200:
        k = rng.randrange(1, 6)
        nrows = k + 1 if systems % 7 == 6 else k  # tall systems too
        rows = [[rng.getrandbits(4) for _ in range(k)] for _ in range(nrows)]
        b = [rng.getrandbits(4) for _ in range(nrows)]
        if systems % 5 == 4 and nrows == k:
            rows[-1] = list(rows[0])  # force singular systems regularly
        rs, rx = solve_ab(Matrix(ring5, rows), b)
        fs, fx = solve_ab(Matrix(f16alt, rows), b)
        systems += 1
        status_counts[rs] = status_counts.get(rs, 0) + 1
        if rs != fs or rx != fx:
            bad += 1
    ok = (bad == 0 and systems == 200 and status_counts["ok"] > 100
          and status_counts["deficient"] > 10
          and status_counts["inconsistent"] > 10)
    outcome(report, "criterion 9", ok,
            f"systems=200 statuses={status_counts} disagreements={bad} "
            f"(require exact agreement)")


def test_criterion_10_search_injection_pruning_reproducibility(report):
    gf16 = make_field(4)
    cfg = SearchConfig(n=5, m=1, s=2, r_max=3, trials=1, seed=424242,
                       algebra=gf16)

    def from_construction(rng, rows, n, algebra):
        r_next = len(rows[0]) // n + 1
        hm = build_h1(r_next, n, algebra)
        return [hm.matrix.row_elements(r_next + t) for t in range(2)]

    injected = run_search(cfg, extend=from_construction)
    inj_ok = injected[0].achieved_r == 3 and injected[0].failed_at is None

    # instrumented pruning on random trials: no checks after a failure
    cfg_rand = SearchConfig(n=5, m=1, s=2, r_max=3, trials=10, seed=20240819,
                            algebra=gf16)
    calls = []

    def counting_check(hm):
        rep = is_sd(hm)
        calls.append((hm.spec.r, rep.sd))
        return rep

    records = run_search(cfg_rand, check=counting_check)
    i = 0
    prune_ok = True
    failures_seen = 0
    for rec in records:
        depth = rec.failed_at if rec.failed_at is not None else cfg_rand.r_max
        if rec.failed_at is not None:
            failures_seen += 1
        for expect_r in range(1, depth + 1):
            r, sd = calls[i]
            prune_ok &= (r == expect_r) and (sd == (expect_r <= rec.achieved_r))
            i += 1
    prune_ok &= i == len(calls) and failures_seen > 0

    rep_a = format_report(run_search(cfg_rand, jobs=1))
    rep_b = format_report(run_search(cfg_rand, jobs=4))
    rep_c = format_report(run_search(cfg_rand, jobs=1))
    repro_ok = rep_a == rep_b == rep_c

    ok = inj_ok and prune_ok and repro_ok
    outcome(report, "criterion 10", ok,
            f"injected achieved_r={injected[0].achieved_r} (need 3), "
            f"pruned trials={len(records)} with {failures_seen} early stops and "
            f"zero post-failure checks={prune_ok}, reports identical across "
            f"jobs/runs={repro_ok}")


def test_criterion_11_negative_control_with_determinant_oracle(report):
    gf16 = make_field(4)
    good = build_h1(3, 5, gf16)
    rows = [list(r) for r in good.matrix.bits]
    rows[3][0] = rows[3][1]  # corrupt one global-row entry
    bad = ParityCheckMatrix(good.spec, Matrix(gf16, rows))

    rep = is_sd(bad, jobs=JOBS)
    frozen_witness = ErasurePattern((0,), ((0, 2), (1, 4)))

    # brute-force first failure must match the reported witness
    naive_first = None
    for p in enumerate_patterns(bad.spec):
        cols = erased_columns(p, bad.spec)
        sub = submatrix(bad.matrix, range(bad.matrix.rows), cols)
        if determinant(sub).bits == 0:
            naive_first = p
            break
    det_zero = False
    if rep.witness is not None:
        wcols = erased_columns(rep.witness, bad.spec)
        wsub = submatrix(bad.matrix, range(bad.matrix.rows), wcols)
        det_zero = determinant(wsub).bits == 0

    ok = (not rep.sd and rep.witness == frozen_witness == naive_first
          and det_zero and rep.patterns_checked == 330)
    wtext = rep.witness and f"d={rep.witness.disks} s={rep.witness.sectors}"
    outcome(report, "criterion 11", ok,
            f"sd=no witness={wtext} matches brute-force first failure, "
            f"witness determinant=0: {det_zero}")

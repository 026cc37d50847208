"""Randomized search for deep stripes, with shortening-based pruning."""
import hashlib
import io

import pytest

from sdcode import (
    SearchConfig,
    TrialRecord,
    build_h1,
    extend_global_rows,
    is_sd,
    make_field,
    make_ring,
    run_search,
)
from sdcode import sdcheck
from sdcode.search import (
    _digest,
    format_report,
    random_nonzero,
    trial_generator,
    write_report,
)
from sdcode.algebra import Element, Field
from sdcode.errors import OrderTooSmallError, ZeroGlobalEntryError


def config(gf16, **kw):
    base = dict(n=4, m=1, s=2, r_max=3, trials=5, seed=20240801, algebra=gf16)
    base.update(kw)
    return SearchConfig(**base)


def test_config_validation(gf16):
    with pytest.raises(ValueError):
        config(gf16, trials=0)
    # the shape rules are CodeSpec's, checked before any trial runs
    for bad in (dict(r_max=0), dict(m=4), dict(m=0), dict(m=5), dict(s=-1)):
        with pytest.raises(ValueError, match="need"):
            config(gf16, **bad)
    with pytest.raises(OrderTooSmallError):
        config(gf16, r_max=4)  # 4*4 = 16 > 15


def test_trial_streams_are_reproducible_and_distinct(gf16):
    a = [random_nonzero(trial_generator(9, 0), gf16).bits for _ in range(1)]
    b = [random_nonzero(trial_generator(9, 0), gf16).bits for _ in range(1)]
    assert a == b
    seq0 = [random_nonzero(trial_generator(9, 0), gf16).bits for _ in range(20)]
    rng1 = trial_generator(9, 1)
    seq1 = [random_nonzero(rng1, gf16).bits for _ in range(20)]
    assert seq0 != seq1


def test_random_nonzero_never_zero_and_roughly_uniform(gf16):
    rng = trial_generator(0, 0)
    counts = [0] * 16
    n = 3000
    for _ in range(n):
        counts[random_nonzero(rng, gf16).bits] += 1
    assert counts[0] == 0
    # chi-square against uniform over the 15 nonzero values
    expect = n / 15
    chi2 = sum((c - expect) ** 2 / expect for c in counts[1:])
    assert chi2 < 40  # 0.999 quantile of chi-square with df=14 is ~36.1


def test_extend_preserves_prefix(gf16):
    rng = trial_generator(3, 0)
    rows = [[] for _ in range(2)]
    prefixes = []
    for _ in range(3):
        rows = extend_global_rows(rng, rows, 4, gf16)
        prefixes.append([list(r) for r in rows])
    for shorter, longer in zip(prefixes, prefixes[1:]):
        for a, b in zip(shorter, longer):
            assert b[:len(a)] == a
    assert all(e.bits for row in rows for e in row)


def test_search_is_deterministic_and_jobs_invariant(gf16):
    cfg = config(gf16)
    r1 = run_search(cfg)
    r2 = run_search(cfg)
    r4 = run_search(cfg, jobs=4)
    assert r1 == r2 == r4
    assert [rec.trial for rec in r1] == list(range(cfg.trials))
    assert format_report(r1) == format_report(r4)


def test_search_report_is_pinned(gf16):
    # a change to the trial stream or to the draw changes these lines
    cfg = SearchConfig(n=5, m=1, s=2, r_max=3, trials=4, seed=7, algebra=gf16)
    assert format_report(run_search(cfg)) == (
        "0\t1\t2\td=0 s=0:1,1:1\tb93038a11bf9\n"
        "1\t0\t1\td=2 s=0:3,0:4\t11b3b3c4f3d6\n"
        "2\t0\t1\td=0 s=0:1,0:3\t9b8b73cdf5a4\n"
        "3\t0\t1\td=1 s=0:3,0:4\t5008d2765fd6\n")


@pytest.mark.parametrize("w,seed,digest", [
    (16, 1, "232b5f69b5036cc8"), (16, 7919, "c21cf28eede0309e"),
    (8, 1, "eeab956b82fd24ca"), (8, 7919, "0f338b02d6cf1d1b")])
def test_search_report_bytes_are_pinned(w, seed, digest):
    # sdbench's search shape: the first 16 hex digits of the report's
    # SHA-256, taken when trials drew Elements and scanned disk sets
    # each from depth r_max; the int draws and the carried depth keep them
    cfg = SearchConfig(n=8, m=2, s=2, r_max=8, trials=40, seed=seed, algebra=make_field(w))
    text = format_report(run_search(cfg))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("alg_name,n,s,r_max,trials,seed,digest", [
    ("gf256", 6, 3, 6, 6, 1, "a15953333ae6d154"), ("gf256", 6, 3, 6, 6, 7919, "0a96e642c230a13f"),
    ("gf256", 5, 4, 4, 4, 1, "7466fb35798cd4b8"), ("gf256", 5, 4, 4, 4, 7919, "e2638613a5a2e2c2"),
    ("ring17", 5, 3, 3, 6, 1, "077729cd8e45ef40"), ("ring17", 5, 3, 3, 6, 7919, "881efd0d785d86f5"),
    ("ring17", 4, 4, 4, 4, 1, "6eee7bfd4a605422"), ("ring17", 4, 4, 4, 4, 7919, "cbc54b50e13463ea")])
def test_s3_and_s4_search_report_bytes_are_pinned(alg_name, n, s, r_max, trials, seed, digest):
    # witnesses follow the enumeration order, not the scan's kernel: these
    # digests were taken when the s >= 3 peel eliminated at every column
    alg = make_field(8) if alg_name == "gf256" else make_ring(17)
    cfg = SearchConfig(n=n, m=1, s=s, r_max=r_max, trials=trials, seed=seed, algebra=alg)
    text = format_report(run_search(cfg))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("alg_name", ["gf16", "ring17"])
def test_default_search_builds_no_element(alg_name, monkeypatch):
    alg = make_field(4) if alg_name == "gf16" else make_ring(17)
    cfg = SearchConfig(n=5 if alg_name == "ring17" else 4, m=1, s=2, r_max=3, trials=8,
                       seed=3, algebra=alg)
    built = []
    post_init, element = Element.__post_init__, Field.element
    monkeypatch.setattr(Element, "__post_init__", lambda e: built.append(e) or post_init(e))
    monkeypatch.setattr(Field, "element", lambda f, bits: built.append(bits) or element(f, bits))
    records = run_search(cfg)
    assert built == []
    assert any(rec.witness for rec in records)
    # the counters see the Element hook path
    assert run_search(cfg, extend=extend_global_rows) == records and built


def test_a_zero_from_an_extend_hook_raises(gf16):
    def zero_last(rng, rows, n, algebra):
        out = extend_global_rows(rng, rows, n, algebra)
        out[-1][-1] = algebra.zero
        return out

    for check in (None, is_sd):
        with pytest.raises(ZeroGlobalEntryError):
            run_search(config(gf16), check=check, extend=zero_last)


def test_search_results_are_consistent(gf16):
    cfg = config(gf16, trials=8)
    for rec in run_search(cfg):
        assert 0 <= rec.achieved_r <= cfg.r_max
        if rec.failed_at is None:
            assert rec.achieved_r == cfg.r_max
            assert rec.witness is None
        else:
            assert rec.failed_at == rec.achieved_r + 1
            assert rec.witness is not None
        assert len(rec.coeff_digest) == 12
        int(rec.coeff_digest, 16)


def test_achieved_r_is_verifiable_from_the_stream(gf16):
    from sdcode import build_h_generic

    cfg = config(gf16, trials=6)
    for rec in run_search(cfg):
        if rec.achieved_r == 0:
            continue
        rng = trial_generator(cfg.seed, rec.trial)
        rows = [[] for _ in range(cfg.s)]
        for _ in range(rec.achieved_r):
            rows = extend_global_rows(rng, rows, cfg.n, cfg.algebra)
        hm = build_h_generic(cfg.n, cfg.m, cfg.s, rec.achieved_r, rows, cfg.algebra)
        assert is_sd(hm).sd


def test_pruning_stops_at_first_failure(gf16):
    calls = []

    def counting_check(hm):
        rep = is_sd(hm)
        calls.append((len(calls), hm.spec.r, rep.sd))
        return rep

    cfg = config(gf16, trials=6)
    records = run_search(cfg, check=counting_check)
    # replay the call log trial by trial: r climbs 1,2,... and a trial
    # issues no further checks after its first non-SD verdict
    i = 0
    for rec in records:
        depth = rec.failed_at if rec.failed_at is not None else cfg.r_max
        for expect_r in range(1, depth + 1):
            _, r, sd = calls[i]
            assert r == expect_r
            assert sd == (expect_r <= rec.achieved_r)
            i += 1
    assert i == len(calls)


@pytest.mark.parametrize("alg_name,n,m,s,r_max", [
    ("gf16", 5, 1, 2, 3), ("gf16", 4, 1, 1, 3), ("gf256", 6, 2, 2, 6),
    ("gf256", 5, 1, 3, 5), ("gf256", 6, 2, 4, 4), ("ring7", 5, 2, 2, 1),
    ("ring7", 4, 1, 3, 1), ("ring17", 6, 2, 2, 2), ("ring17", 5, 3, 4, 3)])
def test_one_scan_search_matches_the_per_depth_loop(alg_name, n, m, s, r_max):
    alg = {"gf16": make_field(4), "gf256": make_field(8),
           "ring7": make_ring(7), "ring17": make_ring(17)}[alg_name]
    for seed in (1, 7919, "x"):
        cfg = SearchConfig(n=n, m=m, s=s, r_max=r_max, trials=6, seed=seed, algebra=alg)
        oracle = format_report(run_search(cfg, check=is_sd))
        assert format_report(run_search(cfg)) == oracle
        assert format_report(run_search(cfg, jobs=2)) == oracle


def test_a_second_search_reuses_every_schur_plan(monkeypatch):
    # every trial has the same local blocks, so after one search over
    # GF(2^16) a second one (other global rows) builds no plan and takes
    # no determinant
    cfg = SearchConfig(n=8, m=2, s=2, r_max=8, trials=3, seed=1, algebra=make_field(16))
    dets = []
    det_bits = sdcheck.det_bits
    monkeypatch.setattr(sdcheck, "det_bits", lambda *a: dets.append(a) or det_bits(*a))
    sdcheck._schur_plan.cache_clear()
    first = run_search(cfg)
    built = sdcheck._schur_plan.cache_info().misses
    assert built == 1 and dets      # 28 disk sets of 6 entries of 16 bits: one batch
    again = run_search(SearchConfig(n=8, m=2, s=2, r_max=8, trials=3, seed=2,
                                    algebra=make_field(16)))
    assert sdcheck._schur_plan.cache_info().misses == built
    assert len(dets) == 28 * 5      # a det and 4 minors per disk set, first search only
    assert [r.coeff_digest for r in again] != [r.coeff_digest for r in first]


def test_one_scan_search_draws_every_depth_in_trial_order(gf16):
    # the default path draws all r_max depths of a trial before scanning,
    # from the same stream in the same order as the per-depth loop
    cfg = config(gf16, trials=6)
    calls = []

    def recording(rng, rows, n, algebra):
        out = extend_global_rows(rng, rows, n, algebra)
        calls.append([[e.bits for e in row] for row in out])
        return out

    records = run_search(cfg, extend=recording)
    assert len(calls) == cfg.trials * cfg.r_max
    for t in range(cfg.trials):
        rng = trial_generator(cfg.seed, t)
        rows = [[] for _ in range(cfg.s)]
        for r in range(cfg.r_max):
            rows = extend_global_rows(rng, rows, cfg.n, cfg.algebra)
            assert calls[t * cfg.r_max + r] == [[e.bits for e in row] for row in rows]
    assert any(rec.failed_at is not None and rec.failed_at < cfg.r_max for rec in records)


def test_injected_coefficients_reach_full_depth(gf16):
    # feeding the two global rows of the m=1 family must reach r_max,
    # since that construction is SD at every depth here
    cfg = config(gf16, n=5, r_max=3, trials=1)

    def from_construction(rng, rows, n, algebra):
        r_next = len(rows[0]) // n + 1
        hm = build_h1(r_next, n, algebra)
        return [hm.matrix.row_elements(r_next + t) for t in range(2)]

    records = run_search(cfg, extend=from_construction)
    assert records[0].achieved_r == 3
    assert records[0].failed_at is None


def test_report_format_and_file(tmp_path):
    from sdcode import ErasurePattern

    recs = [
        TrialRecord(0, 3, None, None, "abcdef012345"),
        TrialRecord(1, 1, 2, ErasurePattern((0,), ((0, 1), (1, 2))), "0123456789ab"),
    ]
    text = format_report(recs)
    lines = text.splitlines()
    assert lines[0].split("\t") == ["0", "3", "-", "-", "abcdef012345"]
    assert lines[1].split("\t") == ["1", "1", "2", "d=0 s=0:1,1:2", "0123456789ab"]
    out = tmp_path / "report.tsv"
    write_report(recs, out)
    assert out.read_text() == text
    assert format_report([]) == ""


def test_digest_depends_on_coefficients(gf16):
    # the digest reads the rows' bits, as run_search keeps them
    rows_a = [[1, gf16.alpha_pow_bits(1)]]
    rows_b = [[1, gf16.alpha_pow_bits(2)]]
    assert _digest(rows_a, gf16) != _digest(rows_b, gf16)
    assert _digest(rows_a, gf16) == _digest([list(rows_a[0])], gf16)

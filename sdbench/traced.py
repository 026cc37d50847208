"""The traced run: per-layer metrics from spans around the calls into each
sdcode layer, plus external timings of single public calls.

Spans are recorded from the benchmark's own files.  The run uses the
library's injection points where they exist (run_search's check= and
extend=) and otherwise rebinds, for the duration of the run, the
module-level name the caller looks up at call time (sdcode.codec.solve_bits,
sdcode.search.build_h_generic, sdcode.cli.is_sd).  A wrapper never alters
arguments or results.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import io
from contextlib import ExitStack, contextmanager, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import sdcode.cli
import sdcode.codec
import sdcode.search
from sdcode import (
    Field,
    build_h1,
    build_h2,
    extend_global_rows,
    is_sd,
    read_matrix,
    write_matrix,
)
from sdcode import _gf2poly as poly
from sdcode.linalg import factor_ranks, submatrix

from .inputs import STREAM_MICRO, Sizes, algebra_of, build, rng_for, setup
from .workloads import (
    KINDS,
    Codec,
    Probe,
    Search,
    Tally,
    Verify,
    Workload,
    make_workload,
    median,
    stripe_bytes,
)

# Span record fields, in order.
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "tag")


class Tracer:
    """In-memory spans.  A span opened with no span open starts a new op;
    nested spans inherit the op of the span that caused them."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = 0
        self.tag = ""

    def new_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str):
        if not self._open:
            self.op += 1
        parent = self._open[-1] if self._open else None
        rec = [name, perf_counter_ns(), 0, parent, self.op, self.tag]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield len(self.spans) - 1
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, module, attr: str, name: str):
        """Trace the calls a module makes through one of its global names."""
        orig = getattr(module, attr)
        setattr(module, attr, self.wrap(name, orig))
        try:
            yield
        finally:
            setattr(module, attr, orig)

    # -- reading spans back --------------------------------------------------

    def select(self, name: str, tag: str | None = None) -> list[int]:
        return [k for k, s in enumerate(self.spans)
                if s[0] == name and (tag is None or s[5] == tag)]

    def seconds(self, k: int) -> float:
        return (self.spans[k][2] - self.spans[k][1]) / 1e9

    def total(self, ids) -> float:
        return sum(self.seconds(k) for k in ids)

    def child_seconds(self, ids, name: str) -> float:
        """Time that spans called `name` cover directly under the given spans."""
        parents = set(ids)
        return sum(self.seconds(k) for k, s in enumerate(self.spans)
                   if s[0] == name and s[3] in parents)


def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


class TracedProbe(Probe):
    """The entry points a pass calls, wrapped in spans."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer
        self.trial_spans: list[int] = []
        self.is_sd = tracer.wrap("sdcheck.is_sd", is_sd)
        self.encode = tracer.wrap("codec.encode", self.encode)
        self.decode = tracer.wrap("codec.decode", self.decode)
        extend = tracer.wrap("search.extend_global_rows", extend_global_rows)

        def extend_marking_trials(rng, rows, n, algebra):
            # Each trial starts from empty global rows: that call opens the trial.
            if not any(rows):
                tracer.new_op()
                self.trial_spans.append(len(tracer.spans))
            return extend(rng, rows, n, algebra)

        self.search_kwargs = {
            "check": tracer.wrap("sdcheck.is_sd", lambda hm: is_sd(hm, jobs=1)),
            "extend": extend_marking_trials,
        }

    def run_search(self, cfg, **kwargs):
        """run_search through its injection points; adds a derived
        search.trial span per trial, from its first extend call to the next
        trial's (or the end)."""
        tracer = self.tracer
        first = len(self.trial_spans)
        with tracer.span("search.run_search") as chunk:
            recs = super().run_search(cfg, **self.search_kwargs, **kwargs)
        starts = self.trial_spans[first:]
        ends = [tracer.spans[k][1] for k in starts[1:]] + [tracer.spans[chunk][2]]
        for k, end in zip(starts, ends):
            tracer.spans.append(["search.trial", tracer.spans[k][1], end, chunk,
                                 tracer.spans[k][4], tracer.tag])
        return recs

    def label(self, tag: str) -> None:
        self.tracer.tag = tag

    @contextmanager
    def patches(self):
        with ExitStack() as stack:
            stack.enter_context(self.tracer.patched(
                sdcode.codec, "solve_bits", "linalg.solve_bits"))
            stack.enter_context(self.tracer.patched(
                sdcode.search, "build_h_generic", "construct.build_h_generic"))
            yield


def jobs_speedup(call, nproc: int, pairs: int) -> float:
    """Median over pairs of (jobs=1 time / jobs=nproc time), the pairs
    alternating which runs first; call(jobs) does one timed op."""
    ratios = []
    for i in range(pairs):
        took = {}
        for jobs in ((1, nproc) if i % 2 == 0 else (nproc, 1)):
            took[jobs] = call(jobs)
        ratios.append(took[1] / took[nproc])
    return median(ratios)


# -- external timings of single calls -----------------------------------------

def per_call(fn, args: list[tuple], repeats: int = 5) -> float:
    """Median over batches of the seconds one call takes."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for a in args:
            fn(*a)
        times.append((perf_counter() - t0) / len(args))
    return median(times)


def sized_args(fn, make, seconds: float) -> list[tuple]:
    """Enough argument tuples that one batch takes about `seconds`."""
    probe = [make() for _ in range(20)]
    est = per_call(fn, probe, repeats=1)
    return probe + [make() for _ in range(max(0, min(20000, int(seconds / est)) - 20))]


def timed(fn) -> float:
    """Median wall seconds of three calls of a zero-argument function."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def micro_layers(seed: int, sizes: Sizes, mats: dict, workdir: Path) -> dict:
    rng = rng_for(seed, STREAM_MICRO)

    def bits(width: int) -> int:
        return int.from_bytes(rng.bytes((width + 7) // 8), "little") % ((1 << width) - 1) + 1

    f8, f16 = algebra_of("gf256"), algebra_of("gf65536")
    r31, r41, r101, r127 = (algebra_of(f"ring{p}") for p in (31, 41, 101, 127))
    d31 = r31.factorization.factor_degree
    calls = {
        "algebra.mul_bits.ns.gf256": (f8.mul_bits, lambda: (bits(8), bits(8)), 1e9),
        "algebra.mul_bits.ns.gf65536": (f16.mul_bits, lambda: (bits(16), bits(16)), 1e9),
        "algebra.mul_bits.us.ring31": (r31.mul_bits, lambda: (bits(30), bits(30)), 1e6),
        "algebra.project_bits.us.ring31": (
            r31.project_bits,
            lambda: (bits(30), int(rng.integers(len(r31.factor_ops)))), 1e6),
        "algebra.crt_bits.us.ring31": (
            r31.crt_bits, lambda: ([bits(d31) for _ in r31.factor_ops],), 1e6),
        "algebra.factor_mul.ns.ring41": (r41.factor_ops[0].mul, lambda: (bits(20), bits(20)), 1e9),
        "algebra.factor_mul.ns.ring101": (
            r101.factor_ops[0].mul, lambda: (bits(100), bits(100)), 1e9),
        "gf2poly.mulmod.ns.deg20": (
            poly.mulmod, lambda: (bits(20), bits(20), r41.factorization.factors[0]), 1e9),
        "gf2poly.mulmod.ns.deg100": (
            poly.mulmod, lambda: (bits(100), bits(100), r101.factorization.factors[0]), 1e9),
        "gf2poly.mod.ns.ring127": (
            poly.mod, lambda: (bits(126), r127.factorization.factors[
                int(rng.integers(len(r127.factor_ops)))]), 1e9),
    }
    out = {}
    for name, (fn, make, scale) in calls.items():
        out[name] = (per_call(fn, sized_args(fn, make, sizes.micro_seconds)) * scale,
                     name.split(".")[2])

    field_s, tables_s = [], []
    for _ in range(3):
        t0 = perf_counter()
        fresh = Field(16)
        t1 = perf_counter()
        fresh.ops.np_tables()
        field_s.append(t1 - t0)
        tables_s.append(perf_counter() - t1)
    out["algebra.make_field.ms.w16"] = (median(field_s) * 1e3, "ms")
    out["algebra.np_tables.ms.w16"] = (median(tables_s) * 1e3, "ms")

    for sh in sizes.verify_scalar:
        hm = mats[sh.name][0]
        cols = sorted(hm.spec.column_of(i, d) for i in range(sh.r) for d in range(sh.m))
        sub = submatrix(hm.matrix, range(hm.matrix.rows), cols)
        out[f"linalg.factor_ranks.ms.{sh.name}"] = (timed(lambda: factor_ranks(sub)) * 1e3, "ms")

    builders = {"construction1": build_h1, "construction2": build_h2}
    for sh in sizes.verify_table:
        alg = algebra_of(sh.algebra)
        hm = mats[sh.name][0]
        path = workdir / f"micro-{sh.name}.txt"
        out[f"construct.build.ms.{sh.name}"] = (
            timed(lambda: builders[sh.family](sh.r, sh.n, alg)) * 1e3, "ms")
        out[f"construct.write_matrix.ms.{sh.name}"] = (
            timed(lambda: write_matrix(hm, str(path))) * 1e3, "ms")
        out[f"construct.read_matrix.ms.{sh.name}"] = (
            timed(lambda: read_matrix(str(path))) * 1e3, "ms")
    return out


# -- traced workloads ----------------------------------------------------------

def trace_verify(tracer: Tracer, probe: TracedProbe, ladders: list[Verify], nproc: int,
                 sizes: Sizes, tally: Tally) -> dict:
    """Per-shape metrics from one traced pass of each ladder, and the jobs
    speedup on the table ladder's first shape."""
    out = {}
    for work in ladders:
        work.run_pass(0, probe)
        for sh in work.shapes:
            rep = work.first.get((sh.name, 0))
            if rep is None:
                continue
            dt = tracer.total(tracer.select("sdcheck.is_sd", sh.name))
            out[f"sdcheck.is_sd.patterns_per_s.{sh.name}"] = (rep.patterns_checked / dt,
                                                               "patterns/s")
            out[f"sdcheck.is_sd.us_per_group.{sh.name}"] = (dt / comb(sh.n, sh.m) * 1e6, "us")
    table = ladders[0]
    big = table.shapes[0]

    def call(jobs: int) -> float:
        t0 = perf_counter()
        rep = tally.call(f"is_sd {big.name} jobs={jobs}", is_sd, table.mats[big.name][0],
                         jobs=jobs)
        dt = perf_counter() - t0
        if rep is not None and rep != table.first.get((big.name, 0)):
            tally.fail(f"{big.name}: jobs={jobs} report {rep} != first report "
                       f"{table.first.get((big.name, 0))}")
        return dt

    out[f"sdcheck.is_sd.jobs_speedup.{big.name}"] = (
        jobs_speedup(call, nproc, sizes.jobs_pairs), "ratio")
    return out


def trace_codec(tracer: Tracer, probe: TracedProbe, work: Codec, sizes: Sizes) -> dict:
    out = {}
    with probe.patches():
        for i in range(sizes.traced_codec_rounds * work.round):
            work.run_pass(i, probe)
    for code in work.codes:
        enc = [k for kind in KINDS for k in tracer.select("codec.encode", f"{code.name}/{kind}")]
        dec = {kind: tracer.select("codec.decode", f"{code.name}/{kind}") for kind in KINDS}
        dec_all = dec[KINDS[0]] + dec[KINDS[1]]
        solves = [k for kind in KINDS
                  for k in tracer.select("linalg.solve_bits", f"{code.name}/{kind}")]
        enc_s, dec_s = tracer.total(enc), tracer.total(dec_all)
        solve_in_dec = tracer.child_seconds(dec_all, "linalg.solve_bits")
        out[f"linalg.solve_bits.us.{code.name}"] = (
            median([tracer.seconds(k) for k in solves]) * 1e6, "us")
        out[f"linalg.solve_bits.share.{code.name}"] = (solve_in_dec / dec_s, "share")
        out[f"codec.encode.self_share.{code.name}"] = (
            1 - tracer.child_seconds(enc, "linalg.solve_bits") / enc_s, "share")
        out[f"codec.decode.self_share.{code.name}"] = (1 - solve_in_dec / dec_s, "share")
        size = stripe_bytes(work.mats[code.name][0])
        for kind in KINDS:
            out[f"codec.decode.MBps.{kind}.{code.name}"] = (
                size * len(dec[kind]) / tracer.total(dec[kind]) / 1e6, "MB/s")
        ms = [tracer.seconds(k) * 1e3 for k in dec_all]
        out[f"codec.decode.stripe_ms.p50.{code.name}"] = (pct(ms, 50), "ms")
        out[f"codec.decode.stripe_ms.p99.{code.name}"] = (pct(ms, 99), "ms")
        out[f"codec.decode.samples.{code.name}"] = (len(ms), "count")
    return out


def trace_search(tracer: Tracer, probe: TracedProbe, work: Search, nproc: int,
                 sizes: Sizes) -> dict:
    with probe.patches():
        for c in range(sizes.traced_search_chunks):
            work.run_pass(c, probe)
    plain = Probe()
    speedup = jobs_speedup(lambda jobs: work.chunk(0, plain, jobs=jobs)[0], nproc,
                           sizes.jobs_pairs)

    chunks = tracer.select("search.run_search", "search")
    total = tracer.total(chunks)
    checks = tracer.select("sdcheck.is_sd", "search")
    check_ms = [tracer.seconds(k) * 1e3 for k in checks]
    trial_ms = [tracer.seconds(k) * 1e3 for k in tracer.select("search.trial", "search")]
    records = [rec for recs in work.records.values() for rec in recs]
    out = {
        "search.trial.ms.p50": (pct(trial_ms, 50), "ms"),
        "search.trial.ms.p90": (pct(trial_ms, 90), "ms"),
        "search.extend.share": (
            tracer.total(tracer.select("search.extend_global_rows", "search")) / total, "share"),
        "construct.build_h_generic.share": (
            tracer.total(tracer.select("construct.build_h_generic", "search")) / total, "share"),
        "sdcheck.is_sd.calls": (len(checks), "count"),
        "sdcheck.is_sd.ms_per_call.p50": (pct(check_ms, 50), "ms"),
        "sdcheck.is_sd.ms_per_call.p90": (pct(check_ms, 90), "ms"),
        "sdcheck.is_sd.share": (sum(check_ms) / 1e3 / total, "share"),
        "sdcheck.is_sd.jobs_speedup.search": (speedup, "ratio"),
    }
    for r in range(1, sizes.search.r_max + 1):
        out[f"search.reached.r{r}"] = (sum(rec.achieved_r >= r for rec in records), "count")
    return out


def cli_overhead(tracer: Tracer, sizes: Sizes, seed: int, workdir: Path, tally: Tally) -> dict:
    """In-process `sdcode verify` on the criterion-4 matrix file, minus its
    is_sd time."""
    shape = sizes.cli_shape
    path = workdir / f"{shape.name}.txt"
    write_matrix(build(shape, seed), str(path))
    tracer.tag = "cli"
    overheads = []
    with tracer.patched(sdcode.cli, "is_sd", "sdcheck.is_sd"):
        for _ in range(5):
            out = io.StringIO()
            with tracer.span("cli.main") as k, redirect_stdout(out):
                rc = tally.call("cli verify", sdcode.cli.main,
                                ["verify", "-H", str(path), "--jobs", "1"])
            if rc != 0 or out.getvalue().split() != [f"patterns={shape.patterns}", "sd=yes"]:
                tally.fail(f"cli verify {shape.name}: exit {rc}, output {out.getvalue()!r}")
            overheads.append(tracer.seconds(k) - tracer.child_seconds([k], "sdcheck.is_sd"))
    return {"cli.verify.overhead_ms": (median(overheads) * 1e3, "ms")}


# -- the traced run ------------------------------------------------------------

def tracing_overhead(work: Workload, seconds: float) -> tuple[float, Tracer]:
    """Pairs of the same pass of a workload, plain and traced, alternating
    which goes first, for `seconds`: traced time / plain time - 1."""
    tracer = Tracer()
    probes = (Probe(), TracedProbe(tracer))
    spent = [0.0, 0.0]
    t_end = perf_counter() + seconds
    i = 0
    while True:
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            probe = probes[side]
            t0 = perf_counter()
            with probe.patches():
                work.run_pass(i, probe)
            spent[side] += perf_counter() - t0
        i += 1
        if perf_counter() >= t_end:
            break
    return spent[1] / spent[0] - 1, tracer


def run_traced(workload: str, seed: int, seconds: float, sizes: Sizes, workdir: Path,
               nproc: int, tally: Tally) -> tuple[dict, dict]:
    """Every per-layer metric, and the spans that gave them."""
    mats = {}
    for w in ("verify-table", "verify-scalar", "codec"):
        mats.update(setup(w, seed, workdir, sizes))
    works = {w: make_workload(w, mats, seed, sizes, nproc, tally)
             for w in ("verify-table", "verify-scalar", "codec", "search")}
    tracer = Tracer()
    probe = TracedProbe(tracer)
    metrics = micro_layers(seed, sizes, mats, workdir)
    metrics.update(trace_verify(tracer, probe, [works["verify-table"], works["verify-scalar"]],
                                nproc, sizes, tally))
    metrics.update(trace_codec(tracer, probe, works["codec"], sizes))
    metrics.update(trace_search(tracer, probe, works["search"], nproc, sizes))
    metrics.update(cli_overhead(tracer, sizes, seed, workdir, tally))
    overhead, overhead_tracer = tracing_overhead(works[workload], seconds)
    metrics["trace.overhead.share"] = (overhead, "share")
    spans = {"fields": SPAN_FIELDS, "suite": tracer.spans, "overhead": overhead_tracer.spans}
    return metrics, spans

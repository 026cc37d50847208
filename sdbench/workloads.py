"""The four workloads: one pass function each, the closed timing loop
around it, and the correctness gate.

Load model: one caller, closed loop.  The next is_sd, encode, decode or
search trial starts only after the previous one returned, always with
jobs=1 (the library default).  Every check against the slow oracles runs
outside the timed calls; a wrong result or an exception counts as a
failed op.

A workload's run_pass(i, probe) is the only code that does its work: the
untraced loop (measure) calls it with the plain Probe, and the traced run
calls it with a probe that wraps the same entry points in spans.  A pass
returns, per metric, the work it did and the seconds its library calls
took.  The loop times the reference computation after each pass (see
reference.py) and scales the pass's seconds by the slowdown around it; a
reported rate is the run's total work over its total scaled seconds.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from sdcode import (
    ParityCheckMatrix,
    SdReport,
    build_h_generic,
    decode,
    encode,
    erase,
    extend_global_rows,
    is_pattern_decodable,
    is_sd,
    run_search,
)
from sdcode.codec import data_columns
from sdcode.linalg import mul_vector
from sdcode.search import TrialRecord, trial_generator

from .inputs import (
    STREAM_CODEC,
    STREAM_SAMPLES,
    Shape,
    Sizes,
    draw_pattern,
    pattern_count,
    rng_for,
    search_config,
    sector_symbols,
)
from .reference import Reference

KINDS = ("local_only", "with_sectors")


@dataclass
class Tally:
    """Ops attempted and failed; each failure keeps a one-line reason."""

    ops: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)

    def call(self, what: str, fn: Callable, *args, **kwargs):
        """Run one op; an exception is a failed op and returns None."""
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{what} raised")
            return None


def median(values) -> float:
    return statistics.median(values)


class Probe:
    """The sdcode entry points a pass calls, here the library's own.  The
    traced run's probe (traced.py) wraps the same entry points in spans."""

    def __init__(self):
        self.is_sd, self.encode, self.decode = is_sd, encode, decode

    def run_search(self, cfg, **kwargs):
        return run_search(cfg, **kwargs)

    def label(self, tag: str) -> None:
        """Name the work that follows; the traced probe tags its spans."""

    def patches(self):
        """Context in which the probe's module-level wrappers are active."""
        return nullcontext()


# Per metric: (work done, seconds the library calls took).
Done = dict[str, tuple[float, float]]


@dataclass
class PassRates:
    """Work and time of every pass, per metric; each pass's seconds are
    also kept divided by the machine slowdown around the pass."""

    units: dict[str, str]
    work: dict[str, float] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    nominal_seconds: dict[str, float] = field(default_factory=dict)
    passes: int = 0

    def add(self, done: Done, slowdown: float) -> None:
        self.passes += 1
        for name, (work, seconds) in done.items():
            self.work[name] = self.work.get(name, 0.0) + work
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            self.nominal_seconds[name] = self.nominal_seconds.get(name, 0.0) + seconds / slowdown

    def nominal(self) -> dict[str, tuple[float, str]]:
        """Total work / total scaled seconds: rates at nominal machine speed."""
        return {k: (w / self.nominal_seconds[k], self.units[k]) for k, w in self.work.items()}

    def measured(self) -> dict[str, tuple[float, str]]:
        """Total work / total seconds, as timed."""
        return {k: (w / self.seconds[k], self.units[k]) for k, w in self.work.items()}


class Workload:
    """One workload: run_pass(i, probe) does pass i and checks its outputs;
    finish(probe) runs the checks that need the whole run.  A run is made
    of whole rounds of `round` passes."""

    units: dict[str, str]
    round = 1

    def run_pass(self, i: int, probe: Probe) -> Done:
        raise NotImplementedError

    def finish(self, probe: Probe) -> None:
        pass

    def details(self) -> dict[str, tuple[float, str]]:
        return {}


def measure(work: Workload, seconds: float, reference: Reference) -> PassRates:
    """Closed loop: whole rounds of passes until `seconds` have gone by, at
    least one, with a reference timing after each pass."""
    probe = Probe()
    rates = PassRates(work.units)
    t_end = perf_counter() + seconds
    i = 0
    while True:
        done = work.run_pass(i, probe)
        rates.add(done, reference.slowdown())
        i += 1
        if i % work.round == 0 and perf_counter() >= t_end:
            break
    work.finish(probe)
    return rates


# -- verify-table and verify-scalar -------------------------------------------

def check_report(shape: Shape, hm: ParityCheckMatrix, rep: SdReport, seed: int,
                 samples: int, tally: Tally) -> None:
    """Deep check of one is_sd report: closed-form count, expected verdict,
    witness undecodable, a seeded sample of patterns decodable."""
    expected = pattern_count(shape)
    if rep.patterns_checked != shape.patterns or rep.patterns_checked != expected:
        tally.fail(f"{shape.name}: patterns_checked={rep.patterns_checked}, expected "
                   f"{shape.patterns} (closed form {expected})")
    if shape.expect_sd is not None and rep.sd != shape.expect_sd:
        tally.fail(f"{shape.name}: sd={rep.sd}, expected {shape.expect_sd}")
    if not rep.sd:
        if rep.witness is None or is_pattern_decodable(hm, rep.witness):
            tally.fail(f"{shape.name}: not-SD witness {rep.witness} is decodable")
        return
    rng = rng_for(seed, STREAM_SAMPLES)
    for _ in range(samples):
        p = draw_pattern(hm.spec, rng)
        if not is_pattern_decodable(hm, p):
            tally.fail(f"{shape.name}: sampled pattern {p} undecodable in an SD code")


class Verify(Workload):
    """A pass is one jobs=1 is_sd call per ladder shape: patterns checked
    over is_sd time.  A generic shape has several seeded draws of its
    global rows, and pass i checks draw i mod draws, so a run averages
    over them."""

    units = {"work_per_s": "1/s", "verify_patterns_per_s": "patterns/s"}

    def __init__(self, shapes, mats, seed: int, sizes: Sizes, nproc: int, tally: Tally):
        self.shapes, self.mats, self.seed, self.sizes, self.tally = shapes, mats, seed, sizes, tally
        self.first: dict[tuple[str, int], SdReport] = {}
        self.per_shape: dict[str, list[float]] = {sh.name: [] for sh in shapes}
        # A jobs=nproc call per shape (its first draw), before any timing:
        # it fills the lazy tables, and the jobs=1 report must equal it.
        self.nproc = nproc
        self.at_nproc = {sh.name: tally.call(f"is_sd {sh.name} jobs={nproc}", is_sd,
                                             mats[sh.name][0], jobs=nproc) for sh in shapes}

    def run_pass(self, i: int, probe: Probe) -> Done:
        timed = {}
        for sh in self.shapes:
            draw = i % len(self.mats[sh.name])
            probe.label(sh.name)
            t0 = perf_counter()
            rep = self.tally.call(f"is_sd {sh.name} draw {draw}", probe.is_sd,
                                  self.mats[sh.name][draw], jobs=1)
            dt = perf_counter() - t0
            if rep is not None:
                timed[sh.name] = (draw, dt, rep)
        for sh in self.shapes:
            if sh.name not in timed:
                continue
            draw, dt, rep = timed[sh.name]
            self.per_shape[sh.name].append(rep.patterns_checked / dt)
            key = (sh.name, draw)
            if key in self.first:
                if rep != self.first[key]:
                    self.tally.fail(f"{sh.name} draw {draw}: report changed between passes")
                continue
            self.first[key] = rep
            check_report(sh, self.mats[sh.name][draw], rep, self.seed,
                         self.sizes.sample_patterns, self.tally)
            ref = self.at_nproc[sh.name]
            if draw == 0 and ref is not None and ref != rep:
                self.tally.fail(f"{sh.name}: jobs={self.nproc} report {ref} != "
                                f"jobs=1 report {rep}")
        done = (sum(rep.patterns_checked for _, _, rep in timed.values()),
                sum(dt for _, dt, _ in timed.values()))
        return {"work_per_s": done, "verify_patterns_per_s": done}

    def details(self) -> dict[str, tuple[float, str]]:
        return {f"verify_patterns_per_s.{k}.measured": (median(v), "patterns/s")
                for k, v in self.per_shape.items() if v}


# -- codec ---------------------------------------------------------------------

def stripe_bytes(hm: ParityCheckMatrix) -> float:
    """Data bytes carried by one symbol-stripe: k symbols of w bits."""
    return len(data_columns(hm.spec)) * hm.spec.algebra.element_bits / 8


@dataclass
class CodecTimes:
    encode: list[float] = field(default_factory=list)
    decode: list[float] = field(default_factory=list)


def sector_stripe(hm: ParityCheckMatrix, seed: int, index: tuple, sizes: Sizes,
                  tally: Tally, times: CodecTimes, probe: Probe) -> None:
    """Write the symbol-stripes of one sector-stripe, then read each back
    after the same erasure.

    index = (pass, code, kind) picks the seeded data and missing set;
    kind 0 loses m whole disks, kind 1 also loses s sectors.
    """
    spec, alg = hm.spec, hm.spec.algebra
    rng = rng_for(seed, STREAM_CODEC, *index)
    missing = draw_pattern(spec, rng, with_sectors=index[2] == 1)
    dcols = data_columns(spec)
    raw = rng.integers(0, 1 << alg.element_bits, size=(sector_symbols(alg, sizes), len(dcols)))
    for row in raw:
        data = [alg.element(int(v)) for v in row]
        t0 = perf_counter()
        st = tally.call("encode", probe.encode, hm, data)
        t1 = perf_counter()
        if st is None:
            continue
        times.encode.append(t1 - t0)
        vec = [st.symbols[i][j] for i in range(spec.r) for j in range(spec.n)]
        if any(mul_vector(hm.matrix, vec)) or [vec[c] for c in dcols] != data:
            tally.fail(f"encode {index}: stripe has a nonzero syndrome or lost its data")
        damaged = erase(st, missing)
        t0 = perf_counter()
        back = tally.call(f"decode {missing}", probe.decode, hm, damaged)
        t1 = perf_counter()
        if back is None:
            continue
        times.decode.append(t1 - t0)
        if back.symbols != st.symbols:
            tally.fail(f"decode {index} {missing}: recovered stripe differs from the original")


class Codec(Workload):
    """Pass i is one sector-stripe: pass 2c is code c losing whole disks,
    pass 2c+1 code c also losing sectors, and a round covers every code
    and kind.  Work is data bytes, over the time spent in encode and in
    decode; work_per_s counts the bytes of both."""

    def __init__(self, codes, mats, seed: int, sizes: Sizes, tally: Tally):
        self.codes, self.mats, self.seed, self.sizes, self.tally = codes, mats, seed, sizes, tally
        self.round = 2 * len(codes)
        self.units = {"work_per_s": "1/s"}
        for code in codes:
            self.units.update({f"encode_MBps.{code.name}": "MB/s",
                               f"decode_MBps.{code.name}": "MB/s"})

    def run_pass(self, i: int, probe: Probe) -> Done:
        ci, kind = divmod(i % self.round, 2)
        code = self.codes[ci]
        hm = self.mats[code.name][0]
        times = CodecTimes()
        probe.label(f"{code.name}/{KINDS[kind]}")
        sector_stripe(hm, self.seed, (i // self.round, ci, kind), self.sizes, self.tally,
                      times, probe)
        size = stripe_bytes(hm)
        enc = (size * len(times.encode), sum(times.encode))
        dec = (size * len(times.decode), sum(times.decode))
        done = {f"encode_MBps.{code.name}": (enc[0] / 1e6, enc[1]),
                f"decode_MBps.{code.name}": (dec[0] / 1e6, dec[1]),
                "work_per_s": (enc[0] + dec[0], enc[1] + dec[1])}
        return {k: v for k, v in done.items() if v[1] > 0}


# -- search --------------------------------------------------------------------

def witness_undecodable(cfg, rec: TrialRecord) -> bool:
    """Rebuild the failing matrix from the trial's own random stream and
    ask the oracle about the witness."""
    rng = trial_generator(cfg.seed, rec.trial)
    rows: list = [[] for _ in range(cfg.s)]
    for _ in range(rec.failed_at):
        rows = extend_global_rows(rng, rows, cfg.n, cfg.algebra)
    hm = build_h_generic(cfg.n, cfg.m, cfg.s, rec.failed_at, rows, cfg.algebra)
    return not is_pattern_decodable(hm, rec.witness)


class Search(Workload):
    """Pass c is one run_search call over chunk c's trials, with the
    chunk's own search seed: trials over run_search time."""

    units = {"work_per_s": "1/s", "search_trials_per_s": "trials/s"}

    def __init__(self, seed: int, sizes: Sizes, tally: Tally):
        self.seed, self.sizes, self.tally = seed, sizes, tally
        self.records: dict[int, list[TrialRecord]] = {}

    def chunk(self, c: int, probe: Probe, **kwargs) -> tuple[float, list | None]:
        """One run_search call over chunk c: (seconds, records or None).
        Each trial is one op; a repeat of a chunk must match its records."""
        cfg = search_config(self.seed, c, self.sizes)
        self.tally.ops += cfg.trials
        t0 = perf_counter()
        try:
            recs = probe.run_search(cfg, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            for t in range(cfg.trials):
                self.tally.fail(f"search seed {cfg.seed} trial {t}: run_search raised")
            return perf_counter() - t0, None
        dt = perf_counter() - t0
        if c in self.records:
            self.compare(cfg, self.records[c], recs)
        else:
            self.check(cfg, recs)
            self.records[c] = recs
        return dt, recs

    def check(self, cfg, recs) -> None:
        if [r.trial for r in recs] != list(range(cfg.trials)):
            self.tally.fail(f"search seed {cfg.seed}: records are not one per trial in order")
        for rec in recs:
            if rec.failed_at is None:
                ok = rec.achieved_r == cfg.r_max and rec.witness is None
            else:
                ok = rec.achieved_r == rec.failed_at - 1 and witness_undecodable(cfg, rec)
            if not ok:
                self.tally.fail(f"search seed {cfg.seed} trial {rec.trial}: "
                                f"record {rec} fails the oracle")

    def compare(self, cfg, first, again) -> None:
        """Trials of a repeated chunk must match field for field."""
        for a, b in zip(first, again):
            if a != b:
                self.tally.fail(f"search seed {cfg.seed} trial {a.trial}: "
                                f"repeat gave {b}, first {a}")
        if len(first) != len(again):
            self.tally.fail(f"search seed {cfg.seed}: repeat gave {len(again)} records, "
                            f"first {len(first)}")

    def run_pass(self, i: int, probe: Probe) -> Done:
        probe.label("search")
        dt, recs = self.chunk(i, probe)
        if recs is None:
            return {}
        done = (len(recs), dt)
        return {"work_per_s": done, "search_trials_per_s": done}

    def finish(self, probe: Probe) -> None:
        """Chunk 0 once more; skipped when its first run failed."""
        if 0 in self.records:
            self.chunk(0, probe)


def make_workload(workload: str, mats, seed: int, sizes: Sizes, nproc: int,
                  tally: Tally) -> Workload:
    if workload == "verify-table":
        return Verify(sizes.verify_table, mats, seed, sizes, nproc, tally)
    if workload == "verify-scalar":
        return Verify(sizes.verify_scalar, mats, seed, sizes, nproc, tally)
    if workload == "codec":
        return Codec(sizes.codes, mats, seed, sizes, tally)
    return Search(seed, sizes, tally)

"""Monte Carlo discovery of SD codes with shortening-based pruning.

Each trial draws random nonzero global rows for every depth up to r_max.
The rows for r+1 extend the rows for r (the prefix property), and
shortening keeps the SD property, so a failure at some r implies failure
at every larger r: a trial's result is its largest SD depth, which one
Schur scan of the r_max matrix finds (``sdcheck.sd_depth``, which
carries the smallest failing depth from one disk set to the next).  An
explicit ``check=`` instead tests r = 1, 2, ... in order with a
rebuilt matrix each and stops at the first non-SD r; that per-depth loop
is the oracle the one-scan path is tested against.

A trial runs on ints end to end: the draws are ``randrange`` ints, H is
built from them through the one trusted builder (the local rows cached
per shape), and the digest reads ``Algebra.token`` of the bits.  Only an
``extend=`` hook, whose rows are Elements, goes through build_h_generic's
checks, once per depth.

Generators are per-trial streams derived from (seed, trial id), so runs
are reproducible and trials are independent regardless of scheduling.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .algebra import Algebra, Element
from .construct import CodeSpec, _check_order, _of_bits, build_h_generic, open_text
from .sdcheck import ErasurePattern, SdReport, pattern_to_text, sd_depth


@dataclass(frozen=True)
class SearchConfig:
    n: int
    m: int
    s: int
    r_max: int
    trials: int
    seed: int
    algebra: Algebra

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        CodeSpec(self.n, self.m, self.s, self.r_max, self.algebra, "generic")  # shape rules
        _check_order(self.r_max, self.n, self.algebra)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    achieved_r: int
    failed_at: Optional[int]
    witness: Optional[ErasurePattern]
    coeff_digest: str


def trial_generator(seed: int, trial: int) -> random.Random:
    """The per-trial random stream.  A str seed is hashed with SHA-512, so
    the stream for (seed, trial) is the same on every platform."""
    return random.Random(f"{seed}:{trial}")


def _draw(rng: random.Random, count: int, top: int) -> list[int]:
    """count uniform draws from 1..top-1, one rng.randrange each: the one
    draw of a global entry (top = 2^w)."""
    randrange = rng.randrange
    return [randrange(1, top) for _ in range(count)]


def random_nonzero(rng: random.Random, algebra: Algebra) -> Element:
    """Uniform nonzero element: one _draw."""
    return algebra.element(_draw(rng, 1, 1 << algebra.element_bits)[0])


def extend_global_rows(rng: random.Random,
                       rows: Sequence[Sequence[Element]], n: int,
                       algebra: Algebra) -> list[list[Element]]:
    """Append n fresh nonzero entries to each global row, keeping the
    existing prefix untouched (what makes pruning sound)."""
    top = 1 << algebra.element_bits
    return [list(row) + list(map(algebra.element, _draw(rng, n, top))) for row in rows]


def _digest(rows: Sequence[Sequence[int]], algebra: Algebra) -> str:
    text = ";".join(" ".join(map(algebra.token, row)) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run_search(cfg: SearchConfig,
               check: Optional[Callable[..., SdReport]] = None,
               extend: Optional[Callable[..., list[list[Element]]]] = None,
               jobs: int = 1) -> list[TrialRecord]:
    """One TrialRecord per trial, in trial order.

    Each depth appends n _draw ints to every global row (the draws of
    extend_global_rows, in its order), or calls extend, which has
    extend_global_rows's signature and whose Element rows build_h_generic
    checks (a zero entry raises ZeroGlobalEntryError).  With check None,
    a trial draws all r_max depths and scans once with sd_depth; a check
    (such as is_sd) is called on the matrix of each depth in turn
    instead, up to the first non-SD one.  Both give the same records.
    jobs is not used (both scans run on one thread); it stays while
    sdbench passes it.
    """
    n, m, s, alg = cfg.n, cfg.m, cfg.s, cfg.algebra
    specs = [CodeSpec(n, m, s, r, alg, "generic") for r in range(1, cfg.r_max + 1)]
    top = 1 << alg.element_bits
    records = []
    for t in range(cfg.trials):
        rng = trial_generator(cfg.seed, t)
        rows: Sequence[Sequence[int]] = [[] for _ in range(s)]
        elements: list[list[Element]] = [[] for _ in range(s)]
        achieved, failed_at, hm = 0, None, None
        for spec in specs:
            if extend is None:
                rows = [row + _draw(rng, n, top) for row in rows]
            else:
                elements = extend(rng, elements, n, alg)
                hm = build_h_generic(n, m, s, spec.r, elements, alg)
                rows = hm.matrix.bits[m * spec.r:]
            if check is not None:
                report = check(hm or _of_bits(spec, rows))
                if not report.sd:
                    failed_at = spec.r
                    break
                achieved = spec.r
        if check is None:
            achieved, report = sd_depth(hm or _of_bits(specs[-1], rows))
            failed_at = None if report.sd else achieved + 1
            rows = [row[:(failed_at or cfg.r_max) * n] for row in rows]
        records.append(TrialRecord(t, achieved, failed_at, report.witness, _digest(rows, alg)))
    return records


def format_report(records: Sequence[TrialRecord]) -> str:
    """Tab-separated lines: trial, achieved_r, failed_at, witness, digest."""
    lines = []
    for rec in records:
        failed = str(rec.failed_at) if rec.failed_at is not None else "-"
        wit = pattern_to_text(rec.witness) if rec.witness is not None else "-"
        lines.append(f"{rec.trial}\t{rec.achieved_r}\t{failed}\t{wit}\t{rec.coeff_digest}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_report(records: Sequence[TrialRecord], sink) -> None:
    with open_text(sink, "w") as fh:
        fh.write(format_report(records))

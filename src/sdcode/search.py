"""Monte Carlo discovery of SD codes with shortening-based pruning.

Each trial draws random nonzero global rows for every depth up to r_max.
The rows for r+1 extend the rows for r (the prefix property), and
shortening keeps the SD property, so a failure at some r implies failure
at every larger r: a trial's result is its largest SD depth, which one
Schur scan of the r_max matrix finds (``sdcheck.sd_depth``).  An
explicit ``check=`` instead tests r = 1, 2, ... in order with a
rebuilt matrix each and stops at the first non-SD r; that per-depth loop
is the oracle the one-scan path is tested against.

Generators are per-trial streams derived from (seed, trial id), so runs
are reproducible and trials are independent regardless of scheduling.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .algebra import Algebra, Element
from .construct import CodeSpec, _check_order, build_h_generic, open_text
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


def random_nonzero(rng: random.Random, algebra: Algebra) -> Element:
    """Uniform nonzero element."""
    return algebra.element(rng.randrange(1, 1 << algebra.element_bits))


def extend_global_rows(rng: random.Random,
                       rows: Sequence[Sequence[Element]], n: int,
                       algebra: Algebra) -> list[list[Element]]:
    """Append n fresh nonzero entries to each global row, keeping the
    existing prefix untouched (what makes pruning sound)."""
    return [list(row) + [random_nonzero(rng, algebra) for _ in range(n)]
            for row in rows]


def _digest(rows: Sequence[Sequence[Element]], algebra: Algebra) -> str:
    text = ";".join(" ".join(algebra.element_token(e) for e in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run_search(cfg: SearchConfig,
               check: Optional[Callable[..., SdReport]] = None,
               extend: Optional[Callable[..., list[list[Element]]]] = None,
               jobs: int = 1) -> list[TrialRecord]:
    """One TrialRecord per trial, in trial order.

    extend defaults to extend_global_rows.  With check None, a trial
    draws all r_max depths and scans once with sd_depth; a check (such
    as is_sd) is called on the matrix of each depth in turn instead, up
    to the first non-SD one.  Both give the same records.
    """
    if extend is None:
        extend = extend_global_rows
    records = []
    for t in range(cfg.trials):
        rng = trial_generator(cfg.seed, t)
        rows: list[list[Element]] = [[] for _ in range(cfg.s)]
        if check is None:
            for _ in range(cfg.r_max):
                rows = extend(rng, rows, cfg.n, cfg.algebra)
            hm = build_h_generic(cfg.n, cfg.m, cfg.s, cfg.r_max, rows, cfg.algebra)
            achieved, report = sd_depth(hm, jobs=jobs)
            failed_at = None if report.sd else achieved + 1
            rows = [row[:(failed_at or cfg.r_max) * cfg.n] for row in rows]
        else:
            achieved, failed_at = 0, None
            for r in range(1, cfg.r_max + 1):
                rows = extend(rng, rows, cfg.n, cfg.algebra)
                report = check(build_h_generic(cfg.n, cfg.m, cfg.s, r, rows, cfg.algebra))
                if not report.sd:
                    failed_at = r
                    break
                achieved = r
        records.append(TrialRecord(t, achieved, failed_at, report.witness,
                                   _digest(rows, cfg.algebra)))
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

"""Monte Carlo discovery of SD codes with shortening-based pruning.

Each trial draws random nonzero global rows and tests r = 1, 2, ... in
order.  The rows for r+1 extend the rows for r (the prefix property), so
a failure at some r implies failure at every larger r by the shortening
argument, and the trial stops at its first non-SD r without building the
larger matrices.

Generators are per-trial streams derived from (seed, trial id), so runs
are reproducible and trials are independent regardless of scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import Algebra, Element
from .construct import build_h_generic, open_text
from .errors import OrderTooSmallError
from .sdcheck import ErasurePattern, SdReport, is_sd, pattern_to_text


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
        if self.r_max < 1:
            raise ValueError(f"need r_max >= 1, got {self.r_max}")
        order = self.algebra.order_of_alpha()
        if self.r_max * self.n > order:
            raise OrderTooSmallError(
                f"r_max*n = {self.r_max * self.n} exceeds O(alpha) = {order} "
                f"in {self.algebra}; search cannot reach that depth")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    achieved_r: int
    failed_at: Optional[int]
    witness: Optional[ErasurePattern]
    coeff_digest: str


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The per-trial random stream (PCG64 keyed on seed and trial id)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


def random_nonzero(rng: np.random.Generator, algebra: Algebra) -> Element:
    """Uniform nonzero element by rejection of zero."""
    q = 1 << algebra.element_bits
    while True:
        v = int(rng.integers(0, q))
        if v:
            return algebra.element(v)


def extend_global_rows(rng: np.random.Generator,
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

    check and extend are injection points for instrumentation; they
    default to is_sd and extend_global_rows.
    """
    if check is None:
        check = lambda hm: is_sd(hm, jobs=jobs)
    if extend is None:
        extend = extend_global_rows
    records = []
    for t in range(cfg.trials):
        rng = trial_generator(cfg.seed, t)
        rows: list[list[Element]] = [[] for _ in range(cfg.s)]
        achieved, failed_at, witness = 0, None, None
        for r in range(1, cfg.r_max + 1):
            rows = extend(rng, rows, cfg.n, cfg.algebra)
            hm = build_h_generic(cfg.n, cfg.m, cfg.s, r, rows, cfg.algebra)
            report = check(hm)
            if report.sd:
                achieved = r
            else:
                failed_at, witness = r, report.witness
                break
        records.append(TrialRecord(t, achieved, failed_at, witness,
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

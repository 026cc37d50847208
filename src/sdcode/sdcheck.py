"""Erasure patterns and exhaustive SD verification.

A code tolerates a pattern of m whole-disk failures plus s additional
sector failures exactly when the parity-check columns of the erased
sectors are linearly independent, so the SD property is decided by
checking every pattern.  Verification groups patterns by their disk set:
one forward elimination pivoting on the mr disk columns is shared by all
C(N, s) sector choices of the group (N = (n-m)r), each an s x s test on
the s leftover rows.  Peel and sweep finds the first failing choice: a
subset led by column i fails exactly when column i is zero or, once one
pivot row clears column i, the other s-1 rows fail on the rest of it.
At s = 2 a pair fails exactly when a column is zero or both columns have
the same ratio, so one pass finds it: O(N^(s-1)) per group and factor.

Over the ring the same procedure runs once per factor view the algebra
supplies, one per irreducible factor of M_p(x); a pattern fails if it
fails in any factor.

The report is deterministic: all patterns are always counted, the
witness is the first failing pattern in enumeration order (disk sets in
lexicographic order, then sector subsets in lexicographic order over
surviving sectors sorted by (row, disk)), and neither depends on the
worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional, Sequence

from .algebra import key_values, read_int
from .construct import CodeSpec, ParityCheckMatrix
from .errors import PatternInvalidError, TooManyErasuresError
from .linalg import eliminate, full_column_rank, submatrix


@dataclass(frozen=True)
class ErasurePattern:
    """Failed whole disks plus failed individual sectors (row, disk)."""

    disks: tuple[int, ...] = ()
    sectors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "disks", tuple(sorted(self.disks)))
        object.__setattr__(self, "sectors",
                           tuple(sorted((int(a), int(b)) for a, b in self.sectors)))


@dataclass(frozen=True)
class SdReport:
    sd: bool
    witness: Optional[ErasurePattern]
    patterns_checked: int


def validate_pattern(p: ErasurePattern, spec: CodeSpec) -> None:
    if len(set(p.disks)) != len(p.disks):
        raise PatternInvalidError(f"duplicate disks in {p}")
    if len(p.disks) > spec.m:
        raise PatternInvalidError(f"{len(p.disks)} failed disks exceeds m={spec.m}")
    for d in p.disks:
        if not 0 <= d < spec.n:
            raise PatternInvalidError(f"disk {d} outside [0, {spec.n})")
    if len(set(p.sectors)) != len(p.sectors):
        raise PatternInvalidError(f"duplicate sectors in {p}")
    for row, disk in p.sectors:
        if not (0 <= row < spec.r and 0 <= disk < spec.n):
            raise PatternInvalidError(f"sector ({row}, {disk}) outside the stripe")
        if disk in p.disks:
            raise PatternInvalidError(
                f"sector ({row}, {disk}) lies inside failed disk {disk}")


def erased_columns(p: ErasurePattern, spec: CodeSpec) -> list[int]:
    """Sorted matrix columns wiped out by the pattern."""
    validate_pattern(p, spec)
    cols = {spec.column_of(i, d) for i in range(spec.r) for d in p.disks}
    cols.update(spec.column_of(row, disk) for row, disk in p.sectors)
    return sorted(cols)


def _survivors(spec: CodeSpec, disks: Sequence[int]) -> list[tuple[int, int]]:
    dset = set(disks)
    return [(i, j) for i in range(spec.r) for j in range(spec.n) if j not in dset]


def enumerate_patterns(spec: CodeSpec):
    """All patterns with exactly m disks and s sectors on surviving disks,
    in lexicographic order; count = C(n,m) * C((n-m)r, s)."""
    for disks in combinations(range(spec.n), spec.m):
        for sectors in combinations(_survivors(spec, disks), spec.s):
            yield ErasurePattern(disks, sectors)


def is_pattern_decodable(hm: ParityCheckMatrix, p: ErasurePattern) -> bool:
    """True iff the erased columns are linearly independent."""
    spec = hm.spec
    cols = erased_columns(p, spec)
    if len(cols) > spec.parity_rows:
        raise TooManyErasuresError(
            f"{len(cols)} erased columns but only {spec.parity_rows} parity rows")
    if not cols:
        return True
    return full_column_rank(submatrix(hm.matrix, range(hm.matrix.rows), cols))


# -- grouped verification ----------------------------------------------------

def _first_singular_pair(ops, r0: list[int], r1: list[int]):
    """First column pair (i, j), i < j in lexicographic order, whose 2 x 2
    submatrix of the rows r0, r1 is singular; None when there is none.

    A pair is singular exactly when one of its columns is zero or both
    columns have the same ratio r1/r0 (a marker when r0 is zero).  One
    backward pass finds, for each i, the smallest later j failing with it.
    """
    first = None
    zero = None         # leftmost zero column right of i
    nearest = {}        # ratio -> leftmost column right of i with that ratio
    for i in range(len(r0) - 1, -1, -1):
        a, b = r0[i], r1[i]
        if not (a or b):
            j = i + 1 if i + 1 < len(r0) else None
            zero = i
        else:
            key = ops.mul(b, ops.inv(a)) if a else -1
            j = nearest.get(key)
            if zero is not None and (j is None or zero < j):
                j = zero
            nearest[key] = i
        if j is not None:
            first = (i, j)
    return first


def _first_singular(ops, rows: list[list[int]], s: int):
    """First s-column subset, in lexicographic order, whose s x s
    submatrix of the s rows is singular; None when there is none (s = 0)."""
    if s == 2:
        return _first_singular_pair(ops, *rows)
    for i in range(len(rows[0]) - s + 1 if s else 0):
        if not any(row[i] for row in rows):
            return tuple(range(i, i + s))
        if s > 1:
            work = [row[i:] for row in rows]
            work.pop(eliminate(ops, work, [0])[0])      # drop the pivot row
            rest = _first_singular(ops, [r[1:] for r in work], s - 1)
            if rest is not None:
                return (i, *(i + 1 + j for j in rest))
    return None


def _scan_group(views, spec: CodeSpec, disks: Sequence[int]) -> Optional[ErasurePattern]:
    """First failing pattern of this disk set; None when every pattern
    decodes or when fewer than s sectors survive (the group has none)."""
    mr = spec.m * spec.r
    disk_cols = sorted(spec.column_of(i, d) for i in range(spec.r) for d in disks)
    survivors = _survivors(spec, disks)
    if len(survivors) < spec.s:
        return None
    survivor_cols = [spec.column_of(i, d) for i, d in survivors]
    firsts = []
    for ops, rows in views:
        work = [list(r) for r in rows]
        used = set(eliminate(ops, work, disk_cols))
        if len(used) < mr:          # dependent disk columns: every pattern fails
            firsts.append(tuple(range(spec.s)))
            break
        residual = [[work[t][c] for c in survivor_cols]
                    for t in range(len(work)) if t not in used]
        firsts.append(_first_singular(ops, residual, spec.s))
    first = min((f for f in firsts if f is not None), default=None)
    return None if first is None else ErasurePattern(disks, [survivors[t] for t in first])


def is_sd(hm: ParityCheckMatrix, jobs: int = 1,
          progress: Optional[Callable[[int, int], None]] = None) -> SdReport:
    """Exhaustively decide the SD property.

    Every pattern is counted (no early exit), the witness is the first
    failure in enumeration order, and the outcome is independent of the
    worker count.  `progress(done, total)` runs as each disk set is done.
    """
    spec = hm.spec
    total = comb(spec.n, spec.m) * comb((spec.n - spec.m) * spec.r, spec.s)
    views = spec.algebra.factor_views(hm.matrix.bits)
    scan = lambda d: _scan_group(views, spec, d)
    groups = list(combinations(range(spec.n), spec.m))
    witness = None
    with ThreadPoolExecutor(jobs) if jobs and jobs > 1 else nullcontext() as pool:
        results = map(scan, groups) if pool is None else pool.map(scan, groups)
        for done, found in enumerate(results, start=1):
            if progress is not None:
                progress(done, len(groups))
            if witness is None:
                witness = found
    return SdReport(witness is None, witness, total)


# -- pattern text form -------------------------------------------------------

def pattern_to_text(p: ErasurePattern) -> str:
    d = ",".join(str(x) for x in p.disks) or "-"
    s = ",".join(f"{row}:{disk}" for row, disk in p.sectors) or "-"
    return f"d={d} s={s}"


def pattern_from_text(text: str) -> ErasurePattern:
    kv = key_values(text.split(), ("d", "s"))
    disks = [read_int(x) for x in kv["d"].split(",")] if kv["d"] not in ("", "-") else []
    sectors = []
    for item in kv["s"].split(",") if kv["s"] not in ("", "-") else []:
        row, colon, disk = item.partition(":")
        if not colon:
            raise ValueError(f"bad sector item {item!r} (want row:disk)")
        sectors.append((read_int(row), read_int(disk)))
    return ErasurePattern(tuple(disks), tuple(sectors))

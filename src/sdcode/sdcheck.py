"""Erasure patterns and exhaustive SD verification.

A code tolerates a pattern of m whole-disk failures plus s additional
sector failures exactly when the parity-check columns of the erased
sectors are linearly independent, so the SD property is decided by
checking every pattern.  Verification groups patterns by their disk set
D: its C(N, s) sector choices (N = (n-m)r) are s x s tests on the rows
left once the mr disk columns are eliminated.  Stripe row i's local rows
B_i touch only its n columns, so with V_i = B_i at D this is a Schur step
per stripe row: global row g leaves g[i,j] - g[i,D] V_i^-1 B_i[:, j] at
survivor (i, j), scaled by det(V_i), which keeps every subset's
singularity and, as det(V_i) V_i^-1 = adj(V_i), needs no division.
The step is a linear map of stripe row i's n global entries fixed by
the factor field and B_i alone, so ``_schur_plan`` builds it once per
(factor field, local block, batch of disk sets) and keeps it across
calls: det(V) and adj(V) B_i per disk set, and the map's columns times
each x^k, with every disk set's residual entries packed in one int, one
entry per lane of 8, 16, 32 or 64 bits (``linalg.x_powers`` with a lane
stride), which ``unpack`` splits without shifts.  A call applies it r s
times per factor view and batch, one XOR per set bit of the input, for
all disk sets at once.  Only a factor view with a singular V_i
eliminates instead, on its rows cut as ``shorten`` cuts H, the local
ones rebuilt from the blocks.
Peel and sweep finds the first failing choice: a subset led by column i
fails exactly when column i is zero or, once one pivot row clears column
i, the other s-1 rows fail on the rest of it.  At s = 2 a pair fails
exactly when a column is zero or both columns have the same ratio, so a
disk set whose keys from ``ops.ratios`` (one inverse per sweep in a
tableless field) are pairwise distinct, with no zero column, passes on
one set-size test, and one backward pass over the keys finds the first
failing pair elsewhere: O(N^(s-1)) per group and factor.

Over the ring the same procedure runs once per factor view the algebra
supplies, one per irreducible factor of M_p(x); a pattern fails if it
fails in any factor.  Only what the scan reads is projected into the
factor fields: the distinct local blocks, told apart in the ring, and
the global rows.

One pass over the disk sets, on one thread, answers both ``is_sd`` and
``sd_depth``, the largest depth r' at which the code is SD.  The code at
depth d is the code at depth d + 1 with its last stripe row held at zero,
so for any H a failure at depth d is one at d + 1 (the paper's
shortening observation), and a disk set is tested at depth d on the
first d(n-m) columns of its one residual (the residual at survivor
(i, j) depends only on stripe row i) or, in a factor view with a
singular V_i, by eliminating that view's rows cut to depth d.  Disk sets
go in lexicographic order carrying best, the smallest failing depth so
far (r + 1 before any): a disk set that passes at best - 1 is skipped,
and one that fails there bisects over 0..best - 1 for its own smallest
failing depth, which becomes best.  So a tie keeps the earlier disk
set's witness, and once one disk set fails early most others cost one
test.  Until the first failure best - 1 is r, so that failure is
is_sd's witness, the first failing pattern in enumeration order (disk
sets in lexicographic order, then sector subsets in lexicographic order
over surviving sectors sorted by (row, disk)).  is_sd stops there, and
the residuals come a plan batch at a time as the pass reaches them, so
it builds no plan past that disk set's batch.  A report counts every
pattern of the code whatever the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, compress, islice, repeat
from math import comb
from operator import getitem, index, xor
from typing import Callable, Optional, Sequence

from .algebra import key_values, lane_width, read_int
from .construct import CodeSpec, ParityCheckMatrix
from .errors import PatternInvalidError, TooManyErasuresError
from .linalg import det_bits, eliminate, full_column_rank, pack, submatrix, unpack, x_powers


@dataclass(frozen=True)
class ErasurePattern:
    """Failed whole disks plus failed individual sectors (row, disk), each
    number read through operator.index as Matrix reads its entries: a
    float or a str raises TypeError instead of naming another pattern."""

    disks: tuple[int, ...] = ()
    sectors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "disks", tuple(sorted(map(index, self.disks))))
        object.__setattr__(self, "sectors",
                           tuple(sorted((index(a), index(b)) for a, b in self.sectors)))


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
    columns have the same ratio r1/r0, whose key ``ops.ratios`` gives (-1
    when r0 is zero; a tableless field inverts once for all the columns).
    So when the keys are pairwise distinct and the column keyed -1, if
    any, is not zero, no pair fails: one set test decides, and the
    backward pass runs only where keys collide or a column is zero.
    """
    keys = ops.ratios(r0, r1)
    distinct = set(keys)
    if len(distinct) == len(keys) and (-1 not in distinct or r1[keys.index(-1)]):
        return None
    return _first_pair_backward(r0, r1, keys)


def _first_pair_backward(r0: list[int], r1: list[int], keys: list):
    """_first_singular_pair from the ratio keys by one backward pass,
    which finds, for each i, the smallest later j failing with it."""
    first = None
    zero = None         # leftmost zero column right of i
    nearest = {}        # ratio -> leftmost column right of i with that ratio
    for i in range(len(r0) - 1, -1, -1):
        if not (r0[i] or r1[i]):
            j = i + 1 if i + 1 < len(r0) else None
            zero = i
        else:
            key = keys[i]
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


def _local_blocks(spec: CodeSpec, bits):
    """Per factor view of H's entries `bits`: (ops, the global rows, the
    distinct local blocks, each stripe row's block index).  Blocks are
    told apart in the algebra, and only they and the global rows are
    projected."""
    m, n, r = spec.m, spec.n, spec.r
    per_row = [tuple(tuple(row[i * n:(i + 1) * n]) for row in bits[i * m:(i + 1) * m])
               for i in range(r)]
    seen = {}                           # block -> its index, in first-seen order
    kind = [seen.setdefault(block, len(seen)) for block in per_row]
    local = [row for block in seen for row in block]
    out = []
    for ops, rows in spec.algebra.factor_views(local + list(bits[m * r:])):
        blocks = [tuple(map(tuple, rows[k:k + m])) for k in range(0, len(local), m)]
        out.append((ops, rows[len(local):], blocks, kind))
    return out


_PLAN_BITS = 1 << 14        # about the most bits one packed int of a plan holds
_SELECT = [bytes(v >> k & 1 for k in range(8)) for v in range(256)]    # a byte's bits


@lru_cache(maxsize=64)
def _schur_plan(ops, block, first: int, stop: int):
    """The Schur step of one local block B at disk sets first..stop-1, in
    lexicographic order: (det(V_D) for each D, 0 where V_D = B at D is
    singular; the x^k basis, each column's padded to whole bytes, of the
    map from a stripe row's n entries g to every D's residual entries
    det(V_D) g[j] + sum over d in D of g[d] (adj(V_D) B)[d][j], j alive,
    one per lane of lane_width(ops.degree) bits)."""
    m, n, mul = len(block), len(block[0]), ops.mul
    dets, rows = [], []
    for disks in islice(combinations(range(n), m), first, stop):
        v = [[row[d] for d in disks] for row in block]
        det = det_bits(mul, v)
        dets.append(det)
        adj = [[det_bits(mul, [vr[:k] + vr[k + 1:] for vr in v[:t] + v[t + 1:]]) if det else 0
                for t in range(m)] for k in range(m)]
        for j in range(n):
            if j not in disks:
                row = [0] * n
                row[j] = det
                for d, a in zip(disks, adj):
                    row[d] = reduce(xor, [mul(x, b[j]) for x, b in zip(a, block)])
                rows.append(row)
    pad, lane = [0] * (-ops.degree % 8), lane_width(ops.degree)
    columns = [pack(col, lane) for col in zip(*rows)]
    return tuple(dets), tuple(t for basis in x_powers(ops.modulus, columns, len(rows), lane)
                              for t in basis + pad)


def _schur_residuals(spec: CodeSpec, views):
    """(disks, each view's global rows after the Schur step at disks, or
    None where some V_i is singular) for every disk set in lexicographic
    order, from one plan per view and block."""
    return zip(combinations(range(spec.n), spec.m),
               zip(*[_view_residuals(spec, *view) for view in views]))


def _view_residuals(spec: CodeSpec, ops, glob, blocks, kind):
    """One factor view's residuals for _schur_residuals, disk set by disk set.

    A plan maps a stripe row's n entries to every disk set's residual
    entries there: the XOR of its basis ints at the entries' set bits,
    then one unpack, which splits lanes of 8 to 64 bits without shifts.
    Plans take the disk sets in batches of about _PLAN_BITS bits, which
    bounds a plan's ints (shift-and-mask, above 64 bits, is quadratic in
    an int's size), and a batch is built only when the scan reaches it."""
    m, n, r, w, degree = spec.m, spec.n, spec.r, spec.n - spec.m, ops.degree
    nbytes, lane = (degree + 7) >> 3, lane_width(degree)
    span = 8 * nbytes * n               # selector bytes per stripe row
    selectors = []                      # per global row, per stripe row: its entries' bits
    for g in glob:
        data = b"".join(map(int.to_bytes, g, repeat(nbytes), repeat("little")))
        bits = b"".join(map(_SELECT.__getitem__, data))
        selectors.append([bits[i * span:(i + 1) * span] for i in range(r)])
    total, per = comb(n, m), max(1, _PLAN_BITS // (lane * w))
    for first in range(0, total, per):
        stop = min(first + per, total)
        plans = [_schur_plan(ops, block, first, stop) for block in blocks]
        values = [[unpack(reduce(xor, compress(plans[kind[i]][1], sel), 0),
                          (stop - first) * w, lane) for i, sel in enumerate(sels)]
                  for sels in selectors]
        for t in range(stop - first):
            at = repeat(slice(t * w, (t + 1) * w))
            yield None if not all(dets[t] for dets, _ in plans) else [
                list(chain.from_iterable(map(getitem, per_row, at))) for per_row in values]


def _group(spec: CodeSpec, views, disks: Sequence[int], residuals):
    """first_at(depth): the first failing pattern of this disk set in the
    code shortened to `depth` stripe rows; None when every pattern decodes
    or when fewer than s sectors survive (the group has none).  residuals
    holds each view's Schur residual at disks, as _schur_residuals gives
    them."""
    m, n, w, s = spec.m, spec.n, spec.n - spec.m, spec.s
    alive = [j for j in range(n) if j not in disks]     # survivor t is (t // w, alive[t % w])

    def first_at(depth: int) -> Optional[ErasurePattern]:
        if depth * w < s:
            return None
        firsts = []
        for (ops, glob, blocks, kind), residual in zip(views, residuals):
            if residual is None:
                # a singular V_i: eliminate the rows cut as shorten cuts H,
                # the local ones rebuilt from their blocks
                work = [[0] * (i * n) + list(part) + [0] * ((depth - 1 - i) * n)
                        for i in range(depth) for part in blocks[kind[i]]]
                work += [g[:depth * n] for g in glob]
                used = eliminate(ops, work, [c for c in range(depth * n) if c % n in disks])
                if len(used) < m * depth:   # dependent disk columns: every pattern fails
                    firsts.append(tuple(range(s)))
                    break
                residual = [[work[t][i * n + j] for i in range(depth) for j in alive]
                            for t in range(len(work)) if t not in used]
            firsts.append(_first_singular(ops, [row[:depth * w] for row in residual], s))
        first = min((f for f in firsts if f is not None), default=None)
        return None if first is None else ErasurePattern(disks, [(t // w, alive[t % w])
                                                                 for t in first])

    return first_at


def _patterns(spec: CodeSpec, r: int) -> int:
    """Patterns of the code shortened to r stripe rows."""
    return comb(spec.n, spec.m) * comb((spec.n - spec.m) * r, spec.s)


def is_sd(hm: ParityCheckMatrix, jobs: int = 1,
          progress: Optional[Callable[[int, int], None]] = None) -> SdReport:
    """Exhaustively decide the SD property.

    Disk sets go in lexicographic order and the scan stops at the first
    that fails, whose first failing pattern is the witness; the count is
    every pattern of the code whatever the verdict.  `progress(done,
    total)` runs as each disk set is done.  jobs is not used (the scan
    runs on one thread); it stays while sdbench passes it.
    """
    return _scan(hm, progress, depth=False)[0]


def sd_depth(hm: ParityCheckMatrix) -> tuple[int, SdReport]:
    """The largest depth r' <= r at which the code is SD, and the report
    that is_sd(shorten(hm, r' + 1)) gives (is_sd(hm) when r' + 1 = r; an
    SD report for hm when r' = r).

    The code's depth is the minimum over disk sets of the smallest depth
    that fails there, the witness the first failure of the first disk
    set that reaches it (see the module docstring).
    """
    return _scan(hm)[1:]


def _scan(hm: ParityCheckMatrix, progress: Optional[Callable[[int, int], None]] = None,
          depth: bool = True) -> tuple[SdReport, int, SdReport]:
    """is_sd's report, sd_depth's depth and sd_depth's report, from one
    pass over the disk sets (see the module docstring).  progress(done,
    total) runs for each disk set up to is_sd's witness's; with depth
    false the pass stops there, and only is_sd's report holds."""
    spec = hm.spec
    views = _local_blocks(spec, hm.matrix.bits)
    total, best, first, witness = comb(spec.n, spec.m), spec.r + 1, None, None
    for done, (disks, residuals) in enumerate(_schur_residuals(spec, views), start=1):
        first_at = _group(spec, views, disks, residuals)
        found = first_at(best - 1)
        if progress is not None and first is None:
            progress(done, total)
        if found is None:
            continue
        if first is None:
            first = found
            if not depth:
                break
        lo, hi = 0, best - 1    # depth lo passes, depth hi fails with `found`
        while hi - lo > 1:
            mid = (lo + hi) // 2
            at_mid = first_at(mid)
            if at_mid is None:
                lo = mid
            else:
                hi, found = mid, at_mid
        best, witness = hi, found
        if best == 1:           # depth 0 always passes: no disk set goes lower
            break
    return (SdReport(first is None, first, _patterns(spec, spec.r)), best - 1,
            SdReport(witness is None, witness, _patterns(spec, min(best, spec.r))))


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

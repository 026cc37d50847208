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
times per factor view and batch (s times in a row-scaled code, below),
one XOR per set bit of the input, for all disk sets at once.  Only a
factor view with a singular V_i eliminates instead, on its rows cut as
``shorten`` cuts H, the local ones rebuilt from the blocks.
Peel and sweep finds the first failing choice.  At s >= 3 a row with no
zero entry is a chart: each column divided by its entry there, once per
call, is a point (1, b) with every subset's singularity kept, and a
subset led by column i fails exactly when the later points minus point
i fail on the other s-1 rows, which are XORs, with no product.  Where
every row has a zero, a subset led by column i fails exactly when column
i is zero or, once one pivot row clears column i, the other s-1 rows
fail on the rest of it.  At s = 2 a pair fails exactly when a column is
zero or both columns have the same ratio, so a disk set whose keys from
``ops.ratios`` (in a tableless field, the ratio times one constant of
the sweep, with no inverse) are pairwise distinct, with no zero column,
passes on one set-size test, and one backward pass over the keys finds
the first failing pair elsewhere: O(N^(s-1)) per group and factor.

At s = 2, a code with one local block is row-scaled when stripe row
i + 1 of each global row g is one unit c_g times its stripe row i, as in
both constructions and every exponent formula alpha^(a_g in + b_g j)
(c_g = alpha^(a_g n) there).  ``_row_scaled`` tests this once in the
algebra: in a field, or a ring whose M_p(x) is irreducible, in its one
view; in a split ring by the cross products g[k] g[0] = g[n] g[k-n] mod
M_p(x) and one unit test of the product of g[0..n], so that every view
is row-scaled or none is.  Then each view's Schur residual at (i, j) is
c_g^i times the one at (0, j), so only stripe row 0 and g[n] of the
global rows are projected, and the plans run on stripe row 0 alone.
Column (i, j) has the ratio mu^i rho_j, mu = c_1 / c_0, rho_j read from
row 0, and past depth 1 a disk set passes exactly when row 0 has no zero
entry and these ratios all differ, so ``_depth_test`` decides a plan
batch at once.  With log tables it is one line: each column's place on
mu's cycle (a band per coset of mu's powers, then log to base mu) plus
its disk set's tag, sorted once; the smallest gap of neighbours and the
smallest wrap gap (a band's first + the order of mu - its last) give the
batch's smallest failing depth, and in a batch that fails each disk set
reads its own from its run of the line.  Without tables one
``ops.ratios`` call keys the batch and each disk set takes one set test.
A batch that passes at best - 1 in every view the scan takes whole, with
no item and no group per disk set; a disk set that fails sweeps its own
keys, row 0's scaled by mu^i, so the witness is the same, and no
residual past row 0 is built.

Over the ring the rest runs once per factor view the algebra supplies,
one per irreducible factor of M_p(x); a pattern fails if it fails in any
factor.  Only what the scan reads is projected into the factor fields:
the distinct local blocks that the matrix holds, and the global rows.

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
from math import comb, gcd
from operator import getitem, index, sub, xor
from typing import Callable, Optional, Sequence

from .algebra import bit_bytes, key_values, lane_width, read_int
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
    when r0 is zero; a tableless field keys the ratio times the product
    of the nonzero r0 entries, so it inverts nothing).
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
    submatrix of the s rows is singular; None when there is none (s = 0).

    At s >= 3 the first row with no zero entry is the chart: each column
    divided by its entry there (one inverse and s - 1 products a column,
    once per call) is a point (1, b), as scaling a column keeps every
    subset's singularity, and a subset led by column i fails exactly when
    the later points minus point i (subtracting a column keeps the rank)
    fail on the other s - 1 rows, so no level multiplies in its loop.
    With no chart, column i fails alone when it is zero, and otherwise is
    peeled by eliminating it with one pivot row."""
    if s == 2:
        return _first_singular_pair(ops, *rows)
    chart = next((k for k, row in enumerate(rows) if all(row)), None) if s > 2 else None
    if chart is not None:
        scale = list(map(ops.inv, rows[chart]))
        points = [list(map(ops.mul, row, scale)) for k, row in enumerate(rows) if k != chart]
        for i in range(len(scale) - s + 1):
            rest = _first_singular(ops, [list(map(xor, p[i + 1:], repeat(p[i]))) for p in points],
                                   s - 1)
            if rest is not None:
                return (i, *(i + 1 + j for j in rest))
        return None
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


def _local_blocks(hm: ParityCheckMatrix):
    """Per factor view of hm: (ops, the global rows, hm.blocks, hm.kinds,
    and _depth_test's batch test where the code is row-scaled, else None).
    Only the blocks and the global rows are projected, and of a row-scaled
    code's global rows only stripe row 0 and g[n], which the scan reads."""
    spec = hm.spec
    m, n, r = spec.m, spec.n, spec.r
    local = [row for block in hm.blocks for row in block]
    glob = list(hm.matrix.bits[m * r:])
    scaled = spec.s == 2 and len(hm.blocks) == 1 and _row_scaled(spec.algebra, glob, n)
    out = []
    for ops, rows in spec.algebra.factor_views(local + ([g[:n + 1] for g in glob] if scaled
                                                        else glob)):
        blocks = [tuple(map(tuple, rows[k:k + m])) for k in range(0, len(local), m)]
        glob = rows[len(local):]
        out.append((ops, glob, blocks, hm.kinds, _depth_test(ops, glob, n, r) if scaled else None))
    return out


def _row_scaled(algebra, glob, n: int) -> bool:
    """Whether each global row has no zero entry and is geometric in the
    algebra, its stripe row i + 1 one unit c_g times its stripe row i:
    with tables, the ``ops.ratios`` keys of each entry against the one a
    stripe row above are all equal; without, the cross products g[k] g[0]
    = g[n] g[k - n] of spread residues hold and the product of every
    g[j], j <= n, is a unit, as it is exactly when each of them is.
    Stripe row 1 goes first, so a generic row declines after n keys.  For
    a split ring ops is ``Ring.ops``, whose spread products hold mod
    M_p(x): the test runs once, not once per factor view, as units g[0]
    and g[n] and the cross products make every entry a unit and every
    view's rows geometric."""
    ops, units = algebra.ops, 1
    if not all(map(all, glob)):
        return False
    for g in glob:
        keys, sp = set(), [] if ops.has_tables else ops._spread(g[:n + 1])
        for lo, hi in ((n, min(2 * n, len(g))), (2 * n, len(g))):
            if lo >= hi:
                break
            if ops.has_tables:
                keys.update(ops.ratios(g[lo - n:hi - n], g[lo:hi]))
                if len(keys) > 1:
                    return False
            else:
                mul = ops._spread_mul
                sp += ops._spread(g[len(sp):hi])
                if ([*map(mul, sp[lo:hi], repeat(sp[0]))]
                        != [*map(mul, repeat(sp[n]), sp[lo - n:hi - n])]):
                    return False
        units = reduce(ops._spread_mul, sp[:n + 1], units) if sp else units
    return ops.has_tables or algebra.is_unit_bits(ops._unspread(units))


def _depth_test(ops, glob, n: int, r: int):
    """batch(x, y, w) for a row-scaled view whose global rows glob hold
    stripe row 0 and g[n] (stripe row 0 alone at r = 1): x and y are the
    stripe row 0 residuals of a plan batch's disk sets, w entries each,
    and batch gives (depths, at): each disk set's smallest failing depth,
    r + 1 when none, and at(t, d), d at or past that depth, disk set t's
    first failing pair there.  Column (i, j) of a disk set has the ratio
    mu^i rho_j, mu = c_1 / c_0, rho_j = y_j / x_j, so its depth is 1 where
    row 0 fails alone, else 2 where some x_j or y_j is zero, else the
    first t + 1 with mu^t = 1 or some rho_j / rho_j' = mu^t.  at sweeps
    the disk set's ``ops.ratios`` keys scaled by mu^i (the x = 0 and y = 0
    keys kept), a log sum with tables and a spread product without, so
    nothing past row 0 is read.

    With tables the whole batch is one line: each column's log y - log x
    becomes its place on mu's cycle (its coset of the powers of mu, as a
    band two orders wide, then its log to base mu) plus its disk set's
    tag, and one sort puts each disk set's places, band by band, in a run
    of its own.  Two keys meet at mu^t exactly when they share a band and
    t is their cyclic distance mod the order of mu, so the closest pair of
    a band are sorted neighbours or its first and last, whose wrap gap is
    first + order - last (order itself for a lone key, where mu^order =
    1).  When no neighbour gap and no wrap gap is below r and no entry is
    zero, every disk set passes; otherwise _line_depths reads each one's
    depth from its run.  Without tables each disk set takes one set test
    of its r w keys scaled by mu^i, each its ratio times one constant of
    the batch."""
    ratios = ops.ratios
    # log c_g, or c_g times one constant without tables; g[-1] is g[n],
    # or at r = 1, where mu is not read, g[n - 1]
    c0, c1 = ratios([g[0] for g in glob], [g[-1] for g in glob])
    if ops.has_tables:
        log, qm1 = ops.log, ops.qm1
        step = c1 - c0                  # log mu
        cosets = gcd(step, qm1)
        order = qm1 // cosets           # of mu: mu^t = 1 exactly where it divides t
        inv = pow(step // cosets, -1, order)
        span = 2 * order                # a band: its places, then more than an order apart

        def scaled(keys, d):
            return [(k + i * step) % qm1 if -1 < k < qm1 else k for i in range(d) for k in keys]

        def depths(x, y, w):
            tags = _tags(len(x) // w, w, cosets * span)
            if cosets == 1:             # mu generates the units: no coset arithmetic
                line = [(log[b] - log[a]) * inv % order + t for a, b, t in zip(x, y, tags)]
            else:
                line = [(k := log[b] - log[a]) % cosets * span + k // cosets * inv % order + t
                        for a, b, t in zip(x, y, tags)]
            line.sort()
            gaps = list(map(sub, line[1:], line))
            if cosets == 1:
                starts = range(0, len(line), w)
                wraps = [order + a - b for a, b in zip(line[::w], line[w - 1::w])]
            else:                       # a band starts more than an order past the last
                starts = [0, *(i for i, gap in enumerate(gaps, 1) if gap > order)]
                wraps = [order + line[s] - line[e - 1]
                         for s, e in zip(starts, [*starts[1:], len(line)])]
            zeros = not (all(x) and all(y))
            if not zeros and min(gaps, default=r) >= r and min(wraps) >= r:
                return [r + 1] * (len(x) // w)
            out = _line_depths(gaps, starts, wraps, w, r)
            if zeros:                   # a disk set with an x = 0 or y = 0 entry: row 0 decides
                for t in range(len(out)):
                    xs, ys = x[t * w:(t + 1) * w], y[t * w:(t + 1) * w]
                    if not (all(xs) and all(ys)):
                        out[t] = 2 if _first_pair_backward(xs, ys, ratios(xs, ys)) is None else 1
            return out
    else:
        mul, zero = ops._spread_mul, {-1, 0}
        mus, power = [], 1              # mus[i] = c_1^i c_0^(r-1-i), mu^i times one constant
        for _ in range(r):
            mus.append(power)
            power = mul(power, c1)
        power = 1
        for i in range(r - 1, -1, -1):
            mus[i], power = mul(mus[i], power), mul(power, c0)

        def scaled(keys, d):
            return [k if k == -1 else mul(mu, k) for mu in mus[:d] for k in keys]

        def depths(x, y, w):
            keys, out = ratios(x, y), []
            for o in range(0, len(keys), w):
                own = keys[o:o + w]
                if not zero.isdisjoint(own):
                    out.append(2 if _first_pair_backward(x[o:o + w], y[o:o + w], own) is None
                               else 1)
                    continue
                own = scaled(own, r)
                depth, seen = r + 1, set()
                if len(set(own)) < len(own):
                    for i in range(r):
                        seen.update(own[i * w:(i + 1) * w])
                        if len(seen) < (i + 1) * w:
                            depth = i + 1
                            break
                out.append(depth)
            return out

    def batch(x, y, w: int):
        def at(t: int, d: int):
            xs, ys = x[t * w:(t + 1) * w], y[t * w:(t + 1) * w]
            return _first_pair_backward(xs * d, ys * d, scaled(ratios(xs, ys), d))
        return depths(x, y, w), at
    return batch


@lru_cache(maxsize=16)
def _tags(count: int, w: int, band: int) -> tuple[int, ...]:
    """The disk-set tag of each entry of a batch line of count disk sets,
    w entries each: disk set t's entries start t band on."""
    return tuple(t * band for t in range(count) for _ in range(w))


def _line_depths(gaps, starts, wraps, w: int, r: int) -> list[int]:
    """Each disk set's smallest failing depth, r + 1 when none, from a
    sorted batch line of w entries per disk set: gaps[i] is entry i + 1
    less entry i, and band k, which starts at entry starts[k] and ends
    where the next begins, has the wrap gap wraps[k].  A disk set's depth
    is 1 + its smallest gap of neighbours in one band or wrap gap."""
    out = [r + 1] * ((len(gaps) + 1) // w)
    for s, e, wrap in zip(starts, [*starts[1:], len(gaps) + 1], wraps):
        out[s // w] = min(out[s // w], 1 + min([wrap, *gaps[s:e - 1]]))
    return out


def _geometric_rows(ops, glob, n: int, depth: int):
    """A row-scaled view's global rows, which hold stripe row 0 and g[n],
    rebuilt to depth stripe rows: each stripe row c_g = g[n] / g[0] times
    the one before."""
    out = []
    for g in glob:
        row = g[:n]
        if depth > 1:
            c = ops.mul(g[n], ops.inv(g[0]))
            for k in range(n, depth * n):
                row.append(ops.mul(c, row[k - n]))
        out.append(row)
    return out


_PLAN_BITS = 1 << 14        # about the most bits one packed int of a plan holds


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
    """(disk sets, least, items) per plan batch, in lexicographic order:
    the batch's disk sets; the smallest depth at which one of them fails
    in some view, as the row-scaled views' depth tests give it, or 0 where
    a view is not row-scaled or has a singular V_i there; and an iterator
    of each disk set's items, one per view, as _view_residuals gives them.
    Every view of an algebra has one degree, so their batches line up."""
    disk_sets = combinations(range(spec.n), spec.m)
    for batch in zip(*[_view_residuals(spec, *view) for view in views]):
        counts, leasts, items = zip(*batch)
        yield list(islice(disk_sets, counts[0])), min(leasts), zip(*items)


def _view_residuals(spec: CodeSpec, ops, glob, blocks, kind, test):
    """One factor view's (count, least, items) per plan batch of count
    disk sets, for _schur_residuals.  Without test, least is 0 and items
    gives, disk set by disk set, None where some V_i is singular, else the
    global rows after the Schur step, of every stripe row.  In a
    row-scaled view test gives every disk set's depth at once from the
    batch's stripe row 0 residuals (see _depth_test): least is the
    smallest, or 0 where a V_i is singular, and an item is (depth, t, at)
    or None, built only when read.

    A plan maps a stripe row's n entries to every disk set's residual
    entries there: the XOR of its basis ints at the entries' set bits,
    then one unpack, which splits lanes of 8 to 64 bits without shifts.
    Plans take the disk sets in batches of about _PLAN_BITS bits, which
    bounds a plan's ints (shift-and-mask, above 64 bits, is quadratic in
    an int's size), and a batch is built only when the scan reaches it."""
    m, n, w, degree = spec.m, spec.n, spec.n - spec.m, ops.degree
    r = 1 if test else spec.r           # the stripe rows the scan reads
    nbytes, lane = (degree + 7) >> 3, lane_width(degree)
    span = 8 * nbytes * n               # selector bytes per stripe row
    data = b"".join(map(int.to_bytes, chain.from_iterable(g[:r * n] for g in glob),
                        repeat(nbytes), repeat("little")))
    bits = bit_bytes(data)              # per global row, per stripe row: its entries' bits
    selectors = [[bits[(k + i) * span:(k + i + 1) * span] for i in range(r)]
                 for k in range(0, r * len(glob), r)]
    total, per = comb(n, m), max(1, _PLAN_BITS // (lane * w))
    for first in range(0, total, per):
        count = min(per, total - first)
        plans = [_schur_plan(ops, block, first, first + count) for block in blocks]
        values = [[unpack(reduce(xor, compress(plans[kind[i]][1], sel), 0), count * w, lane)
                   for i, sel in enumerate(sels)] for sels in selectors]
        if not test:
            yield count, 0, _residual_rows(plans, values, w)
            continue
        (x,), (y,) = values
        depths, at = test(x, y, w)
        items, dets = zip(depths, range(count), repeat(at)), plans[0][0]
        if all(dets):
            yield count, min(depths), items
        else:
            yield count, 0, [item if det else None for item, det in zip(items, dets)]


def _residual_rows(plans, values, w: int):
    """Disk set by disk set of a plan batch: None where some V_i is
    singular, else each global row's residual entries, stripe row by
    stripe row, from values, each stripe row's unpacked batch."""
    for t, dets in enumerate(zip(*[dets for dets, _ in plans])):
        at = repeat(slice(t * w, (t + 1) * w))
        yield None if not all(dets) else [
            list(chain.from_iterable(map(getitem, per_row, at))) for per_row in values]


def _group(spec: CodeSpec, views, disks: Sequence[int], residuals):
    """first_at(depth): the first failing pattern of this disk set in the
    code shortened to `depth` stripe rows; None when every pattern decodes
    or when fewer than s sectors survive (the group has none).  residuals
    holds each view's item at disks, as _schur_residuals gives them; a
    row-scaled view's (depth, t, at) gives its witness at(t, d) only at a
    depth d where it fails."""
    m, n, w, s = spec.m, spec.n, spec.n - spec.m, spec.s

    def first_at(depth: int) -> Optional[ErasurePattern]:
        if depth * w < s:
            return None
        firsts = []
        for (ops, glob, blocks, kind, test), residual in zip(views, residuals):
            if test and residual is not None:
                fail, t, at = residual
                if depth >= fail:
                    firsts.append(at(t, depth))
                continue
            if residual is None:
                # a singular V_i: eliminate the rows cut as shorten cuts H,
                # the local ones rebuilt from their blocks, and the global
                # ones of a row-scaled view from stripe row 0 and g[n]
                work = [[0] * (i * n) + list(part) + [0] * ((depth - 1 - i) * n)
                        for i in range(depth) for part in blocks[kind[i]]]
                work += _geometric_rows(ops, glob, n, depth) if test else [
                    g[:depth * n] for g in glob]
                used = eliminate(ops, work, [c for c in range(depth * n) if c % n in disks])
                if len(used) < m * depth:   # dependent disk columns: every pattern fails
                    firsts.append(tuple(range(s)))
                    break
                residual = [[row[c] for c in range(depth * n) if c % n not in disks]
                            for t, row in enumerate(work) if t not in used]
            firsts.append(_first_singular(ops, [row[:depth * w] for row in residual], s))
        first = min((f for f in firsts if f is not None), default=None)
        if first is None:
            return None
        alive = [j for j in range(n) if j not in disks]     # survivor t is (t // w, alive[t % w])
        return ErasurePattern(disks, [(t // w, alive[t % w]) for t in first])

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
    views = _local_blocks(hm)
    total, best, first, witness, done = comb(spec.n, spec.m), spec.r + 1, None, None, 0
    for disk_sets, least, items in _schur_residuals(spec, views):
        if least >= best:       # every disk set passes at best - 1 in every view
            if progress is not None and first is None:
                for k in range(done + 1, done + len(disk_sets) + 1):
                    progress(k, total)
            done += len(disk_sets)
            continue
        for disks, residuals in zip(disk_sets, items):
            done += 1
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
        if best == 1 or first is not None and not depth:
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

"""Dense linear algebra over the symbol algebras.

Over a field the usual elimination story applies.  Over the ring of
binary polynomials mod M_p(x), elimination is unreliable (a pivot can be
a zero divisor even when the matrix is invertible), so invertibility,
rank, and solving are delegated to the factor fields GF(2)[x]/(f) for
the irreducible factors f of M_p(x) and glued back together with the
Chinese remainder theorem.  M_p(x) is squarefree, so the projection onto
the product of factor fields is an isomorphism and the delegation is
complete.  The algebra supplies both halves (``factor_views`` and
``crt_bits``; a field is its own single factor), so the routines here
run one path for fields and rings alike.

Every elimination runs through ``eliminate``.  A product of a fixed
matrix with vectors starts from one basis: each column, all of the
matrix's rows packed into one int, times each x^k (``x_powers``), which
needs no product in fields and in the ring.  It has two appliers.  A
``PackedMap`` spans the basis into split multiply-by-constant tables,
one lookup and one XOR per byte of each nonzero input entry; at 256
entries per byte, the tables pay for many products per build, so the
solve and ``mul_vector`` and the codec's syndrome (one map per Matrix,
cached by ``packed_map``) use them.  The SD scan's Schur plans
(``sdcheck._schur_plan``) keep the basis alone and XOR it at each set
bit of the input, about w/2 XORs per entry: a plan is applied only
r s times per call, too few to pay for tables 32 times its size (256
entries per 8 basis ints).  ``unpack`` splits a result for both.

Solving is factor-then-apply.  The factor step reduces [A | I] in each
factor field by Gauss-Jordan (``eliminate`` forward, then again over the
pivot rows in reverse) into a left inverse L (L·A = I) glued into the
algebra, and stacks under L the residual of each row of A that some
factor field did not pivot on.  That stack is
one packed map cached on the Matrix A, whose hash is computed once, so a
cache hit costs one dict lookup.  The apply step maps b to x = L·b and
the check rows' residuals A_t·x - b_t, and b is consistent exactly when
they are all zero.  Repeated solves against one coefficient matrix
(every symbol-stripe of a sector-stripe shares its missing set) pay for
the elimination once.

``det_bits`` computes a determinant by dynamic programming over column
subsets (in characteristic 2 the signs vanish).  It needs no division and
works over the ring directly: ``determinant`` is the cross-check of the
CRT route, and the SD scan takes the local blocks' minors from it.
"""

from __future__ import annotations

import sys
from functools import lru_cache, reduce
from itertools import repeat
from operator import getitem, xor
from typing import Iterable, Sequence

from .algebra import Algebra, Element, Ring, _Gf2mOps
from .errors import (
    AlgebraMismatchError,
    IndexOutOfRangeError,
    NotSquareError,
    ShapeMismatchError,
    SingularSystemError,
)


class Matrix:
    """Immutable dense matrix of elements from one algebra.

    Entries are stored as packed bit vectors (ints); `entry` wraps them
    back into Elements on demand.  The hash is computed once, so caches
    keyed on a matrix cost O(1) per lookup.
    """

    __slots__ = ("algebra", "rows", "cols", "bits", "_hash")

    def __init__(self, algebra: Algebra, bits: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in bits)
        ncols = len(rows[0]) if rows else 0
        limit = 1 << algebra.element_bits
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatchError("ragged rows in matrix literal")
            for v in r:
                if not 0 <= v < limit:
                    raise ValueError(f"entry 0x{v:x} out of range for {algebra}")
        self.algebra = algebra
        self.rows = len(rows)
        self.cols = ncols
        self.bits = rows
        self._hash = None

    @classmethod
    def from_elements(cls, rows: Sequence[Sequence[Element]]) -> "Matrix":
        if not rows or not rows[0]:
            raise ShapeMismatchError("matrix needs at least one entry")
        alg = rows[0][0].algebra
        for row in rows:
            for e in row:
                if e.algebra != alg:
                    raise AlgebraMismatchError(
                        f"mixed algebras in matrix: {e.algebra} vs {alg}")
        return cls(alg, [[e.bits for e in row] for row in rows])

    def entry(self, i: int, j: int) -> Element:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRangeError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return self.algebra.element(self.bits[i][j])

    def row_elements(self, i: int) -> list[Element]:
        if not 0 <= i < self.rows:
            raise IndexOutOfRangeError(f"row {i} outside [0, {self.rows})")
        return [self.algebra.element(v) for v in self.bits[i]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.algebra == other.algebra
                and self.bits == other.bits)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.algebra, self.bits))
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.algebra})"


def identity(algebra: Algebra, k: int) -> Matrix:
    return Matrix(algebra, [[1 if i == j else 0 for j in range(k)] for i in range(k)])


def _check_index_seq(ids: Sequence[int], bound: int, what: str) -> None:
    prev = -1
    for i in ids:
        if not 0 <= i < bound:
            raise IndexOutOfRangeError(f"{what} index {i} outside [0, {bound})")
        if i <= prev:
            raise IndexOutOfRangeError(
                f"{what} indices must be strictly increasing, got {i} after {prev}")
        prev = i


def submatrix(m: Matrix, row_ids: Sequence[int], col_ids: Sequence[int]) -> Matrix:
    """Rows and columns at the given strictly increasing index sets."""
    _check_index_seq(row_ids, m.rows, "row")
    _check_index_seq(col_ids, m.cols, "column")
    return Matrix(m.algebra, [[m.bits[i][j] for j in col_ids] for i in row_ids])


def determinant(m: Matrix) -> Element:
    """Exact determinant by det_bits, dimension <= 8, valid over the ring.
    Larger invertibility questions go through is_invertible instead."""
    if m.rows != m.cols:
        raise NotSquareError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    if m.rows > 8:
        raise ValueError("determinant is limited to dimension 8; use is_invertible")
    return m.algebra.element(det_bits(m.algebra.mul_bits, m.bits))


def det_bits(mul, rows: Sequence[Sequence[int]]) -> int:
    """Determinant of square bit rows under mul, by subset DP (division-free)."""
    full = (1 << len(rows)) - 1
    acc = [1] + [0] * full
    for mask in range(full):
        v = acc[mask]
        if not v:
            continue
        row = rows[mask.bit_count()]
        for c in range(len(row)):
            b = 1 << c
            if not mask & b and row[c]:
                acc[mask | b] ^= mul(v, row[c])
    return acc[full]


def eliminate(ops: _Gf2mOps, rows: list[list[int]], pivot_cols: Iterable[int]) -> list[int]:
    """Forward elimination in the field given by ops, mutating rows.

    For each pivot column in turn, the first unused row with a nonzero
    entry there becomes the pivot: it is scaled to 1 and cleared from the
    other unused rows; rows already used are left alone.  Returns the
    pivot rows in column order, so pivot row k is zero in the pivot
    columns before the k-th.  Other columns ride along (augmented
    systems, residuals).

    Updates touch only the pivot row's nonzeros: the local rows of an SD
    parity-check matrix have n nonzeros out of rn.
    """
    mul = ops.mul
    used = [False] * len(rows)
    pivots = []
    for c in pivot_cols:
        p = next((k for k in range(len(rows)) if not used[k] and rows[k][c]), None)
        if p is None:
            continue
        used[p] = True
        pivots.append(p)
        prow = rows[p]
        nz = [(k, v) for k, v in enumerate(prow) if v]
        inv = ops.inv(prow[c])
        if inv != 1:
            nz = [(k, mul(inv, v)) for k, v in nz]
            for k, v in nz:
                prow[k] = v
        for t, row in enumerate(rows):
            f = row[c]
            if used[t] or not f:
                continue
            for k, v in nz:
                row[k] ^= mul(f, v)
    return pivots


def factor_ranks(m: Matrix) -> tuple[int, ...]:
    """Rank in each factor field; a 1-tuple over a field.

    Over the ring this is the complete rank story: one rank per
    irreducible factor of M_p(x).
    """
    return tuple(len(eliminate(ops, rows, range(m.cols)))
                 for ops, rows in m.algebra.factor_views(m.bits))


def rank(m: Matrix) -> int:
    """Row rank by elimination; fields only (rings report per factor)."""
    if isinstance(m.algebra, Ring):
        raise ValueError("rank over the ring is per-factor; use factor_ranks")
    return factor_ranks(m)[0]


def full_column_rank(m: Matrix) -> bool:
    """True iff the columns are linearly independent (in every factor)."""
    if m.cols > m.rows:
        return False
    return min(factor_ranks(m)) == m.cols


def is_invertible(m: Matrix) -> bool:
    if m.rows != m.cols:
        raise NotSquareError(f"invertibility needs a square matrix, got {m.rows}x{m.cols}")
    return full_column_rank(m)


class PackedMap:
    """x -> M·x for one fixed matrix M, as split multiply-by-constant tables
    (Plank, Greenan & Miller, FAST 2013) over all of M's rows at once.

    M's entries are residues modulo a binary polynomial of degree w (a
    field's modulus, or the ring's M_p(x)); row i of M·x sits at bits
    [i·w, (i+1)·w) of one int.  Each nonzero column c keeps one table per
    8-bit chunk of x[c], mapping the chunk at bit `shift` to
    M[:, c]·(chunk << shift), packed: the XOR span of the chunk's part of
    the column's ``x_powers``, so no product is taken, in fields with or
    without log tables or in rings.  Applying M is one lookup and one XOR
    per chunk, then one ``unpack``.
    """

    __slots__ = ("width", "rows", "nonzero", "tables")

    def __init__(self, modulus: int, rows: Sequence[Sequence[int]]):
        self.width = modulus.bit_length() - 1
        self.rows = len(rows)
        columns = [pack(col, self.width) for col in zip(*rows)]
        self.nonzero = [c for c, t in enumerate(columns) if t]
        self.tables = []
        for basis in x_powers(modulus, [columns[c] for c in self.nonzero], self.rows):
            for shift in range(0, self.width, 8):
                table = [0]
                for e in basis[shift:shift + 8]:
                    table += [v ^ e for v in table]
                self.tables.append(table)

    def packed(self, x: Sequence[int]) -> int:
        """M·x, its rows packed width bits apart."""
        values = map(x.__getitem__, self.nonzero)
        if self.width > 8:      # each value's bytes, low first: one per table
            nbytes = (self.width + 7) >> 3
            values = b"".join(map(int.to_bytes, values, repeat(nbytes), repeat("little")))
        return reduce(xor, map(getitem, self.tables, values), 0)

    def __call__(self, x: Sequence[int]) -> list[int]:
        """M·x as a list."""
        return unpack(self.packed(x), self.rows, self.width)


def pack(values: Sequence[int], width: int) -> int:
    """values as one int, width bits apart, the first lowest."""
    if width % 8 == 0:
        return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width >> 3),
                                           repeat("little"))), "little")
    return sum(v << o for o, v in zip(range(0, len(values) * width, width), values) if v)


def unpack(acc: int, count: int, width: int) -> list[int]:
    """The first count width-bit values of a packed int, the lowest first."""
    if width == 8:
        return list(acc.to_bytes(count, "little"))
    if width == 16 and sys.byteorder == "little":
        return memoryview(acc.to_bytes(2 * count, "little")).cast("H").tolist()
    mask = (1 << width) - 1
    return [acc >> o & mask for o in range(0, count * width, width)]


def x_powers(modulus: int, columns: Sequence[int], count: int) -> list[list[int]]:
    """For each packed column (count residues modulo `modulus`, of degree
    w, packed w bits apart), the column times x^k for k < w.

    Multiplying by a constant is GF(2)-linear, so these w ints span the
    column's products with every residue: the XOR of those at the set
    bits of y is the column times y.  Each is one step from the last: a
    shift of every entry at once, then, in each entry that carried out of
    its w bits, the carry cleared and the modulus's low part added (the
    entries do not overlap, so * is carry-less here).
    """
    width = modulus.bit_length() - 1
    carries = ((1 << count * width) - 1) // ((1 << width) - 1) << width
    low = modulus ^ 1 << width
    out = []
    for t in columns:
        basis = []
        for _ in range(width):
            basis.append(t)
            t <<= 1
            over = t & carries
            t ^= over ^ (over >> width) * low
        out.append(basis)
    return out


@lru_cache(maxsize=64)
def packed_map(m: Matrix) -> PackedMap:
    """m compiled once for every vector it multiplies."""
    return PackedMap(m.algebra.modulus, m.bits)


@lru_cache(maxsize=64)
def _factor(a: Matrix) -> PackedMap | None:
    """Factor A once for every right-hand side, or None when the columns
    of A are dependent in some factor field.

    Each factor field runs Gauss-Jordan on [A | I]: eliminate forward,
    then again over the pivot rows in reverse order with reversed columns
    (pivot row k is zero in the pivot columns before the k-th, so each
    reverse step picks pivot row k).  The pivot rows' identity parts are
    that field's L, supported on its pivot rows; glued entrywise with
    crt_bits, they are L with L·A = I.  The map returned stacks L over
    A_t·L + e_t for each row t of A that some factor field did not pivot
    on, so it takes b to x = L·b followed by each such A_t·x - b_t, all
    zero exactly when b is consistent.
    """
    n, alg = a.cols, a.algebra
    lefts, unpivoted = [], set()
    for ops, view in alg.factor_views(a.bits):
        for i, row in enumerate(view):
            row += [0] * a.rows
            row[n + i] = 1
        pivots = eliminate(ops, view, range(n))
        if len(pivots) < n:
            return None
        eliminate(ops, [view[p] for p in reversed(pivots)], reversed(range(n)))
        lefts.append([view[p][n:] for p in pivots])
        unpivoted.update(set(range(a.rows)).difference(pivots))
    crt = alg.crt_bits
    left = [[crt(col) for col in zip(*rows)] for rows in zip(*lefts)]
    residuals = []
    if unpivoted:                       # times_left(y) = y·L
        times_left = PackedMap(alg.modulus, [[row[j] for row in left] for j in range(a.rows)])
        for t in sorted(unpivoted):     # A_t·L + e_t takes b to A_t·x - b_t
            res = times_left(a.bits[t])
            res[t] ^= 1
            residuals.append(res)
    return PackedMap(alg.modulus, left + residuals)


def solve_bits(a: Matrix, b_bits: Sequence[int]):
    """Solve A·x = b on raw bit vectors: factor A (cached), then apply.

    Returns (status, x): status "ok" with the unique solution,
    "deficient" when the columns are dependent, "inconsistent" when no
    solution exists.  Over the ring, deficiency in any factor field wins
    over inconsistency in another.  The factored map takes b to x = L·b,
    which solves each factor field's pivot rows, above the residuals of
    the other rows of A, so b is consistent exactly when those are zero.
    """
    if a.rows != len(b_bits):
        raise ShapeMismatchError(
            f"{a.rows} equations but {len(b_bits)} right-hand values")
    plan = _factor(a)
    if plan is None:
        return "deficient", None
    acc = plan.packed(b_bits)
    if acc >> a.cols * plan.width:
        return "inconsistent", None
    return "ok", unpack(acc, a.cols, plan.width)


def solve(m: Matrix, b: Sequence[Element]) -> list[Element]:
    """x with M·x = b for square invertible M."""
    if m.rows != m.cols:
        raise NotSquareError(f"solve needs a square matrix, got {m.rows}x{m.cols}")
    b_bits = [m.algebra._check(e) for e in b]
    status, x = solve_bits(m, b_bits)
    if status != "ok":
        raise SingularSystemError(f"coefficient matrix is singular ({status})")
    return [m.algebra.element(v) for v in x]


def mul_vector(m: Matrix, vec: Sequence[Element]) -> list[Element]:
    """M·x as a list of Elements."""
    if len(vec) != m.cols:
        raise ShapeMismatchError(f"vector length {len(vec)} != {m.cols} columns")
    alg = m.algebra
    return [alg.element(v) for v in packed_map(m)([alg._check(e) for e in vec])]

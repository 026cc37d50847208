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
``PackedMap`` spans the basis into split multiply-by-constant tables
(``algebra.byte_tables``, the one builder of split tables), one lookup
and one XOR per byte of each nonzero input entry; at 256 entries per
byte, the tables pay for many products per build, so the solve plans
use them.  ``mul_vector`` builds none: it takes one product per nonzero
entry and caches nothing.  The SD scan's Schur plans
(``sdcheck._schur_plan``) keep the basis alone and XOR it at each set
bit of the input, about w/2 XORs per entry: a plan is applied only
r s times per call, too few to pay for tables 32 times its size (256
entries per 8 basis ints).  ``unpack`` splits a result for both; a
Schur plan's entries sit one per lane of 8, 16, 32 or 64 bits (the
stride of ``x_powers``), which it splits without shifts.

There is one solve, ``solve_bits(m, known, cols)``: the values at cols
that make m·vec = 0, where known holds vec's other entries in ascending
column order (encode's data, decode's present symbols, ``solve``'s
right-hand side), so no caller builds or scatters a full vector.  Its
plan is built once per (m, cols) and cached: Gauss-Jordan in each factor
field (``eliminate`` forward, then again over the pivot rows in reverse)
on [A | B], A and B being m at cols and at the other columns, leaves the
left inverse L of A times B in the pivot rows and, in each row some
factor field did not pivot on, a residual check times B.  Glued into
the algebra, that stack is one packed map over the known columns, in
known's order, and a cache hit costs one dict lookup (the Matrix hash
is computed once).  Applying it reads known as it is, straight to x and
the checks, and known is consistent exactly when the checks are all
zero.  Every symbol-stripe of a sector-stripe shares its missing set, so
they pay for the elimination once.  ``solve(m, b)`` is the solve of
[m | I]·(x, b) = 0 at x's slots.

``det_bits`` computes a determinant by dynamic programming over column
subsets (in characteristic 2 the signs vanish).  It needs no division and
works over the ring directly: ``determinant`` is the cross-check of the
CRT route, and the SD scan takes the local blocks' minors from it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import getitem, index, xor
from typing import Iterable, Sequence

from .algebra import Algebra, Element, Ring, _Gf2mOps, byte_tables, unpack
from .errors import (
    AlgebraMismatchError,
    IndexOutOfRangeError,
    NotSquareError,
    ShapeMismatchError,
    SingularSystemError,
)


class Matrix:
    """Immutable dense matrix of elements from one algebra.

    Entries are stored as packed bit vectors (ints), each passed through
    operator.index as Element passes its bits: a float, a str or None
    raises TypeError, and a bool or a numpy integer is stored as an int.
    `entry` wraps them back into Elements on demand.  The hash is
    computed once, so caches keyed on a matrix cost O(1) per lookup.
    Code whose rows are already plain in-range ints of one length builds
    through ``_of_ints``, which skips those checks.
    """

    __slots__ = ("algebra", "rows", "cols", "bits", "_hash")

    def __init__(self, algebra: Algebra, bits: Iterable[Iterable[int]]):
        rows = tuple(tuple(map(index, r)) for r in bits)
        ncols = len(rows[0]) if rows else 0
        limit = 1 << algebra.element_bits
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatchError("ragged rows in matrix literal")
            if r and (min(r) < 0 or max(r) >= limit):
                v = next(v for v in r if not 0 <= v < limit)
                raise ValueError(f"entry 0x{v:x} out of range for {algebra}")
        self._fill(algebra, rows)

    @classmethod
    def _of_ints(cls, algebra: Algebra, rows: Iterable[Sequence[int]]) -> "Matrix":
        """The trusted constructor: rows of plain ints in range for algebra,
        all of one length, taken as they are (no index, range or shape pass)."""
        m = object.__new__(cls)
        m._fill(algebra, tuple(map(tuple, rows)))
        return m

    def _fill(self, algebra: Algebra, rows: tuple[tuple[int, ...], ...]) -> None:
        self.algebra = algebra
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
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
    return Matrix._of_ints(algebra, [[1 if i == j else 0 for j in range(k)] for i in range(k)])


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
    return Matrix._of_ints(m.algebra, [[m.bits[i][j] for j in col_ids] for i in row_ids])


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
    [i·w, (i+1)·w) of one int, and M is given as its columns so packed
    and its row count.  Each column c keeps one table per 8-bit chunk of
    x[c], mapping the chunk at bit `shift` to M[:, c]·(chunk << shift),
    packed: the ``byte_tables`` of the column's ``x_powers``, so no product
    is taken, in fields with or without log tables or in rings.  Applying
    M is one lookup and one XOR per chunk, then one ``unpack``; x is read
    as it is (a zero column's tables are all zero).
    """

    __slots__ = ("width", "rows", "tables")

    def __init__(self, modulus: int, columns: Sequence[int], rows: int):
        self.width = modulus.bit_length() - 1
        self.rows = rows
        self.tables = [table for basis in x_powers(modulus, columns, rows, self.width)
                       for table in byte_tables(basis)]

    def packed(self, x: Sequence[int]) -> int:
        """M·x, its rows packed width bits apart."""
        if self.width > 8:      # each value's bytes, low first: one per table
            nbytes = (self.width + 7) >> 3
            x = b"".join(map(int.to_bytes, x, repeat(nbytes), repeat("little")))
        return reduce(xor, map(getitem, self.tables, x), 0)

    def __call__(self, x: Sequence[int]) -> list[int]:
        """M·x as a list."""
        return unpack(self.packed(x), self.rows, self.width)


def pack(values: Sequence[int], width: int) -> int:
    """values as one int, width bits apart, the first lowest."""
    if width == 8:
        return int.from_bytes(bytes(values), "little")
    if width % 8 == 0:
        return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width >> 3),
                                           repeat("little"))), "little")
    return sum(v << o for o, v in zip(range(0, len(values) * width, width), values) if v)


def x_powers(modulus: int, columns: Sequence[int], count: int, stride: int) -> list[list[int]]:
    """For each packed column (count residues modulo `modulus`, of degree
    w, packed stride >= w bits apart), the column times x^k for k < w.

    Multiplying by a constant is GF(2)-linear, so these w ints span the
    column's products with every residue: the XOR of those at the set
    bits of y is the column times y.  Each is one step from the last: a
    shift of every entry at once, then, in each entry that carried out of
    its w bits, the carry cleared and the modulus's low part added (the
    entries do not overlap, so * is carry-less here).  A stride of
    lane_width(w) puts every entry in a lane that unpack splits without
    shifts.
    """
    width = modulus.bit_length() - 1
    carries = ((1 << count * stride) - 1) // ((1 << stride) - 1) << width
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
def _solve_plan(m: Matrix, cols: tuple[int, ...]) -> PackedMap | None:
    """The map from v, vec's entries at the columns not in cols in
    ascending order, to the values at cols that make m·vec = 0, and the
    checks; or None when the columns of m at cols are dependent in some
    factor field.  The map's columns are in v's order, so it reads v as
    it is.

    With A = m at cols and B = m at the other columns, m·vec = 0 reads
    A·x = B·v (characteristic 2).  Each factor field runs Gauss-Jordan on
    [A | B]: eliminate forward, then again over the pivot rows in reverse
    order with reversed columns (pivot row k is zero in the pivot columns
    before the k-th, so each reverse step picks pivot row k).  The pivot
    rows' B parts are then L·B, for that field's left inverse L (L·A = I,
    supported on its pivot rows).  Forward elimination leaves each other
    row t as t plus the pivot rows that clear its A part: its B part is
    (A_t·L + e_t)·B, which takes v to A_t·x - b_t for b = B·v.  The map
    stacks L·B over one such check per row that some factor field did not
    pivot on (zero in a field that did), glued entrywise with crt_bits:
    it takes v to x, then to values all zero exactly when v is consistent.
    The map's tables are the only ones built: none for L, none for B.
    """
    _check_index_seq(cols, m.cols, "column")
    k, alg = len(cols), m.algebra
    skip = set(cols)
    known = [c for c in range(m.cols) if c not in skip]
    solved, unpivoted = [], set()
    for ops, view in alg.factor_views([[row[c] for c in (*cols, *known)] for row in m.bits]):
        pivots = eliminate(ops, view, range(k))
        if len(pivots) < k:
            return None
        eliminate(ops, [view[p] for p in reversed(pivots)], reversed(range(k)))
        solved.append((set(pivots), [view[p][k:] for p in pivots], view))
        unpivoted.update(set(range(m.rows)).difference(pivots))
    zero = [0] * len(known)
    stacks = [rows + [zero if t in used else view[t][k:] for t in sorted(unpivoted)]
              for used, rows, view in solved]
    if len(stacks) == 1:                # one factor field: residues are elements
        stack = stacks[0]
    else:
        stack = [list(map(alg.crt_bits, zip(*entries))) for entries in zip(*stacks)]
    return PackedMap(alg.modulus, [pack(col, alg.element_bits) for col in zip(*stack)],
                     len(stack))


def solve_bits(m: Matrix, known: Sequence[int], cols: Sequence[int]):
    """Solve m·vec = 0 for the entries of vec at cols, on raw bit vectors,
    given known: vec's entries at the other columns, in ascending column
    order.  The plan of (m, cols) is built once (cached), then applied to
    known as it is.

    Returns (status, x): status "ok" with the unique values at cols,
    "deficient" when m's columns at cols are dependent, "inconsistent"
    when no values exist.  Over the ring, deficiency in any factor field
    wins over inconsistency in another.  The plan takes known to x, which
    solves each factor field's pivot rows, above the residuals of the
    other rows of m, so known is consistent exactly when those are zero.
    """
    cols = tuple(cols)
    if len(known) + len(cols) != m.cols:
        raise ShapeMismatchError(
            f"{m.cols} columns but {len(cols)} unknowns and {len(known)} known values")
    plan = _solve_plan(m, cols)
    if plan is None:
        return "deficient", None
    acc = plan.packed(known)
    if acc >> len(cols) * plan.width:
        return "inconsistent", None
    return "ok", unpack(acc, len(cols), plan.width)


def solve(m: Matrix, b: Sequence[Element]) -> list[Element]:
    """x with M·x = b for square invertible M."""
    if m.rows != m.cols:
        raise NotSquareError(f"solve needs a square matrix, got {m.rows}x{m.cols}")
    if m.rows != len(b):
        raise ShapeMismatchError(f"{m.rows} equations but {len(b)} right-hand values")
    alg, k = m.algebra, m.cols
    b_bits = [alg._check(e) for e in b]
    eye = identity(alg, k).bits
    status, x = solve_bits(Matrix._of_ints(alg, [r + e for r, e in zip(m.bits, eye)]),
                           b_bits, range(k))
    if status != "ok":
        raise SingularSystemError(f"coefficient matrix is singular ({status})")
    return alg.elements(x)


def mul_vector(m: Matrix, vec: Sequence[Element]) -> list[Element]:
    """M·x as a list of Elements: one product per nonzero entry of M, with
    nothing built or cached."""
    if len(vec) != m.cols:
        raise ShapeMismatchError(f"vector length {len(vec)} != {m.cols} columns")
    alg = m.algebra
    x, mul = [alg._check(e) for e in vec], alg.mul_bits
    return alg.elements([reduce(xor, map(mul, compress(row, row), compress(x, row)), 0)
                         for row in m.bits])

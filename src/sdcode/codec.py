"""Systematic encoding and erasure decoding of stripes.

A stripe is an r × n grid of symbols; position (row i, disk j) is vector
slot ni + j, and a full codeword satisfies H·vec = 0.  Parity lives at a
fixed support: the last m disks, plus the trailing s data-disk sectors
of the bottom stripe row (wrapping upward row by row when s exceeds the
data-disk count).  The SD property guarantees that support is decodable,
which makes the encode system solvable; any decodable support would
work, this one is fixed so independent implementations interoperate.

Decoding treats missing symbols as unknowns of the linear system given
by the parity checks; present symbols always get a syndrome check, so
corrupt-but-complete inputs are rejected rather than silently accepted.

Three bounded caches (64 entries each) serve encode and decode:
_parity_layout, keyed on the CodeSpec; _columns_plan, keyed on (H,
unknown columns), which holds the coefficient Matrix and each row's
nonzero entries over the known slots for the syndrome; and linalg's
factorisation, keyed on that coefficient Matrix.  The first call on a
missing set (and the first encode with a matrix) pays for building
them; later calls with the same matrix and missing set only apply them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .algebra import Element
from .construct import (
    CodeSpec,
    ParityCheckMatrix,
    read_row,
    read_text,
    write_text,
)
from .errors import (
    InconsistentSyndromeError,
    LengthMismatchError,
    ShapeMismatchError,
    SingularParitySupportError,
    TooManyParitySectorsError,
    UndecodablePatternError,
)
from .linalg import Matrix, dot, solve_bits
from .sdcheck import ErasurePattern, erased_columns


@dataclass
class Stripe:
    """Symbol grid with per-position availability."""

    spec: CodeSpec
    symbols: list[list[Element]]
    present: list[list[bool]]

    def vec_bits(self) -> list[int]:
        return [self.symbols[i][j].bits
                for i in range(self.spec.r) for j in range(self.spec.n)]

    def missing_positions(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.spec.r) for j in range(self.spec.n)
                if not self.present[i][j]]


def default_parity_pattern(spec: CodeSpec) -> ErasurePattern:
    """The fixed parity support: last m disks, then the last s data-disk
    sectors in row-major order."""
    data = [(i, j) for i in range(spec.r) for j in range(spec.n - spec.m)]
    if spec.s > len(data):
        raise TooManyParitySectorsError(
            f"s={spec.s} parity sectors exceed the {len(data)} data-disk sectors")
    return ErasurePattern(tuple(range(spec.n - spec.m, spec.n)),
                          tuple(data[len(data) - spec.s:]))


@lru_cache(maxsize=64)
def _parity_layout(spec: CodeSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(parity slots, data slots), each ascending."""
    pcols = tuple(erased_columns(default_parity_pattern(spec), spec))
    pset = set(pcols)
    return pcols, tuple(c for c in range(spec.total_columns) if c not in pset)


def data_columns(spec: CodeSpec) -> list[int]:
    """Non-parity vector slots in ascending order (the data fill order)."""
    return list(_parity_layout(spec)[1])


@lru_cache(maxsize=64)
def _columns_plan(matrix: Matrix, cols: tuple[int, ...]):
    """What solving for the symbols at cols needs: the coefficient matrix
    (H at cols), and per row of H its sparse (column, h) entries over the
    other slots, which give the syndrome."""
    unknown = set(cols)
    coef = Matrix(matrix.algebra, [[row[c] for c in cols] for row in matrix.bits])
    known = tuple(tuple((c, h) for c, h in enumerate(row) if h and c not in unknown)
                  for row in matrix.bits)
    return coef, known


def _solve_at(hm: ParityCheckMatrix, vec: list[int], cols: tuple[int, ...]) -> str:
    """Solve H·vec = 0 for the symbols at cols, the other slots held
    fixed; on "ok" the solution is written into vec.  Returns the
    solve_bits status."""
    coef, known = _columns_plan(hm.matrix, cols)
    mul = hm.spec.algebra.mul_bits
    status, x = solve_bits(coef, [dot(mul, row, vec) for row in known])
    if status == "ok":
        for c, v in zip(cols, x):
            vec[c] = v
    return status


def _full_stripe(spec: CodeSpec, vec: Sequence[int]) -> Stripe:
    alg = spec.algebra
    symbols = [[alg.element(vec[spec.column_of(i, j)]) for j in range(spec.n)]
               for i in range(spec.r)]
    return Stripe(spec, symbols, [[True] * spec.n for _ in range(spec.r)])


def encode(hm: ParityCheckMatrix, data: Sequence[Element]) -> Stripe:
    """Fill data slots in column order, then solve for the parity slots
    so that H·vec = 0."""
    spec = hm.spec
    alg = spec.algebra
    pcols, dcols = _parity_layout(spec)
    if len(data) != len(dcols):
        raise LengthMismatchError(
            f"code dimension is {len(dcols)} symbols, got {len(data)}")
    vec = [0] * spec.total_columns
    for c, e in zip(dcols, data):
        vec[c] = alg._check(e)
    if _solve_at(hm, vec, pcols) != "ok":
        raise SingularParitySupportError(
            "parity support is not decodable for this matrix")
    return _full_stripe(spec, vec)


def _check_compatible(hm: ParityCheckMatrix, st: Stripe) -> None:
    a, b = hm.spec, st.spec
    if (a.n, a.m, a.s, a.r) != (b.n, b.m, b.s, b.r) or a.algebra != b.algebra:
        raise ShapeMismatchError(
            f"stripe parameters (n={b.n} m={b.m} s={b.s} r={b.r}, {b.algebra}) "
            f"do not match the matrix (n={a.n} m={a.m} s={a.s} r={a.r}, {a.algebra})")
    if (len(st.symbols) != a.r or len(st.present) != a.r
            or any(len(row) != a.n for row in (*st.symbols, *st.present))):
        raise ShapeMismatchError(f"stripe symbols and flags must form {a.r} x {a.n} grids")


def decode(hm: ParityCheckMatrix, st: Stripe) -> Stripe:
    """Recover all missing symbols, or raise.

    Missing slots become unknowns of H·vec = 0; a solvable-but-violated
    system raises InconsistentSyndrome, an unsolvable missing set raises
    UndecodablePattern (rank deficiency wins when both apply).  A grid of
    the wrong shape, or a present symbol of another algebra, is rejected.
    """
    _check_compatible(hm, st)
    spec = hm.spec
    missing = st.missing_positions()
    check = spec.algebra._check
    vec = [check(st.symbols[i][j]) if st.present[i][j] else 0
           for i in range(spec.r) for j in range(spec.n)]
    status = _solve_at(hm, vec, tuple(sorted(spec.column_of(i, j) for i, j in missing)))
    if status == "deficient":
        raise UndecodablePatternError(
            f"missing set {missing} is not recoverable from this code")
    if status == "inconsistent":
        raise InconsistentSyndromeError(
            "present symbols violate the parity checks on the known rows")
    return _full_stripe(spec, vec)


def erase(st: Stripe, p: ErasurePattern) -> Stripe:
    """Copy of the stripe with the pattern's positions marked missing;
    an invalid pattern raises PatternInvalidError."""
    spec = st.spec
    gone = set(erased_columns(p, spec))
    zero = spec.algebra.zero
    symbols = [[zero if spec.column_of(i, j) in gone else st.symbols[i][j]
                for j in range(spec.n)] for i in range(spec.r)]
    present = [[spec.column_of(i, j) not in gone and st.present[i][j]
                for j in range(spec.n)] for i in range(spec.r)]
    return Stripe(spec, symbols, present)


# -- text format -------------------------------------------------------------

STRIPE_MAGIC = "SDCODE-STRIPE v1"
MISSING_TOKEN = "?"


def write_stripe(st: Stripe, sink) -> None:
    spec, alg = st.spec, st.spec.algebra
    rows = ([alg.element_token(st.symbols[i][j]) if st.present[i][j] else MISSING_TOKEN
             for j in range(spec.n)] for i in range(spec.r))
    write_text(sink, STRIPE_MAGIC, spec, rows, with_family=False)


def read_stripe(source) -> Stripe:
    spec, body = read_text(source, STRIPE_MAGIC, with_family=False)
    alg = spec.algebra
    symbols = [[alg.element(v) for v in read_row(alg, text, toks, lineno, MISSING_TOKEN)]
               for lineno, (text, toks) in enumerate(body, start=4)]
    present = [[tok != MISSING_TOKEN for tok in toks] for _, toks in body]
    return Stripe(spec, symbols, present)

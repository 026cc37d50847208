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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Element
from .construct import (
    CodeSpec,
    ParityCheckMatrix,
    check_row_count,
    parse_token,
    read_text,
    row_tokens,
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
from .linalg import solve_bits
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
    """The fixed parity support: last m disks, then s sectors walking
    leftward from (r-1, n-m-1) and wrapping up a row as needed."""
    if spec.s > (spec.n - spec.m) * spec.r:
        raise TooManyParitySectorsError(
            f"s={spec.s} parity sectors exceed the {(spec.n - spec.m) * spec.r} "
            f"data-disk sectors")
    disks = tuple(range(spec.n - spec.m, spec.n))
    sectors = []
    row, disk = spec.r - 1, spec.n - spec.m - 1
    for _ in range(spec.s):
        sectors.append((row, disk))
        disk -= 1
        if disk < 0:
            row -= 1
            disk = spec.n - spec.m - 1
    return ErasurePattern(disks, tuple(sectors))


def data_columns(spec: CodeSpec) -> list[int]:
    """Non-parity vector slots in ascending order (the data fill order)."""
    pcols = set(erased_columns(default_parity_pattern(spec), spec))
    return [c for c in range(spec.total_columns) if c not in pcols]


def _syndrome_bits(hm: ParityCheckMatrix, vec_bits: Sequence[int],
                   skip: frozenset[int] = frozenset()) -> list[int]:
    alg = hm.spec.algebra
    bits = hm.matrix.bits
    out = [0] * hm.matrix.rows
    for c, v in enumerate(vec_bits):
        if not v or c in skip:
            continue
        for t in range(hm.matrix.rows):
            h = bits[t][c]
            if h:
                out[t] ^= alg.mul_bits(h, v)
    return out


def _solve_at(hm: ParityCheckMatrix, vec: list[int], cols: Sequence[int]) -> str:
    """Solve H·vec = 0 for the symbols at cols, the other slots held
    fixed; on "ok" the solution is written into vec.  Returns the
    solve_bits status."""
    rhs = _syndrome_bits(hm, vec, skip=frozenset(cols))
    sub = [[row[c] for c in cols] for row in hm.matrix.bits]
    status, x = solve_bits(hm.spec.algebra, sub, rhs)
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
    dcols = data_columns(spec)
    if len(data) != len(dcols):
        raise LengthMismatchError(
            f"code dimension is {len(dcols)} symbols, got {len(data)}")
    vec = [0] * spec.total_columns
    for c, e in zip(dcols, data):
        vec[c] = alg._check(e)
    if _solve_at(hm, vec, erased_columns(default_parity_pattern(spec), spec)) != "ok":
        raise SingularParitySupportError(
            "parity support is not decodable for this matrix")
    return _full_stripe(spec, vec)


def _check_compatible(hm: ParityCheckMatrix, st: Stripe) -> None:
    a, b = hm.spec, st.spec
    if (a.n, a.m, a.s, a.r) != (b.n, b.m, b.s, b.r) or a.algebra != b.algebra:
        raise ShapeMismatchError(
            f"stripe parameters (n={b.n} m={b.m} s={b.s} r={b.r}, {b.algebra}) "
            f"do not match the matrix (n={a.n} m={a.m} s={a.s} r={a.r}, {a.algebra})")


def decode(hm: ParityCheckMatrix, st: Stripe) -> Stripe:
    """Recover all missing symbols, or raise.

    Missing slots become unknowns of H·vec = 0; a solvable-but-violated
    system raises InconsistentSyndrome, an unsolvable missing set raises
    UndecodablePattern (rank deficiency wins when both apply).
    """
    _check_compatible(hm, st)
    spec = hm.spec
    missing = st.missing_positions()
    vec = [st.symbols[i][j].bits if st.present[i][j] else 0
           for i in range(spec.r) for j in range(spec.n)]
    status = _solve_at(hm, vec, sorted(spec.column_of(i, j) for i, j in missing))
    if status == "deficient":
        raise UndecodablePatternError(
            f"missing set {missing} is not recoverable from this code")
    if status == "inconsistent":
        raise InconsistentSyndromeError(
            "present symbols violate the parity checks on the known rows")
    return _full_stripe(spec, vec)


def erase(st: Stripe, p: ErasurePattern) -> Stripe:
    """Copy of the stripe with the pattern's positions marked missing."""
    spec = st.spec
    gone = {spec.column_of(i, d) for i in range(spec.r) for d in p.disks}
    gone.update(spec.column_of(row, disk) for row, disk in p.sectors)
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
    check_row_count(body, spec.r, "stripe rows")
    algebra = spec.algebra
    symbols = []
    present = []
    for lineno, text in enumerate(body, start=4):
        srow, prow = [], []
        for tok, col in row_tokens(text, lineno, spec.n):
            missing = tok == MISSING_TOKEN
            srow.append(algebra.zero if missing else parse_token(algebra, tok, lineno, col))
            prow.append(not missing)
        symbols.append(srow)
        present.append(prow)
    return Stripe(spec, symbols, present)

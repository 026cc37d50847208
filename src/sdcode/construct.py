"""Parity-check matrix construction and the text file format.

Codes live on an r × n stripe (r sector rows, n disks); the sector at
stripe row i of disk j maps to matrix column ni + j.  A parity-check
matrix has mr + s rows: the first mr are local (row i is nonzero only
inside the n columns of block ⌊i/m⌋) and the last s are global rows with
every entry nonzero.

Two fixed families are provided, both requiring rn <= O(alpha):

* construction1 (m=1, s=2): local row i is all ones on block i; global
  rows hold alpha^(in+j) and alpha^(2in-j) at column in + j.
* construction2 (m=2, s=2): block i contributes two local rows holding 1
  and alpha^j; global rows hold alpha^(3in-j) and alpha^(2(in+j)).

A generic builder takes caller-supplied global rows (used by the random
search); its local rows put alpha^(tj) at column in + j for parity t of
block i, which reduces to the two families' local parts at m = 1 and 2.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from .algebra import Algebra, Element, parse_algebra
from .errors import (
    AlgebraMismatchError,
    OrderTooSmallError,
    ParseError,
    ShapeMismatchError,
    ZeroGlobalEntryError,
)
from .linalg import Matrix

FAMILIES = ("construction1", "construction2", "generic")


@dataclass(frozen=True, slots=True)
class CodeSpec:
    """Code parameters: n disks, m coding disks, s extra coding sectors,
    r sector rows per stripe."""

    n: int
    m: int
    s: int
    r: int
    algebra: Algebra
    family: str

    def __post_init__(self):
        if not 0 < self.m < self.n:
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        if self.s < 0:
            raise ValueError(f"need s >= 0, got {self.s}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def parity_rows(self) -> int:
        return self.m * self.r + self.s

    @property
    def total_columns(self) -> int:
        return self.r * self.n

    def column_of(self, row: int, disk: int) -> int:
        return self.n * row + disk


@dataclass(frozen=True, slots=True)
class ParityCheckMatrix:
    spec: CodeSpec
    matrix: Matrix


def _check_order(r: int, n: int, algebra: Algebra) -> None:
    order = algebra.order_of_alpha()
    if r * n > order:
        raise OrderTooSmallError(
            f"r*n = {r * n} exceeds O(alpha) = {order} in {algebra}; "
            f"the construction needs r*n <= O(alpha)")


def build_h1(r: int, n: int, algebra: Algebra) -> ParityCheckMatrix:
    """The m=1, s=2 family: (r+2) × rn."""
    spec = CodeSpec(n=n, m=1, s=2, r=r, algebra=algebra, family="construction1")
    _check_order(r, n, algebra)
    rows = []
    for i in range(r):
        row = [0] * (r * n)
        row[i * n:(i + 1) * n] = [1] * n
        rows.append(row)
    rows.append([algebra.alpha_pow_bits(i * n + j) for i in range(r) for j in range(n)])
    rows.append([algebra.alpha_pow_bits(2 * i * n - j) for i in range(r) for j in range(n)])
    return ParityCheckMatrix(spec, Matrix(algebra, rows))


def build_h2(r: int, n: int, algebra: Algebra) -> ParityCheckMatrix:
    """The m=2, s=2 family: (2r+2) × rn."""
    spec = CodeSpec(n=n, m=2, s=2, r=r, algebra=algebra, family="construction2")
    _check_order(r, n, algebra)
    rows = []
    for i in range(r):
        ones = [0] * (r * n)
        ones[i * n:(i + 1) * n] = [1] * n
        rows.append(ones)
        ramp = [0] * (r * n)
        for j in range(n):
            ramp[i * n + j] = algebra.alpha_pow_bits(j)
        rows.append(ramp)
    rows.append([algebra.alpha_pow_bits(3 * i * n - j) for i in range(r) for j in range(n)])
    rows.append([algebra.alpha_pow_bits(2 * (i * n + j)) for i in range(r) for j in range(n)])
    return ParityCheckMatrix(spec, Matrix(algebra, rows))


def build_h_generic(n: int, m: int, s: int, r: int,
                    global_rows: Sequence[Sequence[Element]],
                    algebra: Algebra) -> ParityCheckMatrix:
    """Local structure as above for m parities per block, global rows
    supplied by the caller (every entry must be nonzero)."""
    spec = CodeSpec(n=n, m=m, s=s, r=r, algebra=algebra, family="generic")
    rn = r * n
    if len(global_rows) != s or any(len(row) != rn for row in global_rows):
        raise ShapeMismatchError(
            f"global rows must form an {s} x {rn} grid, got "
            f"{len(global_rows)} x {[len(row) for row in global_rows]}")
    rows = []
    for i in range(r):
        for t in range(m):
            row = [0] * rn
            for j in range(n):
                row[i * n + j] = algebra.alpha_pow_bits(t * j)
            rows.append(row)
    for gi, grow in enumerate(global_rows):
        bits_row = []
        for gj, e in enumerate(grow):
            if not isinstance(e, Element):
                raise TypeError(f"global entry ({gi}, {gj}) is not an Element")
            if e.algebra != algebra:
                raise AlgebraMismatchError(
                    f"global entry ({gi}, {gj}) belongs to {e.algebra}, expected {algebra}")
            if e.bits == 0:
                raise ZeroGlobalEntryError(f"global entry ({gi}, {gj}) is zero")
            bits_row.append(e.bits)
        rows.append(bits_row)
    return ParityCheckMatrix(spec, Matrix(algebra, rows))


def validate_structure(pcm: ParityCheckMatrix) -> bool:
    """True iff the local zero pattern holds and the last s rows are
    everywhere nonzero."""
    spec, h = pcm.spec, pcm.matrix
    mr = spec.m * spec.r
    if h.rows != mr + spec.s or h.cols != spec.total_columns:
        return False
    for i in range(mr):
        block = i // spec.m
        lo, hi = block * spec.n, (block + 1) * spec.n
        if any(v for c, v in enumerate(h.bits[i]) if not lo <= c < hi):
            return False
    for i in range(mr, mr + spec.s):
        if not all(h.bits[i]):
            return False
    return True


# -- text format -----------------------------------------------------------
#
# Matrix and stripe files share one layout: a magic line, the algebra
# descriptor, a params line, then one body line per row.

MAGIC = "SDCODE-H v1"
_SHAPE_KEYS = ("n", "m", "s", "r")


@contextmanager
def open_text(target, mode: str = "r") -> Iterator[TextIO]:
    """A path is opened (and closed afterwards); a file object is used as is."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with open(target, mode) as fh:
            yield fh


def write_text(sink, magic: str, spec: CodeSpec, rows: Iterable[Sequence[str]],
               with_family: bool) -> None:
    """Write the header for spec and one line of tokens per row."""
    params = f"params n={spec.n} m={spec.m} s={spec.s} r={spec.r}"
    if with_family:
        params += f" family={spec.family}"
    with open_text(sink, "w") as fh:
        fh.write(f"{magic}\n{spec.algebra.descriptor()}\n{params}\n")
        for toks in rows:
            fh.write(" ".join(toks) + "\n")


def tokens_with_columns(text: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of one line with 1-based columns."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", text)]


def parse_token(algebra: Algebra, tok: str, line: int, column: int) -> Element:
    try:
        return algebra.parse_element(tok)
    except ValueError as ex:
        raise ParseError(str(ex), line=line, column=column) from None


def row_tokens(text: str, lineno: int, expected: int) -> list[tuple[str, int]]:
    toks = tokens_with_columns(text)
    if len(toks) != expected:
        raise ParseError(f"expected {expected} tokens, found {len(toks)}",
                         line=lineno, column=1)
    return toks


def _parse_spec(text: str, algebra: Algebra, with_family: bool) -> CodeSpec:
    """The params line (line 3): n, m, s, r, and family if with_family
    (otherwise the spec is generic)."""
    toks = tokens_with_columns(text)
    if not toks or toks[0][0] != "params":
        raise ParseError("expected a 'params ...' line", line=3, column=1)
    keys = _SHAPE_KEYS + ("family",) if with_family else _SHAPE_KEYS
    kv = {}
    for tok, col in toks[1:]:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}", line=3, column=col)
        k, v = tok.split("=", 1)
        kv[k] = (v, col)
    if set(kv) != set(keys):
        raise ParseError(f"params line must set exactly {', '.join(keys)}",
                         line=3, column=1)
    shape = {}
    for k in _SHAPE_KEYS:
        v, col = kv[k]
        try:
            shape[k] = int(v)
        except ValueError:
            raise ParseError(f"{k} must be an integer, got {v!r}",
                             line=3, column=col) from None
    family, col = kv.get("family", ("generic", 1))
    if family not in FAMILIES:
        raise ParseError(f"unknown family {family!r}", line=3, column=col)
    try:
        return CodeSpec(**shape, algebra=algebra, family=family)
    except ValueError as ex:
        raise ParseError(str(ex), line=3, column=1) from None


def read_text(source, magic: str, with_family: bool) -> tuple[CodeSpec, list[str]]:
    """Parse the header of a matrix or stripe file.

    Returns the spec and the body lines (line 4 on), trailing blank
    lines dropped.
    """
    with open_text(source) as fh:
        lines = fh.read().split("\n")
    if lines[0].strip() != magic:
        raise ParseError(f"expected header {magic!r}", line=1, column=1)
    if len(lines) < 3:
        raise ParseError("truncated file", line=len(lines), column=1)
    try:
        algebra = parse_algebra(lines[1].strip())
    except ValueError as ex:
        raise ParseError(str(ex), line=2, column=1) from None
    spec = _parse_spec(lines[2], algebra, with_family)
    body = lines[3:]
    while body and not body[-1].strip():
        body.pop()
    return spec, body


def check_row_count(body: Sequence[str], expected: int, what: str) -> None:
    """Point at the first missing or the first extra body line."""
    if len(body) != expected:
        raise ParseError(f"expected {expected} {what}, found {len(body)}",
                         line=4 + min(len(body), expected), column=1)


def write_matrix(pcm: ParityCheckMatrix, sink) -> None:
    """Write the line-oriented text form (path or text file object)."""
    alg = pcm.spec.algebra
    rows = ([alg.element_token(alg.element(v)) for v in row] for row in pcm.matrix.bits)
    write_text(sink, MAGIC, pcm.spec, rows, with_family=True)


def read_matrix(source) -> ParityCheckMatrix:
    """Parse the text form back; raises ParseError with line/column."""
    spec, body = read_text(source, MAGIC, with_family=True)
    algebra = spec.algebra
    expected_ms = {"construction1": (1, 2), "construction2": (2, 2)}.get(spec.family)
    if expected_ms and (spec.m, spec.s) != expected_ms:
        raise ParseError(
            f"family {spec.family} fixes (m, s) = {expected_ms}, "
            f"got ({spec.m}, {spec.s})", line=3, column=1)
    if spec.family != "generic":
        try:
            _check_order(spec.r, spec.n, algebra)
        except OrderTooSmallError as ex:
            raise ParseError(str(ex), line=3, column=1) from None
    check_row_count(body, spec.parity_rows, "matrix rows")

    mr = spec.m * spec.r
    rows_bits = []
    for ri, text in enumerate(body):
        lineno = 4 + ri
        row = []
        for ci, (tok, col) in enumerate(row_tokens(text, lineno, spec.total_columns)):
            e = parse_token(algebra, tok, lineno, col)
            if ri < mr:
                block = ri // spec.m
                if e.bits and not block * spec.n <= ci < (block + 1) * spec.n:
                    raise ParseError(
                        f"nonzero entry outside block {block} in local row {ri}",
                        line=lineno, column=col)
            elif e.bits == 0:
                raise ParseError(f"zero entry in global row {ri}",
                                 line=lineno, column=col)
            row.append(e.bits)
        rows_bits.append(row)
    return ParityCheckMatrix(spec, Matrix(algebra, rows_bits))

"""Parity-check matrix construction, layout, shortening and the text format.

Codes live on an r × n stripe (r sector rows, n disks); the sector at
stripe row i of disk j maps to matrix column ni + j.  A parity-check
matrix has mr + s rows: the first mr are local (row i is nonzero only
inside the n columns of block ⌊i/m⌋) and the last s are global rows with
every entry nonzero.

Every row of the two fixed families comes from one exponent formula:
the row of (a, b) holds alpha^(a in + b j) at column in + j.  Parity t
of block i is the pair (0, t) cut to block i, and a family is a row of
``_FORMULAS``: its m and the (a_g, b_g) of its s global rows.

* construction1: m = 1, (a_g, b_g) = (1, 1), (2, -1).
* construction2: m = 2, (a_g, b_g) = (3, -1), (2, 2).

Both require rn <= O(alpha).  The generic builder takes caller-supplied
global rows (used by the random search) over the same local rows.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, TextIO

from .algebra import Algebra, Element, key_values, parse_algebra, read_int
from .errors import (
    AlgebraMismatchError,
    BadRowCountError,
    ItemError,
    OrderTooSmallError,
    ParseError,
    ShapeMismatchError,
    ZeroGlobalEntryError,
)
from .linalg import Matrix

# family -> (m, the (a_g, b_g) of each global row): the one owner of a family
_FORMULAS = {"construction1": (1, ((1, 1), (2, -1))),
             "construction2": (2, ((3, -1), (2, 2)))}
FAMILIES = (*_FORMULAS, "generic")


@dataclass(frozen=True, slots=True)
class CodeSpec:
    """Code parameters: n disks, m coding disks, s extra coding sectors,
    r sector rows per stripe.  The hash is computed once, as Matrix's is,
    so caches keyed on a spec cost O(1) per lookup."""

    n: int
    m: int
    s: int
    r: int
    algebra: Algebra
    family: str
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.m, self.s, self.r,
                                                    self.algebra, self.family)))
        return self._hash

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
    """A matrix of the spec's shape (mr + s by rn) over the spec's algebra."""

    spec: CodeSpec
    matrix: Matrix

    def __post_init__(self):
        spec, h = self.spec, self.matrix
        if (h.rows, h.cols) != (spec.parity_rows, spec.total_columns):
            raise ShapeMismatchError(f"{h.rows} x {h.cols} matrix for a code of "
                                     f"{spec.parity_rows} x {spec.total_columns}")
        if h.algebra != spec.algebra:
            raise AlgebraMismatchError(f"matrix over {h.algebra} for a code over {spec.algebra}")


def _check_order(r: int, n: int, algebra: Algebra) -> None:
    order = algebra.order_of_alpha()
    if r * n > order:
        raise OrderTooSmallError(
            f"r*n = {r * n} exceeds O(alpha) = {order} in {algebra}; "
            f"the construction needs r*n <= O(alpha)")


def _exponent_rows(algebra: Algebra, n: int, r: int,
                   pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Per (a, b) in pairs, the row holding alpha^(a in + b j) at column
    in + j, for i < r and j < n (alpha_pow_bits reduces mod O(alpha))."""
    return [list(map(algebra.alpha_pow_bits, (a * i * n + b * j for i in range(r)
                                              for j in range(n)))) for a, b in pairs]


@lru_cache(maxsize=64)
def _local_rows(spec: CodeSpec) -> tuple[tuple[int, ...], ...]:
    """The mr local rows: parity t of block i puts alpha^(tj) at column in + j."""
    n, rn = spec.n, spec.total_columns
    parts = _exponent_rows(spec.algebra, n, 1, ((0, t) for t in range(spec.m)))
    rows = []
    for i in range(spec.r):
        for part in parts:
            row = [0] * rn
            row[i * n:(i + 1) * n] = part
            rows.append(tuple(row))
    return tuple(rows)


def _family(family: str, r: int, n: int, algebra: Algebra) -> ParityCheckMatrix:
    """A fixed family from its _FORMULAS row: the local rows, then one
    global row per (a_g, b_g)."""
    m, pairs = _FORMULAS[family]
    spec = CodeSpec(n=n, m=m, s=len(pairs), r=r, algebra=algebra, family=family)
    _check_order(r, n, algebra)
    return _of_bits(spec, _exponent_rows(algebra, n, r, pairs))


def build_h1(r: int, n: int, algebra: Algebra) -> ParityCheckMatrix:
    """The m=1, s=2 family: (r+2) × rn."""
    return _family("construction1", r, n, algebra)


def build_h2(r: int, n: int, algebra: Algebra) -> ParityCheckMatrix:
    """The m=2, s=2 family: (2r+2) × rn."""
    return _family("construction2", r, n, algebra)


def build_h_generic(n: int, m: int, s: int, r: int,
                    global_rows: Sequence[Sequence[Element]],
                    algebra: Algebra) -> ParityCheckMatrix:
    """Local structure as above for m parities per block, global rows
    supplied by the caller (every entry must be nonzero)."""
    spec = CodeSpec(n=n, m=m, s=s, r=r, algebra=algebra, family="generic")
    rn = spec.total_columns
    if len(global_rows) != s or any(len(row) != rn for row in global_rows):
        raise ShapeMismatchError(
            f"global rows must form an {s} x {rn} grid, got "
            f"{len(global_rows)} x {[len(row) for row in global_rows]}")
    rows, check = [], algebra._check
    for gi, grow in enumerate(global_rows):
        try:
            row = list(map(check, grow))
        except (TypeError, AlgebraMismatchError) as ex:
            raise type(ex)(f"global row {gi}: {ex}") from None
        if not all(row):
            raise ZeroGlobalEntryError(f"global entry ({gi}, {row.index(0)}) is zero")
        rows.append(row)
    return _of_bits(spec, rows)


def _of_bits(spec: CodeSpec, global_rows: Sequence[Sequence[int]]) -> ParityCheckMatrix:
    """spec's local rows (cached per spec) over its s global rows, given as
    plain ints that the caller guarantees nonzero, in range and rn long:
    the one builder, with no per-entry check."""
    return ParityCheckMatrix(spec, Matrix._of_ints(spec.algebra, (*_local_rows(spec), *global_rows)))


def _layout_fault(spec: CodeSpec, i: int, row: Sequence[int]) -> tuple[int, str] | None:
    """The first column where row i breaks the layout, and why; None if it
    keeps it (local row i nonzero only inside block i // m, global rows
    nonzero everywhere)."""
    if i >= spec.m * spec.r:
        return None if all(row) else (row.index(0), f"zero entry in global row {i}")
    lo = i // spec.m * spec.n
    hi = lo + spec.n
    if any(row[:lo]) or any(row[hi:]):
        col = next(c for c, v in enumerate(row) if v and not lo <= c < hi)
        return col, f"nonzero entry outside block {i // spec.m} in local row {i}"
    return None


def validate_structure(pcm: ParityCheckMatrix) -> bool:
    """True iff every row keeps the layout (the shape is checked when pcm is built)."""
    return not any(_layout_fault(pcm.spec, i, row) for i, row in enumerate(pcm.matrix.bits))


def shorten(hm: ParityCheckMatrix, r_new: int) -> ParityCheckMatrix:
    """Drop stripe rows >= r_new: their columns vanish, their local parity
    rows vanish, and the global rows keep their leading r_new*n entries."""
    spec = hm.spec
    if not 1 <= r_new < spec.r:
        raise BadRowCountError(f"need 1 <= r_new < {spec.r}, got {r_new}")
    keep_cols = r_new * spec.n
    bits = hm.matrix.bits
    rows = [row[:keep_cols] for row in bits[:spec.m * r_new] + bits[spec.m * spec.r:]]
    new_spec = CodeSpec(n=spec.n, m=spec.m, s=spec.s, r=r_new,
                        algebra=spec.algebra, family=spec.family)
    return ParityCheckMatrix(new_spec, Matrix._of_ints(spec.algebra, rows))


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


def read_row(algebra: Algebra, text: str, toks: list[str], line: int, missing=None) -> list[int]:
    """The bits of one line's tokens (`missing` reads as 0); a bad token
    raises ParseError at its column, located only then."""
    read, row = algebra.read_token, []
    try:
        for tok in toks:
            row.append(0 if tok == missing else read(tok))
    except ValueError as ex:
        raise ParseError(str(ex), line, tokens_with_columns(text)[len(row)][1]) from None
    return row


def _parse_spec(text: str, algebra: Algebra, with_family: bool) -> CodeSpec:
    """The params line (line 3): n, m, s, r, and family if with_family
    (otherwise the spec is generic).  A fixed family must have its (m, s)
    and rn <= O(alpha)."""
    toks = tokens_with_columns(text)
    if not toks or toks[0][0] != "params":
        raise ParseError("expected a 'params ...' line", line=3, column=1)
    toks = toks[1:]
    try:
        kv = key_values([tok for tok, _ in toks],
                        _SHAPE_KEYS + ("family",) if with_family else _SHAPE_KEYS)
    except ItemError as ex:
        raise ParseError(str(ex), line=3,
                         column=1 if ex.index is None else toks[ex.index][1]) from None
    column = {tok.partition("=")[0]: col for tok, col in toks}
    shape = {}
    for k in _SHAPE_KEYS:
        try:
            shape[k] = read_int(kv[k])
        except ValueError:
            raise ParseError(f"{k} must be a decimal integer, got {kv[k]!r}",
                             line=3, column=column[k]) from None
    family = kv.get("family", "generic")
    if family not in FAMILIES:
        raise ParseError(f"unknown family {family!r}", line=3, column=column["family"])
    try:
        spec = CodeSpec(**shape, algebra=algebra, family=family)
        if family in _FORMULAS:
            m, pairs = _FORMULAS[family]
            if (spec.m, spec.s) != (m, len(pairs)):
                raise ParseError(f"family {family} fixes (m, s) = {(m, len(pairs))}, "
                                 f"got ({spec.m}, {spec.s})", line=3, column=1)
            _check_order(spec.r, spec.n, algebra)
    except (ValueError, OrderTooSmallError) as ex:
        raise ParseError(str(ex), line=3, column=1) from None
    return spec


def read_text(source, magic: str,
              with_family: bool) -> tuple[CodeSpec, list[tuple[str, list[str]]]]:
    """Parse a matrix file (with_family) or a stripe file down to its tokens.

    Returns the spec and, per body line (line 4 on), its text and tokens:
    parity_rows lines of total_columns tokens in a matrix, r lines of n
    tokens in a stripe.  Trailing blank lines are dropped.
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
    rows, width, what = ((spec.parity_rows, spec.total_columns, "matrix rows")
                         if with_family else (spec.r, spec.n, "stripe rows"))
    if len(body) != rows:
        raise ParseError(f"expected {rows} {what}, found {len(body)}",
                         line=4 + min(len(body), rows), column=1)
    toks = [text.split() for text in body]
    for lineno, row in enumerate(toks, start=4):
        if len(row) != width:
            raise ParseError(f"expected {width} tokens, found {len(row)}",
                             line=lineno, column=1)
    return spec, list(zip(body, toks))


def write_matrix(pcm: ParityCheckMatrix, sink) -> None:
    """Write the line-oriented text form (path or text file object)."""
    alg = pcm.spec.algebra
    rows = ([alg.token(v) for v in row] for row in pcm.matrix.bits)
    write_text(sink, MAGIC, pcm.spec, rows, with_family=True)


def read_matrix(source) -> ParityCheckMatrix:
    """Parse the text form back; raises ParseError with line/column."""
    spec, body = read_text(source, MAGIC, with_family=True)
    algebra = spec.algebra
    rows_bits = []
    for ri, (text, toks) in enumerate(body):
        row = read_row(algebra, text, toks, 4 + ri)
        fault = _layout_fault(spec, ri, row)
        if fault:
            raise ParseError(fault[1], line=4 + ri, column=tokens_with_columns(text)[fault[0]][1])
        rows_bits.append(row)
    return ParityCheckMatrix(spec, Matrix._of_ints(algebra, rows_bits))

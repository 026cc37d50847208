"""Hand-tabulated reference parity-check matrices.

Each table below was transcribed from an independently worked example and
is used to pin the matrix builders entry by entry.  Some source tables do
not show the complete matrix: trailing columns (and in one case a whole
row) fell off the printed grid.  Every fixture therefore carries an
explicit map of which built rows/columns it covers, and the uncovered
entries are skipped with the reason recorded in ``note``.

Tokens: ``0``, ``1``, ``a^k`` (k-th power of the generator alpha).

``solve_ab`` poses A·x = b to the one solve the library has, ``mul_sum``
is an entrywise sum of products by the field's scalar multiply, and
``Index`` is an integer-like value that is not an int.
"""
from dataclasses import dataclass

from sdcode.linalg import Matrix, identity, solve_bits


def solve_ab(a: Matrix, b) -> tuple:
    """solve_bits on A·x = b, as [A | I]·(x, b) = 0 solved at x's slots."""
    eye = identity(a.algebra, a.rows).bits
    return solve_bits(Matrix(a.algebra, [r + e for r, e in zip(a.bits, eye)]),
                      [0] * a.cols + list(b), range(a.cols))


def mul_sum(ops, xs, ys) -> list:
    """The entrywise sum of x·y over the pairs of vectors x, y of xs, ys,
    by ops.mul."""
    acc = [0] * len(xs[0])
    for x, y in zip(xs, ys):
        acc = [a ^ ops.mul(u, v) for a, u, v in zip(acc, x, y)]
    return acc


class Index:
    """An integer-like value that is not an int, as a numpy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@dataclass(frozen=True)
class ReferenceMatrix:
    name: str
    family: str          # "construction1" or "construction2"
    r: int
    n: int
    algebra: str         # descriptor understood by parse_algebra()
    rows: tuple[str, ...]  # printed rows, tokens separated by spaces
    row_map: tuple[int, ...]  # built row index for each printed row
    printed_cols: int    # leading columns covered by the table
    note: str


REF_M1S2_R3_N5_GF16 = ReferenceMatrix(
    name="m=1 family, r=3, n=5, GF(16)",
    family="construction1",
    r=3,
    n=5,
    algebra="field w=4 poly=0x13",
    rows=(
        "1 1 1 1 1 0 0 0 0 0 0 0 0 0 0",
        "0 0 0 0 0 1 1 1 1 1 0 0 0 0 0",
        "0 0 0 0 0 0 0 0 0 0 1 1 1 1 1",
        "1 a^1 a^2 a^3 a^4 a^5 a^6 a^7 a^8 a^9 a^10 a^11 a^12 a^13 a^14",
        "1 a^14 a^13 a^12 a^11 a^10 a^9 a^8 a^7 a^6 a^5 a^4 a^3 a^2 a^1",
    ),
    row_map=(0, 1, 2, 3, 4),
    printed_cols=15,
    note="complete table, all 5x15 entries covered",
)

REF_M1S2_R5_N3_GF16 = ReferenceMatrix(
    name="m=1 family, r=5, n=3, GF(16)",
    family="construction1",
    r=5,
    n=3,
    algebra="field w=4 poly=0x13",
    rows=(
        "1 1 1 0 0 0 0 0 0 0 0 0 0 0 0",
        "0 0 0 1 1 1 0 0 0 0 0 0 0 0 0",
        "0 0 0 0 0 0 1 1 1 0 0 0 0 0 0",
        "0 0 0 0 0 0 0 0 0 1 1 1 0 0 0",
        "0 0 0 0 0 0 0 0 0 0 0 0 1 1 1",
        "1 a^1 a^2 a^3 a^4 a^5 a^6 a^7 a^8 a^9 a^10 a^11 a^12 a^13 a^14",
        "1 a^14 a^13 a^6 a^5 a^4 a^12 a^11 a^10 a^3 a^2 a^1 a^9 a^8 a^7",
    ),
    row_map=(0, 1, 2, 3, 4, 5, 6),
    printed_cols=15,
    note="complete table, all 7x15 entries covered",
)

REF_M1S2_R4_N4_RING17 = ReferenceMatrix(
    name="m=1 family, r=4, n=4, ring p=17",
    family="construction1",
    r=4,
    n=4,
    algebra="ring p=17",
    rows=(
        "1 1 1 1 0 0 0 0 0 0 0 0 0 0 0",
        "0 0 0 0 1 1 1 1 0 0 0 0 0 0 0",
        "0 0 0 0 0 0 0 0 1 1 1 1 0 0 0",
        "0 0 0 0 0 0 0 0 0 0 0 0 1 1 1",
        "1 a^1 a^2 a^3 a^4 a^5 a^6 a^7 a^8 a^9 a^10 a^11 a^12 a^13 a^14",
        "1 a^16 a^15 a^14 a^8 a^7 a^6 a^5 a^16 a^15 a^14 a^13 a^7 a^6 a^5",
    ),
    row_map=(0, 1, 2, 3, 4, 5),
    printed_cols=15,
    note="source table truncated after 15 of the 16 columns; "
         "column 15 of every row not covered",
)

REF_M2S2_R3_N5_GF16 = ReferenceMatrix(
    name="m=2 family, r=3, n=5, GF(16)",
    family="construction2",
    r=3,
    n=5,
    algebra="field w=4 poly=0x13",
    rows=(
        "1 1 1 1 1 0 0 0 0 0 0 0 0 0",
        "1 a^1 a^2 a^3 a^4 0 0 0 0 0 0 0 0 0",
        "0 0 0 0 0 1 1 1 1 1 0 0 0 0",
        "0 0 0 0 0 1 a^1 a^2 a^3 a^4 0 0 0 0",
        "0 0 0 0 0 0 0 0 0 0 1 1 1 1",
        "0 0 0 0 0 0 0 0 0 0 1 a^1 a^2 a^3",
        "1 a^14 a^13 a^12 a^11 1 a^14 a^13 a^12 a^11 1 a^14 a^13 a^12",
        "1 a^2 a^4 a^6 a^8 a^10 a^12 a^14 a^1 a^3 a^5 a^7 a^9 a^11",
    ),
    row_map=(0, 1, 2, 3, 4, 5, 6, 7),
    printed_cols=14,
    note="source table truncated after 14 of the 15 columns; "
         "column 14 of every row not covered",
)

REF_M2S2_R5_N3_GF16 = ReferenceMatrix(
    name="m=2 family, r=5, n=3, GF(16)",
    family="construction2",
    r=5,
    n=3,
    algebra="field w=4 poly=0x13",
    rows=(
        "1 1 1 0 0 0 0 0 0 0 0 0 0 0",
        "1 a^1 a^2 0 0 0 0 0 0 0 0 0 0 0",
        "0 0 0 1 1 1 0 0 0 0 0 0 0 0",
        "0 0 0 1 a^1 a^2 0 0 0 0 0 0 0 0",
        "0 0 0 0 0 0 1 1 1 0 0 0 0 0",
        "0 0 0 0 0 0 1 a^1 a^2 0 0 0 0 0",
        "0 0 0 0 0 0 0 0 0 1 1 1 0 0",
        "0 0 0 0 0 0 0 0 0 1 a^1 a^2 0 0",
        "0 0 0 0 0 0 0 0 0 0 0 0 1 1",
        "1 a^14 a^13 a^9 a^8 a^7 a^3 a^2 a^1 a^12 a^11 a^10 a^6 a^5",
        "1 a^2 a^4 a^6 a^8 a^10 a^12 a^14 a^1 a^3 a^5 a^7 a^9 a^11",
    ),
    row_map=(0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11),
    printed_cols=14,
    note="source table truncated after 14 of the 15 columns and after the "
         "first local row of the last disk-block; built row 9 and column 14 "
         "not covered",
)

ALL_REFERENCE_MATRICES = (
    REF_M1S2_R3_N5_GF16,
    REF_M1S2_R5_N3_GF16,
    REF_M1S2_R4_N4_RING17,
    REF_M2S2_R3_N5_GF16,
    REF_M2S2_R5_N3_GF16,
)

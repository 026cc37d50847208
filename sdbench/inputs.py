"""Workload inputs and the set-up a command-line run pays.

Every input comes from the workload seed through independent streams
(one per purpose), so the same seed always gives the same matrices,
data, erasure sets and search seeds, and sdcode only ever receives the
generated values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Optional

import numpy as np

from sdcode import (
    ErasurePattern,
    ParityCheckMatrix,
    SearchConfig,
    build_h1,
    build_h2,
    build_h_generic,
    make_field,
    make_ring,
    read_matrix,
    write_matrix,
)
from sdcode.algebra import Algebra

# One stream per purpose keeps, e.g., the codec data independent of how
# many patterns the verify gate samples.
STREAM_GLOBAL_ROWS = 1
STREAM_SAMPLES = 2
STREAM_CODEC = 3
STREAM_SEARCH = 4
STREAM_MICRO = 5


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


@dataclass(frozen=True)
class Shape:
    """One code: family, (m, s, r, n), algebra tag, expected pattern count."""

    name: str
    family: str          # construction1 | construction2 | generic
    m: int
    s: int
    r: int
    n: int
    algebra: str         # gf<q> or ring<p>
    patterns: int        # C(n,m) * C((n-m)r, s), as stated up front

    @property
    def expect_sd(self) -> Optional[bool]:
        """The construction families are SD at these sizes; a generic
        code's verdict depends on its seeded global rows."""
        return None if self.family == "generic" else True


@dataclass(frozen=True)
class SearchShape:
    n: int
    m: int
    s: int
    r_max: int
    algebra: str


@dataclass(frozen=True)
class Sizes:
    verify_table: tuple[Shape, ...]
    verify_scalar: tuple[Shape, ...]
    codes: tuple[Shape, ...]
    sector_bytes: int            # sets L, the symbol-stripes per sector-stripe
    search: SearchShape
    search_chunk: int            # trials per run_search call
    sample_patterns: int         # decodable re-checks per SD shape
    generic_draws: int           # global-row draws of a generic shape, used in turn
    setup_repeats: int           # fresh set-up processes per run
    traced_codec_rounds: int
    traced_search_chunks: int
    jobs_pairs: int              # alternating jobs=1 / jobs=nproc pairs
    cli_shape: Shape
    micro_seconds: float         # target time of one micro-benchmark batch


FULL = Sizes(
    verify_table=(
        Shape("c2_r32_n16_gf65536", "construction2", 2, 2, 32, 16, "gf65536", 12_015_360),
        Shape("c1_r60_n16_gf65536", "construction1", 1, 2, 60, 16, "gf65536", 6_472_800),
        Shape("c2_r15_n16_gf256", "construction2", 2, 2, 15, 16, "gf256", 2_633_400),
        Shape("c2_r25_n5_ring127", "construction2", 2, 2, 25, 5, "ring127", 27_750),
    ),
    verify_scalar=(
        Shape("generic_m1_s3_r6_n6_gf65536", "generic", 1, 3, 6, 6, "gf65536", 24_360),
        Shape("c2_r20_n5_ring101", "construction2", 2, 2, 20, 5, "ring101", 17_700),
        Shape("c2_r8_n5_ring41", "construction2", 2, 2, 8, 5, "ring41", 2_760),
    ),
    codes=(
        Shape("gf256", "construction2", 2, 2, 20, 6, "gf256", 47_400),
        Shape("ring31", "construction2", 2, 2, 6, 5, "ring31", 1_530),
    ),
    sector_bytes=512,
    search=SearchShape(n=8, m=2, s=2, r_max=8, algebra="gf65536"),
    search_chunk=10,
    sample_patterns=8,
    generic_draws=16,
    setup_repeats=5,
    traced_codec_rounds=4,
    traced_search_chunks=10,
    jobs_pairs=3,
    cli_shape=Shape("c2_r51_n5_gf256", "construction2", 2, 2, 51, 5, "gf256", 116_280),
    micro_seconds=0.02,
)


def algebra_of(tag: str) -> Algebra:
    """gf<q> -> make_field(log2 q); ring<p> -> make_ring(p) with its factor
    fields built, since every ring workload goes through them."""
    if tag.startswith("gf"):
        return make_field(int(tag[2:]).bit_length() - 1)
    ring = make_ring(int(tag[4:]))
    ring.factor_ops
    return ring


def pattern_count(shape: Shape) -> int:
    return comb(shape.n, shape.m) * comb((shape.n - shape.m) * shape.r, shape.s)


def build(shape: Shape, seed: int, draw: int = 0) -> ParityCheckMatrix:
    """The shape's matrix; a generic shape's global rows are draw `draw`
    from the seed."""
    alg = algebra_of(shape.algebra)
    if shape.family == "construction1":
        return build_h1(shape.r, shape.n, alg)
    if shape.family == "construction2":
        return build_h2(shape.r, shape.n, alg)
    rng = rng_for(seed, STREAM_GLOBAL_ROWS, draw)
    q = 1 << alg.element_bits
    rows = [[alg.element(int(v)) for v in rng.integers(1, q, size=shape.r * shape.n)]
            for _ in range(shape.s)]
    return build_h_generic(shape.n, shape.m, shape.s, shape.r, rows, alg)


def round_trip(hm: ParityCheckMatrix, path: Path) -> ParityCheckMatrix:
    """Write the matrix file and read it back, as a CLI run does."""
    write_matrix(hm, str(path))
    back = read_matrix(str(path))
    if back.matrix != hm.matrix or back.spec != hm.spec:
        raise RuntimeError(f"{path.name}: read_matrix does not return what write_matrix wrote")
    return back


def workload_shapes(workload: str, sizes: Sizes) -> tuple[Shape, ...]:
    return {"verify-table": sizes.verify_table, "verify-scalar": sizes.verify_scalar,
            "codec": sizes.codes, "search": ()}[workload]


def setup(workload: str, seed: int, workdir: Path,
          sizes: Sizes) -> dict[str, list[ParityCheckMatrix]]:
    """Algebras plus every matrix of the workload through a file round
    trip: one per construction shape, sizes.generic_draws per generic
    shape.  The search workload only needs its field."""
    if workload == "search":
        algebra_of(sizes.search.algebra)
    workdir.mkdir(parents=True, exist_ok=True)
    mats = {}
    for sh in workload_shapes(workload, sizes):
        draws = sizes.generic_draws if sh.family == "generic" else 1
        mats[sh.name] = [round_trip(build(sh, seed, k), workdir / f"{sh.name}-{k}.txt")
                         for k in range(draws)]
    return mats


def sector_symbols(alg: Algebra, sizes: Sizes) -> int:
    """L: the w-bit symbols one sector of sizes.sector_bytes holds (512 at
    w=8, 136 at w=30); each is one symbol-stripe of the sector-stripe."""
    return max(1, sizes.sector_bytes * 8 // alg.element_bits)


def draw_pattern(spec, rng: np.random.Generator, with_sectors: bool = True) -> ErasurePattern:
    """m distinct disks, plus s distinct sectors on surviving disks."""
    disks = sorted(int(d) for d in rng.choice(spec.n, spec.m, replace=False))
    sectors: tuple = ()
    if with_sectors:
        alive = [(i, j) for i in range(spec.r) for j in range(spec.n) if j not in disks]
        picks = sorted(int(k) for k in rng.choice(len(alive), spec.s, replace=False))
        sectors = tuple(alive[k] for k in picks)
    return ErasurePattern(tuple(disks), sectors)


def search_config(seed: int, chunk: int, sizes: Sizes) -> SearchConfig:
    """Chunk c of the search workload: its own search seed, drawn from
    the workload seed."""
    sh = sizes.search
    chunk_seed = int(rng_for(seed, STREAM_SEARCH, chunk).integers(0, 2**31))
    return SearchConfig(n=sh.n, m=sh.m, s=sh.s, r_max=sh.r_max, trials=sizes.search_chunk,
                        seed=chunk_seed, algebra=algebra_of(sh.algebra))

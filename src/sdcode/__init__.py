"""Sector-disk erasure codes over GF(2^w) and binary polynomial rings.

Construct parity-check matrices that tolerate m whole-disk failures plus
s extra sector failures per stripe, verify that property exhaustively,
encode and decode stripes, shorten codes, and search for new ones.
"""

from .algebra import (
    DEFAULT_FIELD_POLY,
    Element,
    Field,
    MpFactorization,
    Ring,
    make_field,
    make_ring,
    mp_factorization,
    parse_algebra,
)
from .codec import (
    Stripe,
    decode,
    default_parity_pattern,
    encode,
    erase,
    read_stripe,
    write_stripe,
)
from .construct import (
    CodeSpec,
    ParityCheckMatrix,
    build_h1,
    build_h2,
    build_h_generic,
    read_matrix,
    shorten,
    validate_structure,
    write_matrix,
)
from .errors import SdCodeError
from .linalg import Matrix, determinant, is_invertible, rank, solve, submatrix
from .sdcheck import (
    ErasurePattern,
    SdReport,
    enumerate_patterns,
    erased_columns,
    is_pattern_decodable,
    is_sd,
    pattern_from_text,
    pattern_to_text,
    sd_depth,
)
from .search import SearchConfig, TrialRecord, extend_global_rows, run_search

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FIELD_POLY",
    "CodeSpec",
    "Element",
    "ErasurePattern",
    "Field",
    "Matrix",
    "MpFactorization",
    "ParityCheckMatrix",
    "Ring",
    "SdCodeError",
    "SdReport",
    "SearchConfig",
    "Stripe",
    "TrialRecord",
    "build_h1",
    "build_h2",
    "build_h_generic",
    "decode",
    "default_parity_pattern",
    "determinant",
    "encode",
    "enumerate_patterns",
    "erase",
    "erased_columns",
    "is_invertible",
    "is_pattern_decodable",
    "is_sd",
    "make_field",
    "make_ring",
    "mp_factorization",
    "parse_algebra",
    "pattern_from_text",
    "pattern_to_text",
    "rank",
    "read_matrix",
    "read_stripe",
    "run_search",
    "sd_depth",
    "shorten",
    "solve",
    "submatrix",
    "validate_structure",
    "write_matrix",
    "write_stripe",
    "extend_global_rows",
]

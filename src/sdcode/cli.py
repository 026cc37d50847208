"""Command-line surface: construct, verify, encode, decode, shorten, search.

Exit codes: 0 success (or SD), 2 definitive negative (not SD, stripe not
decodable, stripe inconsistent), 1 usage, parse, or I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .algebra import Algebra, key_values, make_field, make_ring, read_int
from .codec import decode, encode, read_stripe, write_stripe
from .construct import (
    build_h1,
    build_h2,
    read_matrix,
    read_row,
    shorten,
    write_matrix,
)
from .errors import (
    InconsistentSyndromeError,
    SdCodeError,
    UndecodablePatternError,
)
from .sdcheck import is_sd, pattern_to_text
from .search import SearchConfig, format_report, run_search, write_report


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this surface reserves 2 for
    definitive negatives, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_algebra_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--field", metavar="w=W[,poly=0xP]",
                   help="GF(2^w), optional hex modulus (default per width)")
    g.add_argument("--ring", metavar="p=P",
                   help="binary polynomials mod 1+x+...+x^(p-1), p an odd prime")


def _algebra_of(args) -> Algebra:
    if args.field is not None:
        kv = key_values(args.field.split(","), ("w",), ("poly",))
        return make_field(read_int(kv["w"]), read_int(kv["poly"], 16) if "poly" in kv else None)
    return make_ring(read_int(key_values(args.ring.split(","), ("p",))["p"]))


def _read_tokens(path: str, algebra: Algebra) -> list:
    with open(path) as fh:
        lines = fh.read().split("\n")
    return [algebra.element(v) for lineno, line in enumerate(lines, start=1)
            for v in read_row(algebra, line, line.split(), lineno)]


def _cmd_construct(args) -> int:
    algebra = _algebra_of(args)
    build = build_h1 if args.family == "construction1" else build_h2
    hm = build(args.r, args.n, algebra)
    spec = hm.spec
    write_matrix(hm, args.output)
    print(f"family={spec.family} n={spec.n} m={spec.m} s={spec.s} r={spec.r} "
          f"algebra={algebra.descriptor()} O(alpha)={algebra.order_of_alpha()}")
    print(f"wrote {args.output}")
    return 0


def _cmd_verify(args) -> int:
    hm = read_matrix(args.matrix)
    progress = None
    if args.progress:
        progress = lambda done, total: print(f"disk-set {done}/{total}", file=sys.stderr)
    report = is_sd(hm, jobs=args.jobs, progress=progress)
    if report.sd:
        print(f"patterns={report.patterns_checked} sd=yes")
        return 0
    print(f"patterns={report.patterns_checked} sd=no "
          f"witness={pattern_to_text(report.witness)}")
    return 2


def _cmd_encode(args) -> int:
    hm = read_matrix(args.matrix)
    data = _read_tokens(args.data, hm.spec.algebra)
    st = encode(hm, data)
    write_stripe(st, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_decode(args) -> int:
    hm = read_matrix(args.matrix)
    st = read_stripe(args.stripe)
    recovered = decode(hm, st)
    write_stripe(recovered, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_shorten(args) -> int:
    hm = read_matrix(args.matrix)
    reduced = shorten(hm, args.r2)
    write_matrix(reduced, args.output)
    print(f"r={hm.spec.r} -> r={args.r2}")
    print(f"wrote {args.output}")
    return 0


def _cmd_search(args) -> int:
    algebra = _algebra_of(args)
    cfg = SearchConfig(n=args.n, m=args.m, s=args.s, r_max=args.rmax,
                       trials=args.trials, seed=args.seed, algebra=algebra)
    records = run_search(cfg, jobs=args.jobs)
    if args.output:
        write_report(records, args.output)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(format_report(records))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sdcode",
                     description="Sector-disk erasure codes: construct parity-check "
                                 "matrices, verify the SD property, encode/decode "
                                 "stripes, shorten, and search for new codes.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("construct", help="build a parity-check matrix file")
    p.add_argument("--family", required=True,
                   choices=("construction1", "construction2"))
    p.add_argument("--r", type=int, required=True, help="sector rows per stripe")
    p.add_argument("--n", type=int, required=True, help="number of disks")
    _add_algebra_flags(p)
    p.add_argument("-o", dest="output", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="exhaustively test the SD property")
    p.add_argument("-H", dest="matrix", required=True, metavar="PATH")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads (result is independent of this)")
    p.add_argument("--progress", action="store_true",
                   help="report disk-set progress on stderr")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("encode", help="encode data tokens into a stripe file")
    p.add_argument("-H", dest="matrix", required=True, metavar="PATH")
    p.add_argument("--data", required=True, metavar="PATH",
                   help="whitespace-separated element tokens, one per data slot")
    p.add_argument("-o", dest="output", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="recover the missing symbols of a stripe")
    p.add_argument("-H", dest="matrix", required=True, metavar="PATH")
    p.add_argument("--stripe", required=True, metavar="PATH",
                   help="stripe file with ? marking missing symbols")
    p.add_argument("-o", dest="output", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("shorten", help="reduce a matrix to fewer stripe rows")
    p.add_argument("-H", dest="matrix", required=True, metavar="PATH")
    p.add_argument("--r2", type=int, required=True, help="target row count")
    p.add_argument("-o", dest="output", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_shorten)

    p = sub.add_parser("search", help="Monte Carlo search for SD codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_algebra_flags(p)
    p.add_argument("-o", dest="output", metavar="PATH",
                   help="report path (default: stdout)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UndecodablePatternError, InconsistentSyndromeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (SdCodeError, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())

"""Time, in a fresh process, the set-up a command-line run pays: import
sdcode, build the algebras, and produce the workload's matrices through
a write_matrix / read_matrix round trip.

numpy is imported before the clock starts: its import is not sdcode's
work, and its time depends on whether its shared libraries are still in
the page cache, which other tenants of a shared machine decide.

Prints the seconds the set-up took and the CPU the probe ended on (so
the reference timing after it can run there).

    python3 sdbench/setup_probe.py --workload NAME --seed N --workdir DIR
"""

import numpy  # noqa: F401
from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from sdbench import use_checkout_source  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    err = use_checkout_source()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from sdbench.inputs import FULL, setup
    from sdbench.reference import current_cpu

    setup(args.workload, args.seed, Path(args.workdir), FULL)
    print(f"{perf_counter() - T0:.6f} {current_cpu()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

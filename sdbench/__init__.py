"""Benchmark harness for sdcode; see README.md in this directory.

The harness always measures the sdcode sources of the checkout it sits
in (``<root>/src``), never an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-table", "verify-scalar", "codec", "search")


def use_checkout_source() -> str | None:
    """Put the checkout's src/ first on sys.path and import sdcode from it.

    Returns an error message when the sources are missing or sdcode
    resolves elsewhere, else None.
    """
    if not (SRC / "sdcode" / "__init__.py").is_file():
        return f"no sdcode sources under {SRC}"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sdcode

    if not Path(sdcode.__file__).resolve().is_relative_to(SRC):
        return f"sdcode imported from {sdcode.__file__}, not from {SRC}"
    return None

"""A fixed reference computation, timed beside the workload, that tells a
run how fast the machine is at that moment.

On a machine shared with other tenants the speed of one core moves by
±15–20% over seconds to minutes, and every part of a run moves with it.
Medians over passes remove short bursts but not those swings, so a run
times this reference after each piece of work (each set-up probe and
each pass), and scales the piece's time by the machine's slowdown around
it, the mean of the timings before and after it over NOMINAL_S:

    time at nominal speed = measured time / slowdown
    rate at nominal speed = work / total time at nominal speed

The reference does not call sdcode, and its work is identical in every
run: a pure-Python elimination over GF(2^8) on lists of small ints, and
carry-less products of 100-bit ints, the two kinds of work sdcode's
Python loops do.  Timed beside every workload, this pair tracked the
workloads' speed at least as well as a mix that added numpy table
lookups, the numpy-heavy verify-table included.

It runs in a sibling process started with a fresh interpreter, so
nothing sdcode leaves in the benchmark's process (a large heap, and so
costlier garbage collection, or evicted caches) changes its timing.  The
sibling moves to the CPU the benchmark's process last ran on before each
timing: on a shared machine one CPU can run much slower than another for
minutes, and the reference must see the CPU the work saw.  The
benchmark's process waits while the reference runs; Reference records
how much CPU that process used meanwhile, which stays near zero unless
sdcode left threads working that would slow the reference down.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter, process_time

# Median seconds of one reference() in the sibling process on the machine
# the benchmark was calibrated on (Intel Xeon, 2 CPUs, Python 3.11).
NOMINAL_S = 0.012

_EXP = [0] * 510
_LOG = [0] * 256
_v = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _v
    _LOG[_v] = _i
    _v <<= 1
    if _v & 0x100:
        _v ^= 0x11D
_RNG = Random(0x5DB)
_ROWS = [[_RNG.randrange(256) for _ in range(60)] for _ in range(30)]
_PAIRS = [(_RNG.getrandbits(100), _RNG.getrandbits(100)) for _ in range(300)]


def _eliminate() -> None:
    exp, log = _EXP, _LOG
    rows = [r[:] for r in _ROWS]
    pr = 0
    for c in range(60):
        hit = next((t for t in range(pr, len(rows)) if rows[t][c]), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        inv = exp[255 - log[rows[pr][c]]]
        rows[pr] = [exp[log[inv] + log[x]] if x else 0 for x in rows[pr]]
        prow = rows[pr]
        for t in range(len(rows)):
            f = rows[t][c]
            if t != pr and f:
                rows[t] = [a ^ (exp[log[f] + log[b]] if b else 0) for a, b in zip(rows[t], prow)]
        pr += 1
        if pr == len(rows):
            return


def _carryless() -> None:
    for a, b in _PAIRS:
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1


def reference() -> float:
    """Seconds one run of the reference computation takes now."""
    t0 = perf_counter()
    _eliminate()
    _carryless()
    return perf_counter() - t0


def current_cpu() -> int:
    """The CPU this process runs on, or -1 where /proc does not say."""
    try:
        stat = Path("/proc/self/stat").read_text()
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


def serve() -> None:
    """For each CPU number read from stdin, move to that CPU (any CPU for
    -1) and print the median seconds of three reference() runs; the
    median drops a run that lost the CPU or found its caches cold."""
    for _ in range(3):
        reference()
    cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        cpu = int(line)
        try:
            os.sched_setaffinity(0, {cpu} if cpu in cpus else cpus)
        except OSError:
            pass
        print(statistics.median(reference() for _ in range(3)), flush=True)


class Reference:
    """Reference timings in a sibling process, one per sample() call, each
    on the CPU the benchmark's process last ran on.  Use it as a context
    manager, so the sibling is stopped."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.overlap_s = 0.0   # CPU this process used while the reference ran
        try:
            self.sample()
        except BaseException:
            self.__exit__()
            raise

    def sample(self, cpu: int | None = None) -> None:
        """Time the reference on `cpu`, by default the CPU this process
        last ran on."""
        cpu0 = process_time()
        self._proc.stdin.write(f"{current_cpu() if cpu is None else cpu}\n")
        self._proc.stdin.flush()
        self.times.append(float(self._proc.stdout.readline()))
        self.overlap_s += process_time() - cpu0

    def slowdown(self, cpu: int | None = None) -> float:
        """Time the reference again (on `cpu`, see sample()); how much
        slower than nominal the machine ran around the work done since the
        previous timing (the mean of the two timings, over NOMINAL_S)."""
        self.sample(cpu)
        return (self.times[-2] + self.times[-1]) / 2 / NOMINAL_S

    def median_slowdown(self) -> float:
        return statistics.median(self.times) / NOMINAL_S

    def overlap_share(self) -> float:
        """CPU this process used while the reference ran, over the
        reference's time: near zero unless sdcode left threads working."""
        return self.overlap_s / sum(self.times)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    serve()

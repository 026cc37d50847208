"""Run one sdcode benchmark workload, or all of them.

    python3 sdbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 sdbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An untraced run (--trace 0)
reports the end-to-end metrics of BENCHMARK.json, a traced run
(--trace 1) its per-layer metrics; the lines before it name every
metric with its unit.  Each run also writes its full record (and, when
traced, its spans) under sdbench/out/.

Exit status: 0 when every output was correct, 1 when the correctness
gate tripped, 2 when the checkout holds no sdcode sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from sdbench import ROOT, SRC, WORKLOADS, use_checkout_source  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORK_UNITS = {"verify-table": "patterns", "verify-scalar": "patterns",
              "codec": "data bytes encoded and decoded", "search": "trials"}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(seed: int, nproc: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "sdcode").glob("*.py"))),
    }


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[float, int]:
    """Seconds of set-up in a fresh process, and the CPU it ended on (see
    setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed), "--workdir", str(workdir / "probe")],
        capture_output=True, text=True, timeout=150, check=True)
    seconds, cpu = proc.stdout.split()[-2:]
    return float(seconds), int(cpu)


def run_one(workload: str, seed: int, seconds: float, trace: int, sizes,
            workdir: Path) -> tuple[dict, dict]:
    """(the result object printed last, the full record)."""
    from sdbench.inputs import setup
    from sdbench.reference import Reference
    from sdbench.traced import run_traced
    from sdbench.workloads import Tally, make_workload, measure

    nproc = len(os.sched_getaffinity(0))
    tally = Tally()
    record: dict = {"workload": workload, "trace": trace, "seconds": seconds,
                    "run": run_record(seed, nproc)}
    if trace:
        metrics, spans = run_traced(workload, seed, seconds, sizes, workdir, nproc, tally)
        record["spans"] = spans
    else:
        with Reference() as ref:
            measured, setups = [], []
            for _ in range(sizes.setup_repeats):
                t, cpu = measure_setup(workload, seed, workdir)
                measured.append(t)
                setups.append(t / ref.slowdown(cpu))
            mats = setup(workload, seed, workdir, sizes)
            work = make_workload(workload, mats, seed, sizes, nproc, tally)
            rates = measure(work, seconds, ref)
        named = rates.nominal()
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "work_per_s": named.get("work_per_s", (math.nan, "1/s"))}
        record["named"] = {"setup_s": metrics["setup_s"],
                           **{k: v for k, v in named.items() if k != "work_per_s"}}
        record["extra"] = {
            "work_unit": (WORK_UNITS[workload], ""),
            "passes": (rates.passes, "count"),
            "slowdown.p50": (ref.median_slowdown(), "x"),
            "reference.overlap_cpu_share": (ref.overlap_share(), "share"),
            "setup_s.measured": (statistics.median(measured), "s"),
            **{f"{k}.measured": v for k, v in rates.measured().items()},
            **work.details(),
        }
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": tally.failed == 0 and finite,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record.update(result=result, ops=tally.ops, ops_failed=tally.failed,
                  failures=tally.reasons)
    return result, record


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")


def run_single(args) -> int:
    from sdbench.inputs import FULL

    workdir = BENCH / ".work" / str(os.getpid())
    try:
        result, record = run_one(args.workload, args.seed, args.seconds, args.trace, FULL,
                                 workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    print(f"run: workload={args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in record["run"].items()))
    print(f"ops={record['ops']} ops_failed={record['ops_failed']}")
    if args.trace:
        print_metrics("per-layer metrics:", {k: (m["value"], m["unit"])
                                             for k, m in result["metrics"].items()})
    else:
        print_metrics("end-to-end metrics:", record["named"])
        print_metrics("details:", record["extra"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each one's named metrics."""
    status, attempted, failed, merged = 0, 0, 0, {}
    for trace in range(args.trace + 1):
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            print(f"== {w} (trace {trace}): exit {proc.returncode}")
            print("\n".join(lines[:-1]))
            if proc.returncode in (0, 1) and lines:
                res = json.loads(lines[-1])
                attempted += res["attempted"]
                failed += res["failed"]
                merged.update({f"{w}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": status == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if status == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    err = use_checkout_source()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_single(args)


if __name__ == "__main__":
    raise SystemExit(main())

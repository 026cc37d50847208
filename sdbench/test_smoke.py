"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest sdbench/test_smoke.py -q

The tier-1 run does not collect it: pytest's testpaths name only tests/.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sdbench import ROOT, WORKLOADS, use_checkout_source

_err = use_checkout_source()
if _err:
    pytest.skip(_err, allow_module_level=True)

from sdcode import decode  # noqa: E402
from sdbench.inputs import FULL, SearchShape, Shape, sector_symbols, setup  # noqa: E402
from sdbench.run import run_one  # noqa: E402
from sdbench.workloads import (  # noqa: E402
    Codec, CodecTimes, Probe, Search, Tally, sector_stripe)

BENCH_JSON = json.loads((ROOT / "BENCHMARK.json").read_text())

# Same slots as FULL (four table-path shapes, three scalar-path shapes,
# two codes, r_max 8), so every per-layer metric name has a tiny twin.
TINY = dataclasses.replace(
    FULL,
    verify_table=(
        Shape("c2_r3_n5_gf65536", "construction2", 2, 2, 3, 5, "gf65536", 360),
        Shape("c1_r3_n5_gf16", "construction1", 1, 2, 3, 5, "gf16", 330),
        Shape("c2_r3_n5_gf256", "construction2", 2, 2, 3, 5, "gf256", 360),
        Shape("c2_r2_n5_ring31", "construction2", 2, 2, 2, 5, "ring31", 150),
    ),
    verify_scalar=(
        Shape("generic_m1_s3_r2_n4_gf256", "generic", 1, 3, 2, 4, "gf256", 80),
        Shape("c2_r3_n5_ring19", "construction2", 2, 2, 3, 5, "ring19", 360),
        Shape("c2_r2_n5_ring41", "construction2", 2, 2, 2, 5, "ring41", 150),
    ),
    codes=(
        Shape("gf256", "construction2", 2, 2, 3, 5, "gf256", 360),
        Shape("ring31", "construction2", 2, 2, 2, 5, "ring31", 150),
    ),
    sector_bytes=8,
    search=SearchShape(n=4, m=1, s=2, r_max=8, algebra="gf256"),
    search_chunk=2,
    sample_patterns=2,
    generic_draws=2,
    setup_repeats=1,
    traced_codec_rounds=1,
    traced_search_chunks=2,
    jobs_pairs=1,
    cli_shape=Shape("c2_r3_n5_gf256", "construction2", 2, 2, 3, 5, "gf256", 360),
    micro_seconds=0.001,
)

TINY_NAME = {full.name: tiny.name for full, tiny in zip(
    FULL.verify_table + FULL.verify_scalar, TINY.verify_table + TINY.verify_scalar)}


def tiny_twin(name: str) -> str:
    """A per-layer metric name with its ladder shape swapped for the tiny one."""
    head, _, last = name.rpartition(".")
    return f"{head}.{TINY_NAME.get(last, last)}"


def check_schema(result: dict, declared: list[dict], rename=lambda n: n) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {rename(m["name"]): m["unit"] for m in declared}
    assert set(result["metrics"]) == set(want)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert m["unit"] == want[name]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result, record = run_one(workload, 3, 0.05, 0, TINY, tmp_path)
    check_schema(result, BENCH_JSON["end_to_end"])
    assert all(v > 0 for v, _ in record["named"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    result, record = run_one(workload, 3, 0.05, 1, TINY, tmp_path)
    check_schema(result, BENCH_JSON["per_layer"], tiny_twin)
    assert record["spans"]["suite"] and record["spans"]["overhead"]


def test_gate_trips_on_a_wrong_expected_count(tmp_path):
    wrong = dataclasses.replace(TINY.verify_table[2], patterns=TINY.verify_table[2].patterns + 1)
    sizes = dataclasses.replace(TINY, verify_table=TINY.verify_table[:2] + (wrong,)
                                + TINY.verify_table[3:])
    result, record = run_one("verify-table", 3, 0.05, 0, sizes, tmp_path)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("patterns_checked" in r for r in record["failures"])


def test_gate_trips_on_a_wrong_decode(tmp_path):
    code = TINY.codes[0]
    hm = setup("codec", 3, tmp_path, TINY)[code.name][0]
    probe = Probe()

    def corrupt(hm, st):
        out = decode(hm, st)
        out.symbols[0][0] = out.symbols[0][0] + hm.spec.algebra.one
        return out

    probe.decode = corrupt
    tally = Tally()
    sector_stripe(hm, 3, (0, 0, 1), TINY, tally, CodecTimes(), probe)
    length = sector_symbols(hm.spec.algebra, TINY)
    assert length == 8
    assert tally.ops == 2 * length
    assert tally.failed == length


def test_a_pass_whose_decodes_all_fail_has_no_decode_rate(tmp_path):
    mats = setup("codec", 3, tmp_path, TINY)
    probe = Probe()

    def broken(hm, st):
        raise RuntimeError("decode failed")

    probe.decode = broken
    tally = Tally()
    done = Codec(TINY.codes, mats, 3, TINY, tally).run_pass(0, probe)
    assert set(done) == {"encode_MBps.gf256", "work_per_s"}
    assert tally.failed == sector_symbols(mats["gf256"][0].spec.algebra, TINY)


def test_search_repeats_chunk_0_only_when_it_ran():
    tally = Tally()
    work = Search(3, TINY, tally)
    probe = Probe()
    work.run_pass(1, probe)
    work.finish(probe)
    assert 0 not in work.records
    assert tally.failed == 0
    work.run_pass(0, probe)
    work.finish(probe)
    assert tally.ops == 3 * TINY.search_chunk and tally.failed == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "sdbench", tmp_path / "sdbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "sdbench/run.py", "--workload", "codec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_names_match_the_harness():
    assert BENCH_JSON["command"] == ["python3", "sdbench/run.py"]
    assert BENCH_JSON["paths"] == ["sdbench"]
    assert [w["name"] for w in BENCH_JSON["workloads"]] == list(WORKLOADS)
    assert Path(ROOT / "sdbench" / "run.py").is_file()

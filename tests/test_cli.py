"""End-to-end command-line behavior, including exit codes."""
import random

import pytest

from sdcode import (
    ErasurePattern,
    build_h1,
    encode,
    erase,
    make_field,
    read_matrix,
    read_stripe,
    write_matrix,
    write_stripe,
)
from sdcode.cli import main
from sdcode.codec import data_columns


def run(*argv):
    return main(list(argv))


def make_matrix_file(tmp_path, name="h.txt"):
    path = tmp_path / name
    assert run("construct", "--family", "construction1", "--r", "3", "--n", "5",
               "--field", "w=4", "-o", str(path)) == 0
    return path


# ------------------------------------------------------------- construct

def test_construct_writes_matrix_and_summary(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    out = capsys.readouterr().out
    assert "family=construction1 n=5 m=1 s=2 r=3" in out
    assert "algebra=field w=4 poly=0x13" in out
    assert "O(alpha)=15" in out
    assert f"wrote {path}" in out
    hm = read_matrix(path)
    assert hm.matrix == build_h1(3, 5, make_field(4)).matrix


def test_construct_second_family_and_ring(tmp_path, capsys):
    p2 = tmp_path / "h2.txt"
    assert run("construct", "--family", "construction2", "--r", "5", "--n", "3",
               "--field", "w=4,poly=0x13", "-o", str(p2)) == 0
    pr = tmp_path / "hr.txt"
    assert run("construct", "--family", "construction1", "--r", "4", "--n", "4",
               "--ring", "p=17", "-o", str(pr)) == 0
    out = capsys.readouterr().out
    assert "family=construction2 n=3 m=2 s=2 r=5" in out
    assert "algebra=ring p=17 O(alpha)=17" in out


def test_construct_order_violation_exits_1(tmp_path, capsys):
    assert run("construct", "--family", "construction1", "--r", "4", "--n", "4",
               "--field", "w=4", "-o", str(tmp_path / "x.txt")) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "16" in err and "15" in err


def test_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        run("construct", "--family", "construction1", "--r", "3", "--n", "5",
            "--field", "w=4")  # missing -o
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        run("construct", "--family", "bogus", "--r", "3", "--n", "5",
            "--field", "w=4", "-o", str(tmp_path / "x"))
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        run("nonsense")
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        run("construct", "--family", "construction1", "--r", "3", "--n", "5",
            "--field", "w=4", "--ring", "p=17", "-o", str(tmp_path / "x"))
    assert ei.value.code == 1  # mutually exclusive algebra flags
    capsys.readouterr()


def test_bad_algebra_value_exits_1(tmp_path, capsys):
    assert run("construct", "--family", "construction1", "--r", "3", "--n", "5",
               "--field", "w=four", "-o", str(tmp_path / "x")) == 1
    assert run("construct", "--family", "construction1", "--r", "3", "--n", "5",
               "--ring", "p=15", "-o", str(tmp_path / "x")) == 1
    assert run("construct", "--family", "construction1", "--r", "3", "--n", "5",
               "--ring", "q=17", "-o", str(tmp_path / "x")) == 1
    capsys.readouterr()
    for flag, value in (("--field", "w=4,bogus"), ("--ring", "p=17,bogus")):
        assert run("construct", "--family", "construction1", "--r", "3", "--n", "5",
                   flag, value, "-o", str(tmp_path / "x")) == 1
        assert "'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ------------------------------------------------------------- verify

def test_verify_sd_exits_0(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    capsys.readouterr()
    assert run("verify", "-H", str(path)) == 0
    out = capsys.readouterr().out
    assert out.strip() == "patterns=330 sd=yes"


def test_verify_not_sd_exits_2_with_witness(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    text = path.read_text().splitlines()
    toks = text[6].split()  # first global row (after 3 header + 3 local lines)
    toks[0] = toks[1]       # duplicate an entry: breaks the SD property
    text[6] = " ".join(toks)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(text) + "\n")
    capsys.readouterr()
    assert run("verify", "-H", str(bad)) == 2
    out = capsys.readouterr().out
    assert "sd=no" in out and "witness=d=" in out and "patterns=330" in out


def test_verify_jobs_do_not_change_output(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    capsys.readouterr()
    outs = []
    for jobs in ("1", "2", "4"):
        assert run("verify", "-H", str(path), "--jobs", jobs) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_verify_progress_goes_to_stderr(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    capsys.readouterr()
    assert run("verify", "-H", str(path), "--progress", "--jobs", "1") == 0
    captured = capsys.readouterr()
    assert "disk-set 5/5" in captured.err
    assert "disk-set" not in captured.out


def test_verify_missing_file_exits_1(tmp_path, capsys):
    assert run("verify", "-H", str(tmp_path / "absent.txt")) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_corrupt_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "garbage.txt"
    bad.write_text("not a matrix\n")
    assert run("verify", "-H", str(bad)) == 1
    assert "line 1" in capsys.readouterr().err


# ------------------------------------------------------- encode / decode

def test_encode_decode_round_trip(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    data = tmp_path / "data.txt"
    rng = random.Random(77)
    alg = make_field(4)
    tokens = [alg.element_token(alg.element(rng.getrandbits(4))) for _ in range(10)]
    data.write_text(" ".join(tokens) + "\n")
    full = tmp_path / "full.txt"
    assert run("encode", "-H", str(path), "--data", str(data), "-o", str(full)) == 0

    # damage the stripe, then decode it back
    st = read_stripe(full)
    damaged_path = tmp_path / "damaged.txt"
    write_stripe(erase(st, ErasurePattern((1,), ((0, 0), (2, 3)))), damaged_path)
    recovered = tmp_path / "recovered.txt"
    assert run("decode", "-H", str(path), "--stripe", str(damaged_path),
               "-o", str(recovered)) == 0
    assert read_stripe(recovered).vec_bits() == st.vec_bits()
    assert recovered.read_text() == full.read_text()
    capsys.readouterr()


def test_encode_wrong_symbol_count_exits_1(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    data = tmp_path / "data.txt"
    data.write_text("1 1 1\n")
    assert run("encode", "-H", str(path), "--data", str(data),
               "-o", str(tmp_path / "out.txt")) == 1
    assert "10" in capsys.readouterr().err


def test_encode_bad_token_exits_1(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    data = tmp_path / "data.txt"
    data.write_text("1 1 1 1 zebra 1 1 1 1 1\n")
    assert run("encode", "-H", str(path), "--data", str(data),
               "-o", str(tmp_path / "out.txt")) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column 9" in err


def test_decode_undecodable_exits_2(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    alg = make_field(4)
    hm = read_matrix(path)
    st = encode(hm, [alg.element(i % 16) for i in range(10)])
    damaged = erase(st, ErasurePattern((0,), ((0, 1), (1, 1), (2, 1))))
    spath = tmp_path / "damaged.txt"
    write_stripe(damaged, spath)
    assert run("decode", "-H", str(path), "--stripe", str(spath),
               "-o", str(tmp_path / "out.txt")) == 2
    assert "error:" in capsys.readouterr().err


def test_decode_inconsistent_exits_2(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    alg = make_field(4)
    hm = read_matrix(path)
    st = encode(hm, [alg.element((i * 3) % 16) for i in range(10)])
    st.symbols[0][0] = alg.add(st.symbols[0][0], alg.one)
    spath = tmp_path / "tampered.txt"
    write_stripe(st, spath)
    assert run("decode", "-H", str(path), "--stripe", str(spath),
               "-o", str(tmp_path / "out.txt")) == 2
    capsys.readouterr()


def test_decode_mismatched_stripe_exits_1(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    other = tmp_path / "other.txt"
    assert run("construct", "--family", "construction1", "--r", "5", "--n", "3",
               "--field", "w=4", "-o", str(other)) == 0
    alg = make_field(4)
    st = encode(read_matrix(other), [alg.element(1)] * 8)
    spath = tmp_path / "stripe.txt"
    write_stripe(st, spath)
    assert run("decode", "-H", str(path), "--stripe", str(spath),
               "-o", str(tmp_path / "out.txt")) == 1
    capsys.readouterr()


# ------------------------------------------------------------- shorten

def test_shorten_produces_verifiable_matrix(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    out = tmp_path / "short.txt"
    assert run("shorten", "-H", str(path), "--r2", "2", "-o", str(out)) == 0
    text = capsys.readouterr().out
    assert "r=3 -> r=2" in text
    short = read_matrix(out)
    assert short.spec.r == 2
    assert short.matrix == build_h1(2, 5, make_field(4)).matrix
    assert run("verify", "-H", str(out)) == 0
    capsys.readouterr()


def test_shorten_bad_target_exits_1(tmp_path, capsys):
    path = make_matrix_file(tmp_path)
    assert run("shorten", "-H", str(path), "--r2", "3",
               "-o", str(tmp_path / "x.txt")) == 1
    assert run("shorten", "-H", str(path), "--r2", "0",
               "-o", str(tmp_path / "x.txt")) == 1
    capsys.readouterr()


# ------------------------------------------------------------- search

def test_search_writes_report(tmp_path, capsys):
    out = tmp_path / "report.tsv"
    assert run("search", "--n", "4", "--m", "1", "--s", "2", "--rmax", "3",
               "--trials", "4", "--seed", "11", "--field", "w=4",
               "-o", str(out)) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for t, line in enumerate(lines):
        fields = line.split("\t")
        assert len(fields) == 5
        assert fields[0] == str(t)


def test_search_stdout_and_jobs_reproducibility(tmp_path, capsys):
    argv = ("search", "--n", "4", "--m", "1", "--s", "2", "--rmax", "3",
            "--trials", "4", "--seed", "11", "--field", "w=4")
    assert run(*argv, "--jobs", "1") == 0
    first = capsys.readouterr().out
    assert run(*argv, "--jobs", "4") == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(first.splitlines()) == 4


def test_search_depth_beyond_order_exits_1(capsys):
    assert run("search", "--n", "4", "--m", "1", "--s", "2", "--rmax", "4",
               "--trials", "1", "--seed", "0", "--field", "w=4") == 1
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_matches_console_script():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sdcode

    # run the package under test, wherever pytest found it
    src = str(Path(sdcode.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sdcode", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "construct" in proc.stdout and "search" in proc.stdout

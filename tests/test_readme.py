"""The README's file-format samples and library example match the code."""
import io
import re
from pathlib import Path

import pytest

from sdcode import (
    ErasurePattern,
    build_h1,
    encode,
    erase,
    make_field,
    write_matrix,
    write_stripe,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _block_after(heading: str) -> str:
    """The first fenced block after the line that starts with heading."""
    text = README.read_text()
    start = text.index("\n" + heading) + 1
    m = re.compile(r"```[a-z]*\n(.*?)```", re.S).search(text, start)
    return m.group(1)


@pytest.fixture(scope="module")
def quick_start():
    """h.txt and stripe.txt of the CLI quick start, with the stripe's
    disk 1 and sectors 0:0 and 2:3 erased as in the stripe sample."""
    gf16 = make_field(4)
    hm = build_h1(3, 5, gf16)
    data = [gf16.parse_element(t) for t in "1 a^3 x:b 0 1 a^14 a^7 0 x:5 1".split()]
    damaged = erase(encode(hm, data), ErasurePattern((1,), ((0, 0), (2, 3))))
    return hm, damaged


def test_matrix_file_sample_is_what_write_matrix_emits(quick_start):
    buf = io.StringIO()
    write_matrix(quick_start[0], buf)
    assert _block_after("Matrix file") == buf.getvalue()


def test_stripe_file_sample_is_what_write_stripe_emits(quick_start):
    buf = io.StringIO()
    write_stripe(quick_start[1], buf)
    assert _block_after("Stripe file") == buf.getvalue()


def test_layout_block_names_every_module():
    layout = _block_after("## Layout")
    modules = {p.name for p in (README.parent / "src" / "sdcode").glob("*.py")}
    named = set(re.findall(r"^  (\S+\.py)\s", layout, re.M))
    assert modules <= named, sorted(modules - named)


def test_library_use_block_runs(capsys):
    exec(compile(_block_after("## Library use"), str(README), "exec"), {})
    assert capsys.readouterr().out == \
        "SdReport(sd=True, witness=None, patterns_checked=330)\n"

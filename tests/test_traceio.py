"""Trace file round trips and format validation."""

import numpy as np
import pytest

from fgn_toolkit import BMode, HurstParam, Trace, TraceProvenance
from fgn_toolkit.traceio import read_trace, write_trace


def test_text_round_trip_is_exact(tmp_path, rng):
    values = np.concatenate([rng.standard_normal(100) * 1e-8,
                             rng.standard_normal(100) * 1e12,
                             [1 / 3, np.pi, -0.0]])
    path = tmp_path / "t.txt"
    write_trace(str(path), Trace(values), "text")
    back = read_trace(str(path), "text")
    assert np.array_equal(back.values, values)


def test_text_header_and_provenance(tmp_path):
    prov = TraceProvenance(h=HurstParam(0.8), seed=42, mode=BMode.truncated(3))
    path = tmp_path / "t.txt"
    write_trace(str(path), Trace(np.array([1.0, 2.0]), prov), "text")
    lines = path.read_text().splitlines()
    assert lines[0] == "# fgn-toolkit v1"
    assert any(line.startswith("# h=0.8") for line in lines)
    assert "# seed=42" in lines
    assert "# mode=k:3" in lines
    assert read_trace(str(path)).n == 2


def test_text_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# a comment\n\n1.5\n# another\n-2.5\n")
    back = read_trace(str(path), "text")
    assert np.array_equal(back.values, np.array([1.5, -2.5]))


def test_text_ignores_comment_after_a_value(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1.5  # note\n-2.5#\n")
    back = read_trace(str(path), "text")
    assert np.array_equal(back.values, np.array([1.5, -2.5]))


@pytest.mark.filterwarnings("error")
def test_text_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# only comments\n")
    with pytest.raises(ValueError):
        read_trace(str(path), "text")


@pytest.mark.parametrize("text", ["1.5 2.5\n", "1.5\n2.5 3.5\n"])
def test_text_rejects_two_values_on_a_line(tmp_path, text):
    path = tmp_path / "t.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_trace(str(path), "text")


def test_raw_round_trip_is_exact(tmp_path, rng):
    values = rng.standard_normal(1000)
    path = tmp_path / "t.bin"
    write_trace(str(path), Trace(values), "rawf64")
    back = read_trace(str(path), "rawf64")
    assert np.array_equal(back.values, values)
    assert path.stat().st_size == 8000


def test_raw_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 12)
    with pytest.raises(ValueError):
        read_trace(str(path), "rawf64")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_trace(str(tmp_path / "x"), Trace(np.array([1.0])), "csv")

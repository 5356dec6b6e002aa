"""Trace file round trips and format validation."""

import tracemalloc

import numpy as np
import pytest

from fgn_toolkit import BMode, HurstParam, Trace, TraceProvenance
from fgn_toolkit.traceio import FORMATS, _CHUNK_LINES, _write_lines, read_trace, write_trace


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
    assert path.read_bytes() == values.astype("<f8").tobytes()  # little-endian binary64


def test_raw_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.bin"
    for payload in (b"\x00" * 12, b""):
        path.write_bytes(payload)
        with pytest.raises(ValueError):
            read_trace(str(path), "rawf64")


@pytest.mark.parametrize("fmt", FORMATS)
def test_strided_trace_round_trip_is_exact(tmp_path, rng, fmt):
    # a trace's values may be a non-contiguous view of the caller's array
    x = rng.standard_normal(2001)
    path = tmp_path / "t"
    write_trace(str(path), Trace(x[::2]), fmt)
    assert np.array_equal(read_trace(str(path), fmt).values, x[::2])


def _traced_peak(call):
    """tracemalloc's peak over ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_raw_write_makes_no_trace_sized_copy(tmp_path, rng):
    t = Trace(rng.standard_normal(2**16))
    peak = _traced_peak(lambda: write_trace(str(tmp_path / "t.bin"), t, "rawf64"))
    assert peak < 0.25 * t.values.nbytes


def test_raw_read_makes_one_trace_sized_array(tmp_path, rng):
    t = Trace(rng.standard_normal(2**16))
    path = str(tmp_path / "t.bin")
    write_trace(path, t, "rawf64")
    peak = _traced_peak(lambda: read_trace(path, "rawf64"))
    assert peak < 1.25 * t.values.nbytes


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_trace(str(tmp_path / "x"), Trace(np.array([1.0])), "csv")


def test_text_bytes_match_per_value_formatting(tmp_path):
    # the chunked writer must give the bytes of one f"{v:.17g}" line per value,
    # across chunk boundaries and for signed zero, subnormals and integers
    base = [-0.0, 5e-324, 1e300, 0.1, 3.0, -7.0, 2.0**60]
    values = np.array(base * (_CHUNK_LINES // len(base) + 2))
    path = tmp_path / "t.txt"
    write_trace(str(path), Trace(values), "text")
    want = "# fgn-toolkit v1\n" + "".join(f"{v:.17g}\n" for v in values)
    assert path.read_bytes() == want.encode()


def test_line_writer_formats_rows_and_integers(tmp_path):
    path = tmp_path / "rows.csv"
    rows = np.array([[1.0, -0.0], [2.5e-300, 1 / 3]])
    _write_lines(str(path), ["a,b"], rows, "{:.10g},{:.10g}")
    assert path.read_text() == "a,b\n" + "".join(f"{x:.10g},{y:.10g}\n" for x, y in rows)
    counts = np.array([0, 7, 2**62], dtype=np.int64)
    _write_lines(str(path), [], counts, "{}")
    assert path.read_text() == "".join(f"{c}\n" for c in counts)

"""Trace file formats used by the command line tools.

Text traces are UTF-8 with LF line endings, one decimal value per line
(17 significant digits, '.' radix), with '#' comments.  On output a
'# fgn-toolkit v1' header plus '# h=', '# seed=' and '# mode=' provenance
comments are written when known.  On input a '#' starts a comment anywhere
on a line, so '1.5  # note' reads as 1.5, and blank lines are skipped.  A
non-finite value ('nan', 'inf') is rejected with ``ValueError``.

Raw traces are little-endian IEEE-754 binary64 values with no header.
"""

from __future__ import annotations

import sys
import warnings
from contextlib import nullcontext
from itertools import starmap

import numpy as np

from .synth import Trace

__all__ = [
    "FORMATS",
    "write_trace",
    "read_trace",
]

_HEADER = "# fgn-toolkit v1"

_CHUNK_LINES = 65536  # lines formatted and written at a time


def _write_lines(path: str | None, head: list[str], values: np.ndarray, fmt: str) -> None:
    """The ``head`` lines, then ``fmt.format`` of each value (1-d) or row (2-d).

    Writes to ``path``, or to stdout when it is empty or None, with LF line
    ends.  Lines are formatted and written one joined string per chunk, so
    memory stays bounded by one chunk's text.
    """
    out = open(path, "w", encoding="utf-8", newline="\n") if path else nullcontext(sys.stdout)
    with out as fh:
        fh.write("".join(line + "\n" for line in head))
        for i in range(0, len(values), _CHUNK_LINES):
            chunk = values[i : i + _CHUNK_LINES].tolist()
            lines = map(fmt.format, chunk) if values.ndim == 1 else starmap(fmt.format, chunk)
            fh.write("\n".join(lines) + "\n")


def _write_text(path: str, t: Trace) -> None:
    lines = [_HEADER]
    p = t.provenance
    if p is not None:
        if p.h is not None:
            lines.append(f"# h={p.h.h:.17g}")
        if p.seed is not None:
            lines.append(f"# seed={p.seed}")
        if p.mode is not None:
            lines.append(f"# mode={p.mode}")
    _write_lines(path, lines, t.values, "{:.17g}")


def _read_text(path: str) -> Trace:
    with warnings.catch_warnings():
        # an empty file is reported below as a ValueError, like every bad trace
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        values = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8")
    if values.shape[0] == 0:
        raise ValueError(f"no data lines in {path}")
    if values.shape[1] != 1:
        raise ValueError(f"expected one value per line in {path}, got {values.shape[1]}")
    return Trace(values[:, 0])


def _write_raw(path: str, t: Trace) -> None:
    t.values.astype("<f8", copy=False).tofile(path)


def _read_raw(path: str) -> Trace:
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) == 0 or len(payload) % 8 != 0:
        raise ValueError(f"raw trace {path} must be a nonempty multiple of 8 bytes")
    return Trace(np.frombuffer(payload, "<f8"))  # read-only, as a trace's values are


# each format's writer and reader
_CODECS = {"text": (_write_text, _read_text), "rawf64": (_write_raw, _read_raw)}
FORMATS = tuple(_CODECS)


def _codec(fmt: str) -> tuple:
    try:
        return _CODECS[fmt]
    except (KeyError, TypeError):  # TypeError: an unhashable fmt
        raise ValueError(f"unknown trace format {fmt!r}") from None


def write_trace(path: str, t: Trace, fmt: str = "text") -> None:
    _codec(fmt)[0](path, t)


def read_trace(path: str, fmt: str = "text") -> Trace:
    return _codec(fmt)[1](path)

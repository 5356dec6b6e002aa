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

import warnings

import numpy as np

from .synth import Trace

__all__ = [
    "FORMATS",
    "write_trace",
    "read_trace",
]

FORMATS = ("text", "rawf64")

_HEADER = "# fgn-toolkit v1"


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
    lines.extend(f"{v:.17g}" for v in t.values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    with open(path, "wb") as fh:
        fh.write(t.values.astype("<f8").tobytes())


def _read_raw(path: str) -> Trace:
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) == 0 or len(payload) % 8 != 0:
        raise ValueError(f"raw trace {path} must be a nonempty multiple of 8 bytes")
    return Trace(np.frombuffer(payload, dtype="<f8").copy())


def write_trace(path: str, t: Trace, fmt: str = "text") -> None:
    if fmt == "text":
        _write_text(path, t)
    elif fmt == "rawf64":
        _write_raw(path, t)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


def read_trace(path: str, fmt: str = "text") -> Trace:
    if fmt == "text":
        return _read_text(path)
    if fmt == "rawf64":
        return _read_raw(path)
    raise ValueError(f"unknown trace format {fmt!r}")

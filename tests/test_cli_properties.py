"""The command line's flag and trace contracts as properties, drawn by hypothesis.

Each flag case gives one numeric flag a drawn text (nan, inf, -inf, -1, 0,
1e308, a 30-digit integer or junk) beside tiny valid other flags; each
trace case writes drawn trace contents (empty, one value, constant, odd
length, comments, ``nan``/``inf`` text, magnitudes up to 1e300, ``rawf64``
files of odd byte counts) and runs every command that reads a trace on
them.  Both run ``main(argv)`` in-process.  The exit code must be
documented, no traceback may escape, and a failing exit prints exactly one
``error:`` line.  Numpy warnings are errors here, so a warning printed
before that line fails too.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgn_toolkit import Trace
from fgn_toolkit.cli import main
from fgn_toolkit.traceio import write_trace

TEXTS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "1" + "0" * 29]),
    st.text("abcxyz.:-+_ ", max_size=4),  # junk: no digits, so never a large valid size
)

# command: (tiny valid flags, [(flag, template for the drawn text)])
TRACE_FREE = {
    "synth": (
        {"--n": "16", "--hurst": "0.8", "--seed": "1", "--mean": "0", "--sd": "1",
         "--mode": "k:3", "--out": "{dir}/t.txt"},
        [("--n", "{}"), ("--hurst", "{}"), ("--seed", "{}"), ("--mean", "{}"),
         ("--sd", "{}"), ("--mode", "k:{}"), ("--mode", "partial:{}")],
    ),
    "spectrum": (
        {"--hurst": "0.8", "--lambda-grid": "0.01:3.0:11", "--mode": "k:3"},
        [("--hurst", "{}"), ("--lambda-grid", "{}:3.0:11"), ("--lambda-grid", "0.01:{}:11"),
         ("--lambda-grid", "0.01:3.0:{}"), ("--mode", "k:{}"), ("--mode", "partial:{}")],
    ),
}
READS_TRACE = {
    "estimate": (
        {"--in": "{dir}/in.txt", "--tol": "0.001", "--mode": "k:3"},
        [("--tol", "{}"), ("--mode", "k:{}"), ("--mode", "partial:{}")],
    ),
    "analyze": (
        {"--in": "{dir}/in.txt", "--what": "acf", "--max-lag": "4"},
        [("--max-lag", "{}")],
    ),
    "convert": (
        {"--in": "{dir}/in.txt", "--mean": "2", "--sd": "1", "--bin-width": "1",
         "--emit": "interarrivals", "--spread": "uniform", "--seed": "1",
         "--out": "{dir}/ia.txt"},
        [("--mean", "{}"), ("--sd", "{}"), ("--bin-width", "{}"), ("--seed", "{}")],
    ),
}


def cases(table):
    return st.sampled_from([(command, *drawn) for command, (_, flags) in table.items()
                            for drawn in flags])


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags")
    values = np.random.default_rng(7).standard_normal(64)
    write_trace(str(path / "in.txt"), Trace(values), "text")
    return path


def run(table, work_dir, case, text):
    """Exit code and stderr of the command with ``text`` put into one flag."""
    command, flag, template = case
    flags = dict(table[command][0], **{flag: template.format(text)})
    argv = [command]
    for name, value in flags.items():
        argv += [name, value.format(dir=work_dir)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_one_error_line(err, prefix="error: "):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=cases(TRACE_FREE), text=TEXTS)
@example(case=("synth", "--sd", "{}"), text="nan")
@example(case=("synth", "--mean", "{}"), text="inf")
@example(case=("synth", "--sd", "{}"), text="1e308")
@example(case=("spectrum", "--lambda-grid", "0.01:{}:11"), text="nan")
@example(case=("spectrum", "--lambda-grid", "{}:3.0:11"), text="1e-300")
def test_trace_free_commands_exit_0_or_2(work_dir, case, text):
    code, err = run(TRACE_FREE, work_dir, case, text)
    assert "Traceback" not in err
    assert code in (0, 2)
    if code == 2:
        assert_one_error_line(err)


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cases(READS_TRACE), text=TEXTS)
@example(case=("convert", "--bin-width", "{}"), text="nan")
@example(case=("convert", "--mean", "{}"), text="nan")
@example(case=("convert", "--sd", "{}"), text="1e308")
@example(case=("convert", "--bin-width", "{}"), text="1e308")
def test_trace_commands_exit_with_a_documented_code(work_dir, case, text):
    # the trace decides 4 (degenerate) and 5 (search boundary), not the flag
    code, err = run(READS_TRACE, work_dir, case, text)
    assert "Traceback" not in err
    assert code in (0, 2, 4, 5)
    if code == 2:
        assert_one_error_line(err)
    if code == 4:
        *before, last = err.splitlines()
        assert last.startswith("error: degenerate trace: ")
        # convert reports its clamp fraction before it can still fail
        assert all(line.startswith("clamp_fraction=") for line in before), err


# drawn trace files: (values, with comments or not, format, junk bytes after raw values)
NORMALS = st.tuples(st.integers(1, 48), st.integers(0, 300), st.integers(0, 2**32)).map(
    lambda c: list(np.random.default_rng(c[2]).standard_normal(c[0]) * 10.0 ** c[1]))
VALUES = st.one_of(
    st.just([]),
    st.floats(-1e300, 1e300).map(lambda v: [v]),  # one value
    st.tuples(st.floats(-1e300, 1e300), st.integers(2, 48)).map(lambda c: [c[0]] * c[1]),
    NORMALS,  # odd and even lengths, magnitudes 1 to 1e300
    st.tuples(NORMALS, st.integers(0, 47), st.sampled_from(["nan", "inf", "-inf"])).map(
        lambda c: c[0][: c[1]] + [float(c[2])] + c[0][c[1]:]),
)
TRACE_FILES = st.tuples(VALUES, st.booleans(), st.sampled_from(["text", "rawf64"]),
                        st.integers(0, 7))
# every command that reads a trace, each with tiny valid flags
TRACE_COMMANDS = [
    ["estimate", "--mode", "k:3"],
    ["analyze", "--what", "vt"],
    ["analyze", "--what", "normality"],
    ["analyze", "--what", "qq"],
    ["analyze", "--what", "acf", "--max-lag", "1"],
    ["convert", "--out", "{dir}/counts.txt"],
    ["convert", "--transform", "exp2", "--emit", "interarrivals", "--spread", "even",
     "--out", "{dir}/even.txt"],
    ["convert", "--transform", "exp2", "--mean", "3", "--sd", "0.5", "--emit", "interarrivals",
     "--seed", "1", "--strict", "--out", "{dir}/ia.txt"],
]


def write_trace_file(path, values, comments, fmt, extra):
    """``values`` as a trace file; ``extra`` junk bytes make a raw file's
    length odd to 8, ``comments`` puts a comment line and a trailing
    comment into a text file."""
    if fmt == "rawf64":
        path.write_bytes(np.array(values, dtype="<f8").tobytes() + b"\x01" * extra)
        return
    lines = [f"{v:.17g}" for v in values]
    if comments:
        lines = ["# fgn-toolkit v1", *lines[:1], "", "  # a comment line"] + [
            line + "  # note" for line in lines[1:]]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(content=TRACE_FILES)
@example(content=(list(np.random.default_rng(0).standard_normal(64) * 1e154), False, "text", 0))
@example(content=([], False, "text", 0))
@example(content=([], False, "rawf64", 3))
@example(content=([2.5] * 9, True, "text", 0))
@example(content=([1.0, float("nan"), 2.0, 3.0], False, "text", 0))
@example(content=([5.3e14] * 20, False, "text", 0))  # a mean that rounds off the value
@example(content=([1.0, -1.0] * 10, False, "rawf64", 0))  # block means of 2 all equal
@example(content=([0.0, 5e-324] * 20, False, "text", 0))  # deviations that square to 0
def test_trace_contents_exit_with_a_documented_code(work_dir, content):
    values, comments, fmt, extra = content
    write_trace_file(work_dir / "drawn", values, comments, fmt, extra)
    for command in TRACE_COMMANDS:
        argv = [arg.format(dir=work_dir) for arg in command]
        argv += ["--in", str(work_dir / "drawn"), "--format", fmt]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        assert code in (0, 3, 4, 5, 6), (argv, lines)
        errors = [line for line in lines if line.startswith("error: ")]
        if code in (0, 5):
            assert not errors, (argv, lines)
            continue
        assert len(errors) == 1 and lines[-1] == errors[0], (argv, lines)
        # only convert's clamp fraction may come before its exit-4 error
        before = lines[:-1]
        assert not before or (argv[0] == "convert" and code == 4
                              and all(line.startswith("clamp_fraction=") for line in before)), (
            argv, lines)

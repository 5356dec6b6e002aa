"""The command line's flag contract as a property, drawn by hypothesis.

Each case gives one numeric flag a drawn text (nan, inf, -inf, -1, 0,
1e308, a 30-digit integer or junk) beside tiny valid other flags and runs
``main(argv)`` in-process.  The exit code must be documented, no traceback
may escape, and a failing exit prints exactly one ``error:`` line.  Numpy
warnings are errors here, so a warning printed before that line fails too.
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

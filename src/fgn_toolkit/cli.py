"""Command line front end: synthesis, estimation, analysis, conversion.

Exit codes: 0 success, 2 bad flags or domain errors (including sizes numpy
cannot allocate, and --mean/--sd that rescale a trace past the float range),
3 I/O failure (including a trace file holding a non-finite value), 4
degenerate trace (including values so large that n * max|x| reaches 2^500,
and counts or arrival totals too large to represent), 5 estimate converged
to a search boundary, 6 clamp fraction above 10% under --strict.  Data and
summaries go to stdout, diagnostics to stderr.
Each flag is checked by its parser ``type=``, whatever the other flags say;
every bad flag, argparse's own errors included, is one ``error:`` line with
no usage dump.  :func:`main` alone turns an exception into an exit code.
"""

from __future__ import annotations

import argparse
import math
import secrets
import sys
import time
import warnings

import numpy as np

from . import analyze, traffic
from .estimate import _H_HI, _H_LO, whittle_estimate
from .spectrum import NEAR_EXACT, BMode, HurstParam, _integer, _spectrum_from_b, spectrum_b
from .synth import Trace, make_rng, rescale_trace, synthesize_fgn
from .traceio import FORMATS, _write_lines, read_trace, write_trace

__all__ = ["main"]

_EXIT_USAGE = 2
_EXIT_IO = 3
_EXIT_DEGENERATE = 4
_EXIT_BOUNDARY = 5
_EXIT_CLAMP = 6

# Most points `spectrum` tabulates: at this size, with its partial:10000
# reference column, the command takes about 4 s on two CPUs and 7 s on one,
# and far larger grids cannot be allocated.
_MAX_GRID_STEPS = 65536

# A trace read from a file must keep n * max|x| below this, so that every
# square of a value and every sum of n products stays finite.
_MAX_SCALE = 2.0**500


class _UsageError(Exception):
    """A bad flag, exit 2; argparse lets it out of a ``type=`` as written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _flag_type(parse):
    """``parse`` as a ``type=`` callable: its ValueError is the flag's error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None

    return convert


def _number(convert, flag: str, ok, need: str):
    """``convert`` as a ``type=`` (argparse reports text it rejects) that
    also requires ``ok`` of the value."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise _UsageError(f"{flag} must be {need}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


_SEED = _number(int, "--seed", lambda v: v >= 0, "nonnegative")
_MEAN = _number(float, "--mean", math.isfinite, "finite")
_SD = _number(float, "--sd", lambda v: 0 < v < math.inf, "finite and positive")


def _lambda_grid(text: str) -> np.ndarray:
    try:
        start_s, stop_s, steps_s = text.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise _UsageError(f"--lambda-grid must look like start:stop:steps, got {text!r}") from None
    if not (steps >= 1 and 0 < start <= stop <= np.pi):  # written so that NaN fails
        raise _UsageError("lambda grid must lie within (0, pi]")
    if steps > _MAX_GRID_STEPS:
        raise _UsageError(f"lambda grid steps must be at most {_MAX_GRID_STEPS}, got {steps}")
    return np.linspace(start, stop, steps)


def _resolve_seed(seed: int | None) -> int:
    return secrets.randbits(63) if seed is None else seed


def _report_drawn_seed(flag: int | None, seed: int) -> None:
    # printed once the seeded step has succeeded, so an error stays one line
    if flag is None:
        print(f"seed={seed} (drawn from system entropy)", file=sys.stderr)


def _load_trace(path: str, fmt: str) -> Trace:
    """The trace in ``path``; a value too large to square and sum is a
    degenerate trace (``ValueError``), not an I/O failure."""
    try:
        trace = read_trace(path, fmt)
    except (OSError, ValueError) as exc:
        raise OSError(f"cannot read trace {path}: {exc}") from None
    peak = float(np.max(np.abs(trace.values)))
    if trace.n * peak >= _MAX_SCALE:
        raise ValueError(f"largest magnitude {peak:.6g} times the length {trace.n} "
                         "reaches 2^500, past which squares and sums overflow")
    return trace


def _apply_rescale_flags(trace: Trace, args: argparse.Namespace) -> Trace:
    """Rescale to --mean/--sd when either is given; the other keeps 0 or 1."""
    if args.mean is None and args.sd is None:
        return trace
    mean = 0.0 if args.mean is None else args.mean
    return rescale_trace(trace, mean, 1.0 if args.sd is None else args.sd)


def _cmd_synth(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    started = time.perf_counter()
    try:
        # synth reads no trace: the library rejects only its flags here,
        # n by synthesize_fgn's rule, or a --mean/--sd scale out of range
        trace = _apply_rescale_flags(synthesize_fgn(args.hurst, args.n, seed, args.mode), args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    write_trace(args.out, trace, args.format)
    _report_drawn_seed(args.seed, seed)
    elapsed = time.perf_counter() - started
    print(f"n={args.n} h={args.hurst.h:g} seed={seed} wall_time_s={elapsed:.3f}", file=sys.stderr)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    loaded = _load_trace(args.infile, args.format)
    _integer(loaded.n, 4, f"estimate needs at least 4 samples, got {loaded.n}")  # as read
    # the periodogram takes an even length: an odd trace loses its last value
    trace = Trace(loaded.values[:-1], loaded.provenance) if loaded.n % 2 else loaded
    result = whittle_estimate(trace, args.mode, tol=args.tol)
    if trace is not loaded:  # noted once the estimate stands, so an error is the one stderr line
        print(f"note: odd trace length {loaded.n}; estimating from the first {trace.n} values",
              file=sys.stderr)
    print(
        f"h_hat={result.h_hat:.6f} sigma_h={result.sigma_h:.6f} "
        f"mode={result.mode} n={result.n}"
    )
    if result.at_boundary:
        print(
            f"warning: estimate {result.h_hat:.4f} converged to a search boundary "
            f"of [{_H_LO:g}, {_H_HI:g}]; the true value may lie outside (0.5, 1)",
            file=sys.stderr,
        )
        return _EXIT_BOUNDARY
    return 0


def _write_csv(path: str | None, header: str, *columns) -> None:
    """One CSV row per index of ``columns``, 10 significant digits per field."""
    fmt = ",".join(["{:.10g}"] * len(columns))
    _write_lines(path, [header], np.column_stack(columns), fmt)


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = _load_trace(args.infile, args.format)
    if args.what == "vt":
        curve = analyze.variance_time_curve(trace)
        if args.out:
            _write_csv(args.out, "m,norm_var", curve.m_levels, curve.norm_vars)
        print(f"implied_h={curve.implied_h:.4f} slope={curve.fitted_slope:.4f}")
    elif args.what == "normality":
        report = analyze.ad_normality_test(trace)
        verdict = "pass" if report.pass_at_5pct else "fail"
        print(f"a2={report.a2_statistic:.4f} verdict={verdict} n={report.n}")
    elif args.what == "qq":
        points = analyze.qq_points(trace)
        if args.out:
            _write_csv(args.out, "theoretical,sample", points[:, 0], points[:, 1])
        r = np.corrcoef(points[:, 0], points[:, 1])[0, 1]
        print(f"qq_r2={r * r:.6f} n={trace.n}")
    else:  # acf
        rho = analyze.sample_autocorrelation(trace, args.max_lag)
        if args.out:
            _write_csv(args.out, "lag,rho", np.arange(rho.size), rho)
        print(f"rho1={rho[1]:.4f} max_lag={args.max_lag}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    uniform = args.emit == "interarrivals" and args.spread == "uniform"
    seed = _resolve_seed(args.seed) if uniform else None
    trace = _load_trace(args.infile, args.format)
    try:
        trace = _apply_rescale_flags(trace, args)
    except ValueError as exc:
        if trace._degeneracy is not None:  # the trace's fault, not the flags'
            raise
        raise _UsageError(f"--mean/--sd take the rescaled trace out of range: {exc}") from None
    if args.transform == "exp2":
        trace = traffic.exp2_transform(trace)
    with warnings.catch_warnings():
        # the library's multi-line clamp warning becomes the one line below
        warnings.simplefilter("ignore", UserWarning)
        arrivals = traffic.to_integer_counts(trace, args.bin_width)
    fraction, limit = arrivals.clamp_fraction, traffic._CLAMP_WARN_FRACTION
    if args.strict and fraction > limit:
        print(
            f"error: clamp fraction {fraction:.1%} exceeds {limit:.0%} under --strict",
            file=sys.stderr,
        )
        return _EXIT_CLAMP
    note = f" (above {limit:.0%}: a Gaussian count model fits poorly)" if fraction > limit else ""
    print(f"clamp_fraction={fraction:.4f}{note}", file=sys.stderr)
    if args.emit == "counts":
        values, fmt = arrivals.counts, "{}"
    else:
        rng = None if seed is None else make_rng(seed)
        seq = traffic.counts_to_interarrivals(arrivals, spread=args.spread, rng=rng)
        if seed is not None:
            _report_drawn_seed(args.seed, seed)
        values, fmt = seq.times, "{:.17g}"
    _write_lines(args.out, [], values, fmt)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    h, lams, mode = args.hurst, args.lambda_grid, args.mode
    b_vals = np.atleast_1d(spectrum_b(h, lams, mode))
    b_ref = b_vals if mode == NEAR_EXACT else np.atleast_1d(spectrum_b(h, lams, NEAR_EXACT))
    f_vals = _spectrum_from_b(lams, h.h, b_vals)
    rel_err = (b_vals - b_ref) / b_ref
    _write_csv(args.out, "lambda,f,B,rel_err_vs_partial10000", lams, f_vals, b_vals, rel_err)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fgn-toolkit",
        description="Synthesize, estimate, analyze and convert self-similar traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    hurst, mode = _flag_type(lambda text: HurstParam(float(text))), _flag_type(BMode.parse)

    p = sub.add_parser("synth", help="synthesize an approximate FGN trace")
    p.add_argument("--n", type=int, required=True, help="trace length (even, >= 4)")
    p.add_argument("--hurst", type=hurst, required=True, help="Hurst parameter in (0.5, 1)")
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--mode", type=mode, default="fast",
                   help="fast|exact|prime|doubleprime|partial:<N>|k:<K>")
    p.add_argument("--mean", type=_MEAN, default=None, help="rescale to this sample mean")
    p.add_argument("--sd", type=_SD, default=None, help="rescale to this sample sd")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("estimate", help="Whittle estimate of the Hurst parameter")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", type=mode, default="fast")
    width = _H_HI - _H_LO  # a wider tol ends the search at its first point
    p.add_argument("--tol", default=0.001, type=_number(
        _number(float, "--tol", lambda v: v >= 1e-6, "at least 1e-6"),
        "--tol", lambda v: v < width, f"below the search width {width:g}"))
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("analyze", help="variance-time, normality, Q-Q or ACF analysis")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--what", choices=("vt", "normality", "qq", "acf"), required=True,
                   help="acf values can differ in the last bits between BLAS thread counts")
    p.add_argument("--out", default=None, help="CSV output path (vt, qq, acf)")
    p.add_argument("--max-lag", type=_number(int, "--max-lag", lambda v: v >= 1, "at least 1"),
                   default=50, help="largest ACF lag, at least 1; a lag of n/4 or more exits 4")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("convert", help="turn a trace into counts or interarrival times")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--transform", choices=("exp2", "linear"), default="linear")
    p.add_argument("--mean", type=_MEAN, default=None,
                   help="target mean before the transform (log2 domain for exp2)")
    p.add_argument("--sd", type=_SD, default=None,
                   help="target sd before the transform (log2 domain for exp2)")
    p.add_argument("--bin-width", type=_number(float, "--bin-width", lambda v: 0 < v < math.inf,
                                               "finite and positive"), default=1.0)
    p.add_argument("--emit", choices=("counts", "interarrivals"), default="counts")
    p.add_argument("--spread", choices=("uniform", "even"), default="uniform")
    p.add_argument("--seed", type=_SEED, default=None)
    p.add_argument("--strict", action="store_true",
                   help="fail when more than 10%% of values clamp to zero")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("spectrum", help="tabulate the model spectrum and its error")
    p.add_argument("--hurst", type=hurst, required=True)
    p.add_argument("--lambda-grid", type=_lambda_grid, default="0.01:3.0:11",
                   help=f"start:stop:steps, at most {_MAX_GRID_STEPS} steps")
    p.add_argument("--mode", type=mode, default="fast")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, MemoryError) as exc:
        # a MemoryError is numpy refusing outright the size a flag asked for
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except ValueError as exc:
        # the library rejects the trace a command read
        print(f"error: degenerate trace: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())

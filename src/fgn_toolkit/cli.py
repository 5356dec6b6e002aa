"""Command line front end: synthesis, estimation, analysis, conversion.

Exit codes: 0 success, 2 bad flags or domain errors, 3 I/O failure
(including a trace file holding a non-finite value), 4 degenerate trace
(including counts or arrival totals too large to represent), 5 estimate
converged to a search boundary, 6 clamp fraction above 10% under
--strict.  Data and summaries go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import secrets
import sys
import time
import warnings

import numpy as np

from . import analyze, traffic
from .estimate import whittle_estimate
from .spectrum import NEAR_EXACT, BMode, HurstParam, fgn_power_spectrum, spectrum_b
from .synth import Trace, make_rng, rescale_trace, synthesize_fgn
from .traceio import FORMATS, read_trace, write_trace

__all__ = ["main"]

_EXIT_USAGE = 2
_EXIT_IO = 3
_EXIT_DEGENERATE = 4
_EXIT_BOUNDARY = 5
_EXIT_CLAMP = 6

# Most points `spectrum` tabulates: at this size its partial:10000 reference
# column already takes about 10 s, and far larger grids cannot be allocated.
_MAX_GRID_STEPS = 65536


class _UsageError(Exception):
    pass


class _DegenerateTrace(Exception):
    pass


def _parse_hurst(text: str) -> HurstParam:
    try:
        return HurstParam(float(text))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_mode(text: str) -> BMode:
    try:
        return BMode.parse(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _resolve_seed(seed: int | None) -> int:
    if seed is not None and seed < 0:
        raise _UsageError(f"--seed must be nonnegative, got {seed}")
    return secrets.randbits(63) if seed is None else seed


def _report_drawn_seed(flag: int | None, seed: int) -> None:
    # printed once the seeded step has succeeded, so an error stays one line
    if flag is None:
        print(f"seed={seed} (drawn from system entropy)", file=sys.stderr)


def _load_trace(path: str, fmt: str) -> Trace:
    try:
        return read_trace(path, fmt)
    except (OSError, ValueError) as exc:
        raise OSError(f"cannot read trace {path}: {exc}") from None


def _check_sd_flag(sd: float | None) -> None:
    if sd is not None and sd <= 0:
        raise _UsageError(f"--sd must be positive, got {sd}")


def _apply_rescale_flags(trace: Trace, args: argparse.Namespace) -> Trace:
    """Rescale to --mean/--sd when either is given; the other keeps 0 or 1."""
    if args.mean is None and args.sd is None:
        return trace
    mean = 0.0 if args.mean is None else args.mean
    return rescale_trace(trace, mean, 1.0 if args.sd is None else args.sd)


def _cmd_synth(args: argparse.Namespace) -> int:
    _check_sd_flag(args.sd)
    h = _parse_hurst(args.hurst)
    mode = _parse_mode(args.mode)
    seed = _resolve_seed(args.seed)
    started = time.perf_counter()
    try:
        trace = synthesize_fgn(h, args.n, seed, mode)
    except ValueError as exc:
        # synthesize_fgn only rejects its n and seed arguments
        raise _UsageError(str(exc)) from None
    _report_drawn_seed(args.seed, seed)
    trace = _apply_rescale_flags(trace, args)
    write_trace(args.out, trace, args.format)
    elapsed = time.perf_counter() - started
    print(
        f"n={args.n} h={h.h:g} seed={seed} wall_time_s={elapsed:.3f}",
        file=sys.stderr,
    )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.tol < 1e-6:
        raise _UsageError(f"--tol must be at least 1e-6, got {args.tol}")
    mode = _parse_mode(args.mode)
    trace = _load_trace(args.infile, args.format)
    try:
        result = whittle_estimate(trace, mode, tol=args.tol)
    except ValueError as exc:
        raise _DegenerateTrace(str(exc)) from None
    print(
        f"h_hat={result.h_hat:.6f} sigma_h={result.sigma_h:.6f} "
        f"mode={result.mode} n={result.n}"
    )
    if result.at_boundary:
        print(
            f"warning: estimate {result.h_hat:.4f} converged to a search boundary "
            "of [0.501, 0.999]; the true value may lie outside (0.5, 1)",
            file=sys.stderr,
        )
        return _EXIT_BOUNDARY
    return 0


def _csv_lines(header: str, rows):
    yield header
    for row in rows:
        yield ",".join(f"{v:.10g}" for v in row)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = _load_trace(args.infile, args.format)
    try:
        if args.what == "vt":
            curve = analyze.variance_time_curve(trace)
            if args.out:
                rows = zip(curve.m_levels, curve.norm_vars)
                _write_lines(args.out, _csv_lines("m,norm_var", rows))
            print(f"implied_h={curve.implied_h:.4f} slope={curve.fitted_slope:.4f}")
        elif args.what == "normality":
            report = analyze.ad_normality_test(trace)
            verdict = "pass" if report.pass_at_5pct else "fail"
            print(f"a2={report.a2_statistic:.4f} verdict={verdict} n={report.n}")
        elif args.what == "qq":
            points = analyze.qq_points(trace)
            if args.out:
                _write_lines(args.out, _csv_lines("theoretical,sample", points))
            r = np.corrcoef(points[:, 0], points[:, 1])[0, 1]
            print(f"qq_r2={r * r:.6f} n={trace.n}")
        else:  # acf
            rho = analyze.sample_autocorrelation(trace, args.max_lag)
            if args.out:
                _write_lines(args.out, _csv_lines("lag,rho", enumerate(rho)))
            print(f"rho1={rho[1]:.4f} max_lag={args.max_lag}")
    except ValueError as exc:
        raise _DegenerateTrace(str(exc)) from None
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    _check_sd_flag(args.sd)
    if args.bin_width <= 0:
        raise _UsageError(f"--bin-width must be positive, got {args.bin_width}")
    uniform = args.emit == "interarrivals" and args.spread == "uniform"
    seed = _resolve_seed(args.seed) if uniform else None
    trace = _load_trace(args.infile, args.format)
    try:
        trace = _apply_rescale_flags(trace, args)
        if args.transform == "exp2":
            trace = traffic.exp2_transform(trace)
        with warnings.catch_warnings():
            # the library's multi-line clamp warning becomes the one line below
            warnings.simplefilter("ignore", UserWarning)
            arrivals = traffic.to_integer_counts(trace, args.bin_width)
    except ValueError as exc:
        raise _DegenerateTrace(str(exc)) from None
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
        lines = (str(c) for c in arrivals.counts)
    else:
        rng = None if seed is None else make_rng(seed)
        try:
            seq = traffic.counts_to_interarrivals(arrivals, spread=args.spread, rng=rng)
        except ValueError as exc:
            raise _DegenerateTrace(str(exc)) from None
        if seed is not None:
            _report_drawn_seed(args.seed, seed)
        lines = (f"{t:.17g}" for t in seq.times)
    _write_lines(args.out, lines)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    h = _parse_hurst(args.hurst)
    mode = _parse_mode(args.mode)
    try:
        start_s, stop_s, steps_s = args.lambda_grid.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise _UsageError(
            f"--lambda-grid must look like start:stop:steps, got {args.lambda_grid!r}"
        ) from None
    if steps < 1 or start <= 0 or stop > np.pi or start > stop:
        raise _UsageError("lambda grid must lie within (0, pi]")
    if steps > _MAX_GRID_STEPS:
        raise _UsageError(f"lambda grid steps must be at most {_MAX_GRID_STEPS}, got {steps}")
    lams = np.linspace(start, stop, steps)
    f_vals = np.atleast_1d(fgn_power_spectrum(h, lams, mode))
    b_vals = np.atleast_1d(spectrum_b(h, lams, mode))
    b_ref = np.atleast_1d(spectrum_b(h, lams, NEAR_EXACT))
    rel_err = (b_vals - b_ref) / b_ref
    lines = _csv_lines("lambda,f,B,rel_err_vs_partial10000", zip(lams, f_vals, b_vals, rel_err))
    if args.out:
        _write_lines(args.out, lines)
    else:
        print("\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgn-toolkit",
        description="Synthesize, estimate, analyze and convert self-similar traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize an approximate FGN trace")
    p.add_argument("--n", type=int, required=True, help="trace length (even, >= 4)")
    p.add_argument("--hurst", required=True, help="Hurst parameter in (0.5, 1)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", default="fast", help="fast|exact|prime|doubleprime|partial:<N>|k:<K>")
    p.add_argument("--mean", type=float, default=None, help="rescale to this sample mean")
    p.add_argument("--sd", type=float, default=None, help="rescale to this sample sd")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("estimate", help="Whittle estimate of the Hurst parameter")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", default="fast")
    p.add_argument("--tol", type=float, default=0.001)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("analyze", help="variance-time, normality, Q-Q or ACF analysis")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--what", choices=("vt", "normality", "qq", "acf"), required=True)
    p.add_argument("--out", default=None, help="CSV output path (vt, qq, acf)")
    p.add_argument("--max-lag", type=int, default=50)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("convert", help="turn a trace into counts or interarrival times")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--transform", choices=("exp2", "linear"), default="linear")
    p.add_argument("--mean", type=float, default=None,
                   help="target mean before the transform (log2 domain for exp2)")
    p.add_argument("--sd", type=float, default=None,
                   help="target sd before the transform (log2 domain for exp2)")
    p.add_argument("--bin-width", type=float, default=1.0)
    p.add_argument("--emit", choices=("counts", "interarrivals"), default="counts")
    p.add_argument("--spread", choices=("uniform", "even"), default="uniform")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strict", action="store_true",
                   help="fail when more than 10%% of values clamp to zero")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("spectrum", help="tabulate the model spectrum and its error")
    p.add_argument("--hurst", required=True)
    p.add_argument("--lambda-grid", default="0.01:3.0:11",
                   help=f"start:stop:steps, at most {_MAX_GRID_STEPS} steps")
    p.add_argument("--mode", default="fast")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except _DegenerateTrace as exc:
        print(f"error: degenerate trace: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

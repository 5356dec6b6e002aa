"""The benchmark workloads, whittle-battery and long-path, and the layer probes.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The loop in run.py calls
``run_step(p, tr)`` for p = 0, 1, 2, ...; ``ROUND`` consecutive steps make
one pass (one nine-trace battery, one long path).  A workload makes its
inputs from the run seed and the step number only, so every pass sees
fresh inputs and the same seed always gives the same inputs.  Every step
records the wall time of each operation it makes (``Bench.op``); a pass's
time is the sum of those operations' medians.

The package is driven only through names exported by ``fgn_toolkit``,
through ``fgn_toolkit.traceio.read_trace``/``write_trace`` and through
``python -m fgn_toolkit.cli``.
"""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
import time
from collections import defaultdict

import fgn_toolkit as fgn
from fgn_toolkit.traceio import read_trace, write_trace

from tracing import Tracer, median

FAST = fgn.BMode.parse("fast")
EXACT = fgn.BMode.parse("exact")
K3 = fgn.BMode.parse("k:3")

CLI_TIMEOUT_S = 150
# |h_hat - h| / sigma_h is standard normal over the battery (sd 0.98 over
# 1080 traces), so a 4 sigma gate would fail about one estimate in 16000,
# i.e. a correct estimator would fail some run out of every few dozen.
# 5 sigma keeps false failures below 1e-6 per estimate while still
# catching a biased or broken estimator.
Z_GATE = 5.0


class Bench:
    """What one run shares between its workload and the pass loop in run.py."""

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.env = dict(os.environ)
        paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ops: dict[bool, dict[str, list[float]]] = {
            False: defaultdict(list), True: defaultdict(list)}
        self.layer: dict[str, float] = {}
        self.computed: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation, and a failure unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def op(self, name: str, seconds: float, traced: bool) -> None:
        """One checked operation of a pass took ``seconds`` of wall time."""
        self.ops[traced][name].append(seconds)

    def pass_seconds(self, traced: bool = False) -> float:
        """One pass's time: the sum of the medians of its operations."""
        ops = self.ops[traced]
        return sum(median(v) for v in ops.values()) if ops else math.nan

    def python(self, *args: str) -> tuple[subprocess.CompletedProcess, float]:
        """Run a fresh interpreter in the work directory; wall seconds too."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.work, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return proc, time.perf_counter() - start


def setup_inputs(workload: str, seed: int) -> None:
    """What a fresh set-up process does after importing the package."""
    if workload == "whittle-battery":
        WhittleBattery.make_traces(seed, 0)


def seeded(*key: object) -> random.Random:
    """Generator for the inputs named by ``key`` (run seed, pass, ...)."""
    return random.Random(":".join(map(str, key)))


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# --------------------------------------------------------------------------
# whittle-battery


class WhittleBattery:
    """Exact and fast Whittle estimates of k:3 traces across the h grid.

    One step estimates one trace; nine steps, one per h, make one battery.
    """

    N = 32768
    H_GRID = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
    ROUND = len(H_GRID)
    REPORT = ("exact_estimate_s", "fast_estimate_s")
    TOTAL = "battery_s"

    def __init__(self, bench: Bench) -> None:
        self.b = bench
        self.traced = []

    @classmethod
    def make_trace(cls, seed: int, r: int, i: int, tr: Tracer | None = None):
        h = cls.H_GRID[i]
        with (tr or Tracer("", False)).span("synth.synthesize"):
            t = fgn.synthesize_fgn(fgn.HurstParam(h), cls.N,
                                   seeded(seed, r, i).randrange(1, 2**31), K3)
        return h, t

    @classmethod
    def make_traces(cls, seed: int, r: int):
        return [cls.make_trace(seed, r, i) for i in range(cls.ROUND)]

    def warmup(self) -> None:
        _, t = self.make_trace(self.b.seed, -1, self.ROUND - 1)
        fgn.whittle_estimate(t, EXACT)
        fgn.whittle_estimate(t, FAST)

    def run_step(self, p: int, tr: Tracer) -> None:
        b = self.b
        h, t = self.make_trace(b.seed, *divmod(p, self.ROUND), tr)
        with tr.span("estimate.whittle_exact") as s_ex:
            ex = fgn.whittle_estimate(t, EXACT)
        with tr.span("estimate.whittle_fast") as s_fa:
            fa = fgn.whittle_estimate(t, FAST)
        ex_ok = abs(ex.h_hat - h) <= Z_GATE * ex.sigma_h and not ex.at_boundary
        fa_ok = (abs(fa.h_hat - h) <= Z_GATE * fa.sigma_h and not fa.at_boundary
                 and abs(fa.h_hat - ex.h_hat) <= ex.sigma_h)
        b.check(ex_ok, f"exact h={h}: h_hat={ex.h_hat:.4f} sigma={ex.sigma_h:.4f}")
        b.check(fa_ok, f"fast h={h}: h_hat={fa.h_hat:.4f} exact={ex.h_hat:.4f}")
        if ex_ok:
            b.samples["exact_estimate_s"].append(s_ex.seconds)
            b.op(f"exact h={h}", s_ex.seconds, tr.record)
        if fa_ok:
            b.samples["fast_estimate_s"].append(s_fa.seconds)
            b.op(f"fast h={h}", s_fa.seconds, tr.record)
        b.computed["spectrum.b_exact_pow_evals"] = 2 * EXACT.terms * (self.N // 2)
        if tr.record and len(self.traced) < self.ROUND:
            self.traced.append((h, t, ex, fa))

    def layers(self, tr: Tracer) -> None:
        b = self.b
        for h, t, ex, fa in self.traced:
            p = estimate_layers(tr, t, fa)
            with tr.span("spectrum.b_exact"):
                fgn.spectrum_b(fgn.HurstParam(ex.h_hat), p.lambdas, EXACT)
            with tr.span("estimate.sigma_exact"):
                fgn.whittle_sigma(fgn.HurstParam(ex.h_hat), self.N, EXACT)
            with tr.span("spectrum.grid_fast"):
                fgn.build_spectrum_grid(fgn.HurstParam(h), self.N, K3)
        startup_layers(b)


# --------------------------------------------------------------------------
# long-path


class LongPath:
    """One 2^21-point path through synthesis, I/O, estimation, analysis, traffic.

    One step is one whole path.
    """

    N = 2**21
    WARMUP_N = 2**18
    ACF_MAX_LAG = 1000
    ROUND = 1
    REPORT = ("long_synth_s", "long_estimate_s")
    TOTAL = "long_path_s"

    def __init__(self, bench: Bench) -> None:
        self.b = bench
        self.traced = None

    def params(self, p: int) -> tuple[fgn.HurstParam, int]:
        r = seeded(self.b.seed, p)
        return fgn.HurstParam(round(r.uniform(0.6, 0.9), 4)), r.randrange(1, 2**31)

    def warmup(self) -> None:
        self.one_path(-1, self.WARMUP_N, Tracer("", False))

    def run_step(self, p: int, tr: Tracer) -> None:
        b = self.b
        h, seed = self.params(p)
        steps, kept = self.one_path(p, self.N, tr)
        t, t_read, est, vt, ad, qq, acf, a, n_uniform, n_even = kept
        ok = {
            "synth": t.n == self.N,
            "write_raw": True,
            "read_raw": bool((t_read.values == t.values).all()),
            "estimate": finite(est.h_hat, est.sigma_h) and 0.5 < est.h_hat < 1.0,
            "vt": finite(vt.fitted_slope, vt.implied_h),
            "ad": finite(ad.a2_statistic),
            "qq": qq.shape == (self.N, 2) and finite(float(qq.sum())),
            "acf": acf.size == self.ACF_MAX_LAG + 1 and finite(float(acf.sum())),
            "rescale": True,
            "exp2": True,
            "counts": a.total > 0,
            "interarrivals_uniform": n_uniform == a.total,
            "interarrivals_even": n_even == a.total,
        }
        for name, good in ok.items():
            b.check(good, f"long path {name} (h={h.h}, seed={seed})")
        if all(ok.values()):
            b.samples["long_synth_s"].append(steps["synth.synthesize"])
            b.samples["long_estimate_s"].append(steps["estimate.whittle_fast"])
            for name, seconds in steps.items():
                b.op(name, seconds, tr.record)
        b.computed["traffic.arrivals"] = 2 * a.total
        b.computed["traceio.raw_bytes"] = 8 * self.N
        if tr.record:
            self.traced = (h, t_read, est)

    def one_path(self, p: int, n: int, tr: Tracer):
        h, seed = self.params(p)
        path = os.path.join(self.b.work, "path.f64")
        steps = {}

        def step(name, fn, *args):
            with tr.span(name) as s:
                out = fn(*args)
            steps[name] = s.seconds
            return out

        with tr.span("long.pass"):
            t = step("synth.synthesize", fgn.synthesize_fgn, h, n, seed)
            step("traceio.write_raw", write_trace, path, t, "rawf64")
            t_read = step("traceio.read_raw", read_trace, path, "rawf64")
            est = step("estimate.whittle_fast", fgn.whittle_estimate, t_read, FAST)
            vt = step("analyze.vt", fgn.variance_time_curve, t_read)
            ad = step("analyze.ad", fgn.ad_normality_test, t_read)
            qq = step("analyze.qq", fgn.qq_points, t_read)
            acf = step("oracle.acf", fgn.sample_autocorrelation, t_read, self.ACF_MAX_LAG)
            y = step("synth.rescale", fgn.rescale_trace, t_read, 3.0, 0.5)
            y = step("traffic.exp2", fgn.exp2_transform, y)
            a = step("traffic.counts", fgn.to_integer_counts, y, 1.0)
            del y
            n_uniform = step("traffic.interarrivals_uniform", fgn.counts_to_interarrivals,
                             a, "uniform", fgn.make_rng(seed + 1)).times.size
            n_even = step("traffic.interarrivals_even", fgn.counts_to_interarrivals,
                          a, "even").times.size
        return steps, (t, t_read, est, vt, ad, qq, acf, a, n_uniform, n_even)

    def layers(self, tr: Tracer) -> None:
        h, t, est = self.traced
        estimate_layers(tr, t, est)
        with tr.span("spectrum.grid_fast"):
            fgn.build_spectrum_grid(h, self.N, FAST)
        CliProbe(self.b).layers(tr)


# --------------------------------------------------------------------------
# CLI probe: the commands' own work, for the per-layer metrics only


class CliProbe:
    """synth -> convert -> estimate -> analyze, each a fresh CLI process.

    The same library calls are then made in this process on the same
    inputs.  A command's self time (argument parsing, line formatting) is
    its median wall time minus interpreter start, import and the median
    time of those library calls.
    """

    N = 262144
    H = 0.8
    REPEATS = 2
    COMMANDS = ("synth", "convert", "estimate", "analyze")

    def __init__(self, bench: Bench) -> None:
        self.b = bench

    def seeds(self, rep: int) -> tuple[int, int]:
        g = seeded(self.b.seed, "cli", rep)
        return g.randrange(1, 2**31), g.randrange(1, 2**31)

    def argv(self, synth_seed: int, spread_seed: int) -> dict[str, list[str]]:
        cli = ["-m", "fgn_toolkit.cli"]
        return {
            "synth": cli + ["synth", "--n", str(self.N), "--hurst", str(self.H),
                            "--seed", str(synth_seed), "--out", "trace.txt"],
            "convert": cli + ["convert", "--in", "trace.txt", "--transform", "exp2",
                              "--mean", "3", "--sd", "0.5", "--emit", "interarrivals",
                              "--spread", "uniform", "--seed", str(spread_seed),
                              "--out", "arrivals.txt"],
            "estimate": cli + ["estimate", "--in", "trace.txt", "--mode", "fast"],
            "analyze": cli + ["analyze", "--in", "trace.txt", "--what", "vt"],
        }

    def check_output(self, name: str, proc: subprocess.CompletedProcess) -> None:
        b = self.b
        ok = proc.returncode == 0
        if ok and name == "synth":
            trace_file = os.path.join(b.work, "trace.txt")
            ok = os.path.exists(trace_file) and os.path.getsize(trace_file) > 0
            if ok:
                b.computed["traceio.text_bytes"] = os.path.getsize(trace_file)
        elif ok and name == "convert":
            with open(os.path.join(b.work, "arrivals.txt"), "rb") as fh:
                lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 22), b""))
            ok = lines > 0
        elif ok and name == "estimate":
            m = re.search(r"h_hat=(\S+)", proc.stdout)
            ok = bool(m) and 0.5 < float(m.group(1)) < 1.0
        elif ok and name == "analyze":
            m = re.search(r"implied_h=(\S+)", proc.stdout)
            ok = bool(m) and finite(float(m.group(1)))
        b.check(ok, f"cli {name}: exit {proc.returncode} {proc.stderr.strip()[-200:]!r}")

    def library(self, tr: Tracer, name: str, synth_seed: int, spread_seed: int) -> None:
        """The library calls that command ``name`` makes, on the same inputs."""
        path = os.path.join(self.b.work, "library.txt")
        if name == "synth":
            t = fgn.synthesize_fgn(fgn.HurstParam(self.H), self.N, synth_seed)
            with tr.span("traceio.write_text"):
                write_trace(path, t, "text")
            return
        with tr.span("traceio.read_text"):
            t = read_trace(path, "text")
        if name == "convert":
            y = fgn.exp2_transform(fgn.rescale_trace(t, 3.0, 0.5))
            fgn.counts_to_interarrivals(fgn.to_integer_counts(y, 1.0), "uniform",
                                        fgn.make_rng(spread_seed))
        elif name == "estimate":
            fgn.whittle_estimate(t, FAST)
        else:
            fgn.variance_time_curve(t)

    def layers(self, tr: Tracer) -> None:
        wall = defaultdict(list)
        for rep in range(self.REPEATS):
            seeds = self.seeds(rep)
            argv = self.argv(*seeds)
            for name in self.COMMANDS:
                with tr.span(f"cli.{name}") as s:
                    proc, _ = self.b.python(*argv[name])
                self.check_output(name, proc)
                wall[name].append(s.seconds)
            for name in self.COMMANDS:
                with tr.span(f"cli.library.{name}") as s:
                    self.library(tr, name, *seeds)
                wall[f"library.{name}"].append(s.seconds)
        start = startup_layers(self.b)
        for name in self.COMMANDS:
            self.b.layer[f"cli.{name}_self_s"] = (
                median(wall[name]) - start - median(wall[f"library.{name}"]))


# --------------------------------------------------------------------------
# layer probes shared by the traced runs


def estimate_layers(tr: Tracer, t, est):
    """Periodogram, spectrum and sigma calls that one fast whittle_estimate makes."""
    with tr.span("estimate.periodogram"):
        p = fgn.periodogram(t)
    with tr.span("spectrum.b_fast"):
        fgn.spectrum_b(fgn.HurstParam(est.h_hat), p.lambdas, FAST)
    with tr.span("estimate.sigma"):
        fgn.whittle_sigma(fgn.HurstParam(est.h_hat), t.n, FAST)
    return p


def startup_layers(b: Bench) -> float:
    """Fresh-interpreter start and package import (median of 3); returns their sum."""
    start = median([b.python("-c", "pass")[1] for _ in range(3)])
    full = median([b.python("-c", "import fgn_toolkit.cli")[1] for _ in range(3)])
    b.layer["cli.interp_start_s"] = start
    b.layer["cli.import_s"] = full - start
    return full


WORKLOADS = {
    "whittle-battery": WhittleBattery,
    "long-path": LongPath,
}

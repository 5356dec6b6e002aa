"""Periodogram and Whittle estimation."""

import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fgn_toolkit import (
    BMode,
    HurstParam,
    SpectrumGrid,
    Trace,
    fgn_power_spectrum,
    periodogram,
    qq_points,
    synthesize_fgn,
    variance_time_curve,
    whittle_estimate,
    whittle_objective,
    whittle_sigma,
)
from fgn_toolkit import estimate, spectrum
from fgn_toolkit.analyze import ad_statistic

K3 = BMode.truncated(3)
EXACT = BMode.partial(200)
FAST = BMode.truncated_double_prime()


class TestPeriodogram:
    def test_constant_trace_has_no_power(self):
        p = periodogram(Trace(np.full(64, 5.0)))
        assert np.all(p.values < 1e-20)

    def test_pure_cosine_peaks_at_its_frequency(self):
        n, k = 256, 5
        t = np.arange(n)
        p = periodogram(Trace(np.cos(2 * np.pi * k * t / n)))
        assert np.argmax(p.values) == k - 1
        others = np.delete(p.values, k - 1)
        assert p.values[k - 1] > 1e6 * others.max()

    def test_parseval_identity(self, rng):
        # (2 sum I_j - I_nyquist) / n equals the biased sample variance
        x = rng.standard_normal(4096) * 2.3 + 0.7
        p = periodogram(Trace(x))
        lhs = (2 * np.sum(p.values) - p.values[-1]) / 4096
        rhs = np.mean((x - x.mean()) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_frequencies_cover_half_circle(self, rng):
        p = periodogram(Trace(rng.standard_normal(128)))
        assert p.lambdas[0] == pytest.approx(2 * np.pi / 128)
        assert p.lambdas[-1] == np.pi
        assert p.n == 128

    @pytest.mark.parametrize("n", [2, 5, 63])
    def test_rejects_short_or_odd(self, rng, n):
        with pytest.raises(ValueError):
            periodogram(Trace(rng.standard_normal(n)))

    @pytest.mark.parametrize("n", [4, 26, 4096, 32768])
    def test_matches_the_formula_bit_for_bit(self, rng, n):
        # squares formed in place keep the bits of (re^2 + im^2) / n, and the
        # grid is the Fourier frequencies themselves
        x = rng.standard_normal(n)
        p = periodogram(Trace(x))
        coeffs = np.fft.rfft(x)[1:]
        assert np.array_equal(p.values, (coeffs.real**2 + coeffs.imag**2) / n)
        assert np.array_equal(p.lambdas, spectrum._fourier_frequencies(n))
        assert p.n == n

    @pytest.mark.parametrize(
        "lam, values",
        [([0.5, 0.5], [1.0, 1.0]), ([0.0, 1.0], [1.0, 1.0]), ([1.0, 4.0], [1.0, 1.0]),
         ([0.5, 1.0], [1.0, -1.0]), ([], [])],
        ids=["not-increasing", "zero-frequency", "above-pi", "negative-value", "empty"],
    )
    def test_public_grid_still_checks(self, lam, values):
        # only periodogram skips the checks, for the grid it built itself
        with pytest.raises(ValueError):
            SpectrumGrid(np.array(lam), np.array(values))


class TestWhittleObjective:
    def test_white_noise_prefers_half(self, rng):
        p = periodogram(Trace(rng.standard_normal(8192)))
        g_lo = whittle_objective(p, HurstParam.permissive(0.5), EXACT)
        g_hi = whittle_objective(p, HurstParam(0.9), EXACT)
        assert g_lo < g_hi

    def test_scaling_by_c_scales_objective_by_c_squared(self, rng):
        x = rng.standard_normal(1024)
        h = HurstParam(0.7)
        g1 = whittle_objective(periodogram(Trace(x)), h, K3)
        g3 = whittle_objective(periodogram(Trace(3.0 * x)), h, K3)
        assert g3 == pytest.approx(9.0 * g1, rel=1e-9)

    def test_finite_positive_across_h(self, rng):
        p = periodogram(Trace(rng.standard_normal(2048)))
        for hval in np.linspace(0.501, 0.999, 11):
            g = whittle_objective(p, HurstParam(hval), K3)
            assert np.isfinite(g) and g > 0

    @pytest.mark.parametrize("mode", [K3, EXACT, FAST], ids=str)
    def test_matches_normalized_spectrum_formula(self, synth_cache, mode):
        # the objective drops A's h-only factor and takes powers as
        # exp(e log x); against f scaled to geometric mean one it may only
        # differ by rounding
        p = periodogram(synth_cache(0.7, 8192, 6))
        for hval in (0.55, 0.7, 0.9):
            f = fgn_power_spectrum(HurstParam(hval), p.lambdas, mode)
            f_norm = f * np.exp(-np.mean(np.log(f)))
            want = 2.0 * np.pi / p.n * np.sum(p.values / f_norm)
            got = whittle_objective(p, HurstParam(hval), mode)
            assert got == pytest.approx(want, rel=1e-12)

    def test_mode_sandwich_brackets_reference(self, synth_cache):
        # the k=3 truncation overshoots B and the 200-term sum undershoots
        # it, so their objectives bracket the near-exact objective in h
        p = periodogram(synth_cache(0.7, 8192, 99))
        for hval in (0.55, 0.65, 0.7, 0.8, 0.9):
            h = HurstParam(hval)
            g3 = whittle_objective(p, h, K3)
            g200 = whittle_objective(p, h, EXACT)
            g_ref = whittle_objective(p, h, BMode.partial(10000))
            lo, hi = min(g3, g200), max(g3, g200)
            assert lo - 1e-9 * g_ref <= g_ref <= hi + 1e-9 * g_ref


class TestWorkspace:
    """The per-estimate workspace that every objective evaluation reuses."""

    @pytest.mark.parametrize("mode", [K3, EXACT, BMode.truncated_prime(), FAST], ids=str)
    def test_reused_workspace_equals_whittle_objective(self, synth_cache, mode):
        # whittle_objective builds a fresh workspace per call; one workspace
        # evaluated at h after h in its reused buffers must give the same bits
        p = periodogram(synth_cache(0.7, 4096, 8))
        ws = estimate._Workspace(p, mode)
        for hval in (0.9, 0.55, 0.7, 0.501, 0.999, 0.7):
            got = estimate._objective(ws, hval)
            assert got == whittle_objective(p, HurstParam(hval), mode)

    @pytest.mark.parametrize("mode", [FAST, EXACT], ids=str)
    def test_evaluation_allocates_no_grid_array(self, synth_cache, mode):
        p = periodogram(synth_cache(0.7, 2**16, 4))
        ws = estimate._Workspace(p, mode)
        tracemalloc.start()
        try:
            for hval in (0.6, 0.7, 0.8):
                estimate._objective(ws, hval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.lambdas.nbytes // 16

    def test_fast_estimate_peak_memory(self, synth_cache):
        # the fast-mode workspace holds 15 arrays of len(lam): the periodogram
        # over 1 - cos lam, log lam, 8 tail logs, the double-prime factor,
        # lam and 3 buffers; the periodogram and set-up add 2 more at peak
        t = synth_cache(0.7, 2**16, 4)
        grid_bytes = 8 * (t.n // 2)
        tracemalloc.start()
        try:
            whittle_estimate(t, FAST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * grid_bytes


class TestOpeningMemo:
    """q at Brent's opening points, kept across estimates of equal length in
    ``_opening_table``: at most two (n, mode) tables, none for n > 2^15."""

    TABLE = staticmethod(estimate._opening_table)

    @staticmethod
    def opening_points(n, mode):
        # the search's first three evaluations, traced on a trace of length n
        calls = []
        objective = estimate._objective
        estimate._objective = lambda ws, h: calls.append(h) or objective(ws, h)
        try:
            whittle_estimate(Trace(np.random.default_rng(1).standard_normal(n)), mode)
        finally:
            estimate._objective = objective
        return calls[:3]

    @pytest.mark.parametrize("mode", [K3, BMode.truncated_prime(), FAST, EXACT], ids=str)
    def test_cold_warm_and_threaded_estimates_agree(self, synth_cache, mode):
        t = synth_cache(0.75, 8192, 5)
        self.TABLE.cache_clear()
        cold = whittle_estimate(t, mode)
        assert len(self.TABLE(t.n, mode)) == estimate._OPENING_EVALUATIONS
        warm = whittle_estimate(t, mode)
        self.TABLE.cache_clear()
        results = [None, None]
        start = threading.Barrier(2)

        def worker(i):
            start.wait()
            results[i] = whittle_estimate(t, mode)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
        assert cold == warm == results[0] == results[1]
        assert (self.TABLE.cache_info().currsize == 1
                and len(self.TABLE(t.n, mode)) == estimate._OPENING_EVALUATIONS)

    def test_memo_stays_within_its_budget(self, synth_cache):
        # two tables of at most 32 arrays of n/2 floats, n <= 2^15: 8 MiB
        self.TABLE.cache_clear()
        for n in (2**12, 2**15, 2**16, 2**17, 2**15):
            before = self.TABLE.cache_info()
            whittle_estimate(synth_cache(0.7, n, 2), K3)
            after = self.TABLE.cache_info()
            assert after.currsize <= 2
            if n > 2**15:  # no table looked up, none made
                assert after == before
        assert (after.misses, after.hits) == (2, 1)  # the last 2^15 estimate found its table
        table = self.TABLE(2**15, K3)
        assert len(table) == estimate._OPENING_EVALUATIONS and self.TABLE.cache_info().misses == 2
        assert all(q.nbytes == 8 * 2**14 and not q.flags.writeable for q, _ in table.values())

    def test_concurrent_estimates_agree_with_serial_ones(self):
        # more threads than CPUs, switching often, each estimating traces of
        # three lengths in two modes, so tables are made and evicted under it
        traces = [Trace(np.random.default_rng(n).standard_normal(n)) for n in (1024, 2048, 4096)]
        jobs = [(t, mode) for t in traces for mode in (K3, FAST)]
        self.TABLE.cache_clear()
        expected = [whittle_estimate(t, mode) for t, mode in jobs]
        self.TABLE.cache_clear()
        failures = []

        def worker(w):
            try:
                for r in range(2 * len(jobs)):
                    i = (w + r) % len(jobs)
                    got = whittle_estimate(*jobs[i])
                    if got != expected[i]:
                        failures.append((i, got))
            except Exception as exc:  # handed to the test's thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and not failures
        assert self.TABLE.cache_info().currsize <= 2

    def test_estimate_of_2_18_stores_nothing(self, synth_cache):
        self.TABLE.cache_clear()
        whittle_estimate(synth_cache(0.7, 2**18, 2), FAST)
        assert self.TABLE.cache_info() == (0, 0, 2, 0)

    def test_estimate_of_2_16_stores_nothing(self, synth_cache):
        self.TABLE.cache_clear()
        whittle_estimate(synth_cache(0.7, 2**16, 2), FAST)
        assert self.TABLE.cache_info() == (0, 0, 2, 0)

    def test_estimate_of_2_16_searches_like_plain_brent(self, synth_cache):
        # no table, so no golden-section opening: Brent's own steps
        t = synth_cache(0.7, 2**16, 2)
        p = periodogram(t)
        calls = []
        objective = estimate._objective
        estimate._objective = lambda ws, h: calls.append(h) or objective(ws, h)
        try:
            whittle_estimate(t, FAST)
        finally:
            estimate._objective = objective

        def brent(golden):
            hs = []
            estimate._brent_minimize(
                lambda h: hs.append(h) or whittle_objective(p, HurstParam(h), FAST),
                estimate._H_LO, estimate._H_HI, 0.001, golden)
            return hs

        assert calls == brent(0)
        assert calls != brent(estimate._OPENING_EVALUATIONS)

    def test_coarse_tolerances_keep_the_table_bounded(self, synth_cache):
        # from tol ~0.07 on, a golden step can be cut to tol / 4 and the
        # opening leaves the 26-point tree; the table stops growing at 32
        self.TABLE.cache_clear()
        for h in (0.51, 0.6, 0.7, 0.8, 0.9, 0.99):
            t = synth_cache(h, 1024, 3)
            for tol in (0.001, 0.12, 0.15, 0.2, 0.3, 0.4, 0.49):
                whittle_estimate(t, K3, tol)
        assert len(self.TABLE(1024, K3)) == 1 << (estimate._OPENING_EVALUATIONS - 1)

    def test_only_whittle_estimate_uses_the_memo(self, synth_cache):
        p = periodogram(synth_cache(0.7, 4096, 8))
        hs = self.opening_points(4096, K3)
        self.TABLE.cache_clear()
        for h in hs:
            whittle_objective(p, HurstParam(h), K3)
            estimate._objective(estimate._Workspace(p, K3), h)
        with pytest.raises(ValueError):  # a length the periodogram rejects makes no table
            whittle_estimate(Trace(p.values[:7]), K3)
        assert self.TABLE.cache_info() == (0, 0, 2, 0)

    @pytest.mark.parametrize("mode", [FAST, EXACT], ids=str)
    def test_hit_allocates_no_grid_array(self, synth_cache, mode):
        p = periodogram(synth_cache(0.7, 2**15, 4))
        self.TABLE.cache_clear()
        hs = self.opening_points(2**15, mode)
        table = self.TABLE(p.n, mode)
        assert all(h in table for h in hs)
        ws = estimate._Workspace(p, mode)
        ws.table = table
        tracemalloc.start()
        try:
            got = [estimate._objective(ws, h) for h in hs]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.lambdas.nbytes // 16
        assert got == [whittle_objective(p, HurstParam(h), mode) for h in hs]


class TestWhittleEstimate:
    def test_white_noise_estimates_near_half(self, rng):
        # iid normal has h = 0.5, at the edge of the open search interval
        res = whittle_estimate(Trace(rng.standard_normal(32768)), K3)
        assert abs(res.h_hat - 0.5) <= 3 * res.sigma_h

    def test_antipersistent_input_flagged_at_boundary(self, rng):
        # differencing pushes h below 0.5, outside the search interval,
        # so the minimizer collapses onto the lower edge and is flagged
        res = whittle_estimate(Trace(np.diff(rng.standard_normal(8193))), K3)
        assert res.at_boundary
        assert res.h_hat == pytest.approx(0.5015, abs=1e-3)

    def test_synthesized_path_recovered(self, synth_cache):
        t = synth_cache(0.6, 16384, 21)
        res = whittle_estimate(t, EXACT)
        assert abs(res.h_hat - 0.6) <= 3 * res.sigma_h
        assert not res.at_boundary
        assert res.mode == EXACT and res.n == 16384

    def test_fast_and_exact_agree_within_sigma(self, synth_cache):
        t = synth_cache(0.8, 8192, 13)
        fast = whittle_estimate(t, K3)
        exact = whittle_estimate(t, EXACT)
        assert abs(fast.h_hat - exact.h_hat) <= exact.sigma_h

    def test_affine_invariance(self, synth_cache):
        t = synth_cache(0.7, 8192, 5)
        base = whittle_estimate(t, K3, tol=0.001)
        shifted = whittle_estimate(Trace(2.5 * t.values + 40.0), K3, tol=0.001)
        assert abs(base.h_hat - shifted.h_hat) <= 0.001

    def test_rejects_constant_trace(self):
        with pytest.raises(ValueError):
            whittle_estimate(Trace(np.full(64, 2.0)), K3)

    def test_rejects_subnormal_spread_trace(self):
        # 0 and 5e-324 have a range but no sd (the trace's rule), and
        # their periodogram underflows to 0
        with pytest.raises(ValueError, match="constant"):
            whittle_estimate(Trace(np.array([0.0, 5e-324] * 10)), K3)

    @pytest.mark.filterwarnings("error")
    def test_rejects_overflowing_variance(self, rng):
        # it returned h_hat = 0.9987 for 64 normals x 1e200
        with pytest.raises(ValueError, match="variance overflows"):
            whittle_estimate(Trace(rng.standard_normal(64) * 1e200), K3)

    @pytest.mark.filterwarnings("error")
    def test_huge_values_estimate_like_unit_ones(self):
        # x 1e153 overflowed the periodogram: one warning and h_hat = 0.9987;
        # the estimate now scales by a power of two, so only the rounding of
        # x * 1e153 is left
        x = np.random.default_rng(0).standard_normal(64)
        unit = whittle_estimate(Trace(x), EXACT)
        huge = whittle_estimate(Trace(x * 1e153), EXACT)
        assert not unit.at_boundary
        assert abs(huge.h_hat - unit.h_hat) <= 1e-14

    def test_rejects_tiny_tolerance(self, rng):
        with pytest.raises(ValueError):
            whittle_estimate(Trace(rng.standard_normal(64)), K3, tol=1e-9)

    def test_rejects_nan_tolerance(self, rng):
        # no bracket width compares <= nan, so the search would never stop
        with pytest.raises(ValueError):
            whittle_estimate(Trace(rng.standard_normal(64)), K3, tol=float("nan"))

    @pytest.mark.parametrize("tol", [0.498, 0.5, float("inf")])
    def test_rejects_tolerance_as_wide_as_the_search(self, rng, tol):
        # such a tol stopped the search at its first golden-section point
        with pytest.raises(ValueError, match="tolerance must lie in"):
            whittle_estimate(Trace(rng.standard_normal(64)), K3, tol=tol)

    @pytest.mark.parametrize("mode", [K3, EXACT], ids=str)
    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_lands_within_tol_of_dense_grid_argmin(self, synth_cache, h, mode):
        # a 0.001 grid over the search interval, then a 1e-5 grid around its
        # best point: the objective is unimodal in h, so that finds the argmin
        t = synth_cache(h, 2048, 60)
        p = periodogram(t)

        def argmin(grid):
            return grid[np.argmin([whittle_objective(p, HurstParam(g), mode) for g in grid])]

        coarse = argmin(np.linspace(0.501, 0.999, 499))
        fine = argmin(coarse + 1e-5 * np.arange(-100, 101))
        res = whittle_estimate(t, mode, tol=0.001)
        assert abs(res.h_hat - fine) <= 0.001 + 1e-5

    @pytest.mark.parametrize("mode", [K3, EXACT], ids=str)
    def test_objective_is_the_value_at_h_hat(self, synth_cache, mode):
        t = synth_cache(0.7, 4096, 8)
        res = whittle_estimate(t, mode)
        assert res.objective == whittle_objective(periodogram(t), HurstParam(res.h_hat), mode)

    @pytest.mark.parametrize("mode", [K3, EXACT], ids=str)
    def test_few_evaluations_at_n_32768(self, synth_cache, mode):
        # golden-section search needed 16 at the default tol = 0.001
        res = whittle_estimate(synth_cache(0.8, 32768, 3), mode)
        assert res.evaluations <= 12

    def test_evaluations_counts_search_calls_only(self, synth_cache, monkeypatch):
        # sigma_h does not go through _objective, so every call is the search's
        calls = []
        objective = estimate._objective
        monkeypatch.setattr(
            estimate, "_objective", lambda ws, h: calls.append(h) or objective(ws, h)
        )
        res = whittle_estimate(synth_cache(0.7, 4096, 8), K3)
        assert res.evaluations == len(calls) == len(set(calls))
        assert res.h_hat in calls

    def test_antipersistent_input_flagged_at_boundary_in_exact_mode(self, rng):
        # the best point evaluated stays inside the search interval
        res = whittle_estimate(Trace(np.diff(rng.standard_normal(8193))), EXACT)
        assert res.at_boundary
        assert 0.501 < res.h_hat <= 0.502

    def test_same_input_gives_identical_result(self, synth_cache):
        t = synth_cache(0.7, 4096, 8)
        assert whittle_estimate(t, EXACT) == whittle_estimate(t, EXACT)

    def test_tolerance_controls_bracket(self, synth_cache):
        t = synth_cache(0.7, 4096, 2)
        coarse = whittle_estimate(t, K3, tol=0.01)
        fine = whittle_estimate(t, K3, tol=0.001)
        assert abs(coarse.h_hat - fine.h_hat) <= 0.01


class TestWhittleSigma:
    def test_near_published_scale(self):
        # about 0.004 at n = 32768 across the whole h range
        got = whittle_sigma(HurstParam(0.7), 32768, EXACT)
        assert 0.003 <= got <= 0.005

    def test_stable_across_h(self):
        vals = [whittle_sigma(HurstParam(h), 32768, EXACT) for h in (0.55, 0.7, 0.9)]
        assert all(0.003 <= v <= 0.005 for v in vals)

    def test_quarter_sample_doubles_sigma(self):
        h = HurstParam(0.8)
        ratio = whittle_sigma(h, 8192, K3) / whittle_sigma(h, 4 * 8192, K3)
        assert ratio == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("mode", [K3, EXACT, FAST], ids=str)
    @pytest.mark.parametrize("hval", [0.55, 0.8, 0.95])
    def test_matches_defining_formula(self, mode, hval):
        # sigma_h^2 = 4 pi / (n * 2 * integral_0^pi (d log f / dh)^2 domega), with
        # log f of the full public spectrum centred over the 2048-point grid,
        # a central difference of step 1e-4 and the trapezoid rule
        n = 32768
        omega = np.pi * np.arange(1, 2049) / 2048

        def centred_log_f(hh):
            log_f = np.log(fgn_power_spectrum(HurstParam(hh), omega, mode))
            return log_f - log_f.mean()

        deriv = (centred_log_f(hval + 1e-4) - centred_log_f(hval - 1e-4)) / 2e-4
        want = np.sqrt(4.0 * np.pi / (n * 2.0 * np.trapezoid(deriv**2, omega)))
        assert whittle_sigma(HurstParam(hval), n, mode) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("mode", [K3, FAST, EXACT], ids=str)
    def test_peak_memory(self, mode):
        # the spectrum's work rows are two arrays of the 2048-point grid in
        # every mode, not rows sized for blocks of a partial sum
        whittle_sigma(HurstParam(0.7), 32768, mode)  # imports and first-call set-up
        tracemalloc.start()
        try:
            whittle_sigma(HurstParam(0.7), 32768, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 8 * 2048

    def test_positive_and_finite_on_grid(self):
        for hval in np.linspace(0.51, 0.95, 12):
            v = whittle_sigma(HurstParam(hval), 1024, K3)
            assert np.isfinite(v) and v > 0


# pins a child interpreter to one CPU and counts the threads it starts
PINNED_PRELUDE = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
starts = []
_start = threading.Thread.start
def counted_start(self):
    starts.append(self)
    _start(self)
threading.Thread.start = counted_start
"""

ONE_CPU_CHILD = PINNED_PRELUDE + """
from fgn_toolkit import BMode, HurstParam, synthesize_fgn, whittle_estimate
trace = synthesize_fgn(HurstParam(0.7), 32768, 6, BMode.truncated(3))
for mode in ("exact", "fast"):
    r = whittle_estimate(trace, BMode.parse(mode))
    print(r.h_hat.hex(), r.sigma_h.hex(), r.objective.hex())
print(len(starts))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_process_gives_same_estimates_and_starts_no_thread(synth_cache, child_env):
    # spectrum sums are split across the CPUs a process may use; a process
    # pinned to one CPU sums serially, and the estimates keep their bits
    proc = subprocess.run([sys.executable, "-c", ONE_CPU_CHILD], capture_output=True,
                          text=True, env=child_env, check=True, timeout=300)
    *child, thread_starts = proc.stdout.split("\n")[:-1]
    trace = synth_cache(0.7, 32768, 6)
    ours = []
    for mode in (EXACT, FAST):
        r = whittle_estimate(trace, mode)
        ours.append(f"{r.h_hat.hex()} {r.sigma_h.hex()} {r.objective.hex()}")
    assert child == ours
    assert thread_starts == "0"


ONE_CPU_ANALYSIS_CHILD = PINNED_PRELUDE + """
import hashlib
from fgn_toolkit import HurstParam, qq_points, synthesize_fgn, variance_time_curve
from fgn_toolkit.analyze import ad_statistic
from fgn_toolkit.spectrum import FAST, _Shape, _fourier_frequencies
sha = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
trace = synthesize_fgn(HurstParam(0.8), 2**19, 7)
vt = variance_time_curve(trace)
print(sha(trace.values), sha(vt.norm_vars), vt.fitted_slope.hex(), vt.implied_h.hex())
print(sha(qq_points(trace)), ad_statistic(trace.values).hex())
shape = _Shape(_fourier_frequencies(2**18), FAST)
print(sha(shape.log_lam), sha(shape.logs), sha(shape.q(0.7, shape.lam.copy())))
print(len(starts))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_process_gives_same_analysis_and_starts_no_thread(child_env):
    # the variance-time levels, the Q-Q columns, the A^2 passes and a
    # 2^17-point fast shape's lam-only logs are spread over the CPUs; pinned
    # to one CPU a process starts no thread and every bit is the same
    proc = subprocess.run([sys.executable, "-c", ONE_CPU_ANALYSIS_CHILD], capture_output=True,
                          text=True, env=child_env, check=True, timeout=300)
    *child, thread_starts = proc.stdout.split("\n")[:-1]

    def sha(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    trace = synthesize_fgn(HurstParam(0.8), 2**19, 7)
    vt = variance_time_curve(trace)
    shape = spectrum._Shape(spectrum._fourier_frequencies(2**18), FAST)
    assert child == [
        f"{sha(trace.values)} {sha(vt.norm_vars)} {vt.fitted_slope.hex()} {vt.implied_h.hex()}",
        f"{sha(qq_points(trace))} {ad_statistic(trace.values).hex()}",
        f"{sha(shape.log_lam)} {sha(shape.logs)} {sha(shape.q(0.7, shape.lam.copy()))}",
    ]
    assert thread_starts == "0"

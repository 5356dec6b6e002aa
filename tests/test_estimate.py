"""Periodogram and Whittle estimation."""

import numpy as np
import pytest

from fgn_toolkit import (
    BMode,
    HurstParam,
    Trace,
    periodogram,
    whittle_estimate,
    whittle_objective,
    whittle_sigma,
)

K3 = BMode.truncated(3)
EXACT = BMode.partial(200)


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

    def test_rejects_tiny_tolerance(self, rng):
        with pytest.raises(ValueError):
            whittle_estimate(Trace(rng.standard_normal(64)), K3, tol=1e-9)

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

    def test_positive_and_finite_on_grid(self):
        for hval in np.linspace(0.51, 0.95, 12):
            v = whittle_sigma(HurstParam(hval), 1024, K3)
            assert np.isfinite(v) and v > 0

"""Exact covariance-factorization generator and sample statistics."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fgn_toolkit import (
    BMode,
    HurstParam,
    Trace,
    covariance_factor,
    exact_fgn,
    fgn_autocorrelation,
    fgn_power_spectrum,
    make_rng,
    periodogram,
    sample_autocorrelation,
    whittle_estimate,
)


class TestCovarianceFactor:
    def test_reconstruction_error(self):
        h = HurstParam(0.8)
        L = covariance_factor(h, 256)
        sigma = toeplitz(fgn_autocorrelation(h, np.arange(256)))
        assert np.abs(L @ L.T - sigma).max() <= 1e-8

    def test_lower_triangular_positive_diagonal(self):
        L = covariance_factor(HurstParam(0.7), 64)
        assert np.allclose(L, np.tril(L))
        assert np.all(np.diag(L) > 0)

    def test_white_noise_factor_is_identity(self):
        L = covariance_factor(HurstParam.permissive(0.5), 32)
        assert np.array_equal(L, np.eye(32))

    def test_two_by_two_by_hand(self):
        # r(1) = 0.5 * (2**1.4 - 2); L = [[1, 0], [r1, sqrt(1 - r1^2)]]
        r1 = 0.3195079107728942
        L = covariance_factor(HurstParam(0.7), 2)
        assert L[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert L[0, 1] == 0.0
        assert L[1, 0] == pytest.approx(r1, rel=1e-12)
        assert L[1, 1] == pytest.approx(np.sqrt(1 - r1**2), rel=1e-12)

    def test_cached_factor_is_read_only(self):
        L = covariance_factor(HurstParam(0.7), 16)
        with pytest.raises(ValueError, match="read-only"):
            L[0, 0] = 2.0
        assert covariance_factor(HurstParam(0.7), 16)[0, 0] == 1.0

    @pytest.mark.parametrize("n", [1, 4097])
    def test_rejects_out_of_range_n(self, n):
        with pytest.raises(ValueError):
            covariance_factor(HurstParam(0.7), n)


class TestExactFgn:
    def test_white_noise_is_untouched_normals(self):
        h = HurstParam.permissive(0.5)
        a = exact_fgn(h, 128, make_rng(5)).values
        b = make_rng(5).standard_normal(128)
        assert np.allclose(a, b, rtol=1e-12)

    def test_lag_one_correlation_matches_formula(self):
        # mean lag-1 correlation over 200 replicates approaches
        # r(1) = 0.5 * (2**1.6 - 2) ~ 0.5157; uses uncentered moments
        # because the process mean is zero by construction, while the
        # mean-centered estimator carries an O(n^(2h-2)) downward bias
        # under long-range dependence
        h = HurstParam(0.8)
        rng = make_rng(77)
        acc = 0.0
        for _ in range(200):
            x = exact_fgn(h, 1024, rng).values
            acc += np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert acc / 200 == pytest.approx(0.5 * (2**1.6 - 2), abs=0.03)

    def test_lag_one_centered_estimator_close(self):
        # the packaged estimator on the same draws, wider band covering
        # its centering bias
        h = HurstParam(0.8)
        rng = make_rng(77)
        acc = 0.0
        for _ in range(200):
            acc += sample_autocorrelation(exact_fgn(h, 1024, rng), 1)[1]
        assert acc / 200 == pytest.approx(0.5 * (2**1.6 - 2), abs=0.06)

    def test_whittle_recovers_h(self):
        # cross-validation of generator and estimator, independent of the
        # FFT synthesis path
        h = HurstParam(0.7)
        sigma_ref = 0.004 * np.sqrt(32768 / 1024)
        devs = [
            abs(whittle_estimate(exact_fgn(h, 1024, make_rng(40 + i)), BMode.partial(200)).h_hat - 0.7)
            for i in range(4)
        ]
        assert sum(d <= 3 * sigma_ref for d in devs) >= 3

    def test_mean_periodogram_matches_model_spectrum_shape(self):
        h = HurstParam(0.8)
        rng = make_rng(7)
        n = 1024
        acc = np.zeros(n // 2)
        for _ in range(100):
            acc += periodogram(exact_fgn(h, n, rng)).values
        acc /= 100
        p = periodogram(exact_fgn(h, n, make_rng(0)))
        lam = p.lambdas
        band = (lam >= 2 * np.pi * 8 / n) & (lam <= np.pi / 2)
        slope_emp = np.polyfit(np.log(lam[band]), np.log(acc[band]), 1)[0]
        model = fgn_power_spectrum(h, lam[band], BMode.partial(10000))
        slope_model = np.polyfit(np.log(lam[band]), np.log(model), 1)[0]
        assert abs(slope_emp - slope_model) <= 0.05


class TestSampleAutocorrelation:
    def test_lag_zero_is_one(self, rng):
        rho = sample_autocorrelation(Trace(rng.standard_normal(256)), 5)
        assert rho[0] == 1.0

    def test_alternating_sequence_strongly_negative(self):
        x = np.tile([1.0, -1.0], 100)
        rho = sample_autocorrelation(Trace(x), 1)
        assert rho[1] <= -0.95

    def test_iid_lags_near_zero(self, rng):
        rho = sample_autocorrelation(Trace(rng.standard_normal(8192)), 10)
        assert np.abs(rho[1:]).max() <= 5 / np.sqrt(8192)

    def test_synthesized_matches_exact_formula(self, synth_cache):
        t = synth_cache(0.75, 32768, 90)
        rho = sample_autocorrelation(t, 10)[1:]
        want = fgn_autocorrelation(HurstParam(0.75), np.arange(1, 11))
        assert np.abs(rho - want).max() <= 0.05

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            sample_autocorrelation(Trace(np.full(100, 2.0)), 3)

    def test_rejects_large_lag(self, rng):
        with pytest.raises(ValueError):
            sample_autocorrelation(Trace(rng.standard_normal(100)), 25)

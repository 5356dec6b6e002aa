"""Exact circulant-embedding generator, its Cholesky reference, sample statistics."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fgn_toolkit import (
    BMode,
    HurstParam,
    Trace,
    exact_fgn,
    fgn_autocorrelation,
    fgn_power_spectrum,
    make_rng,
    periodogram,
    sample_autocorrelation,
    whittle_estimate,
)


class _SpelledDraws:
    """Stand-in generator whose draws, in exact_fgn's order, spell coordinate
    c of its Gaussian input: the real part of z_(c+1) for c < n (E = 1,
    phase 0), its imaginary part for n <= c < 2n (E = 1, phase pi/2), and
    the DC normal for c = 2n.  Every other E is 0, so every other z is 0."""

    def __init__(self, c: int, n: int):
        self.uniforms = np.zeros((2, n))
        if c < 2 * n:
            self.uniforms[:, c % n] = -np.expm1(-1.0), 0.25 * (c >= n)
        self.normal = float(c == 2 * n)
        self.calls = []

    def random(self, size=None, out=None):
        draw = self.uniforms[len(self.calls)]
        self.calls.append(("random", draw.size))
        if out is None:
            assert size == draw.size
            return draw.copy()
        out[...] = draw
        return out

    def standard_normal(self):
        self.calls.append(("standard_normal", None))
        return self.normal


def embedding_map(h: HurstParam, n: int) -> np.ndarray:
    """The n x (2n + 1) matrix A with exact_fgn's path = A @ g for its
    standard normal input g: Re z_j, Im z_j (each of variance w_j / 2,
    so sqrt(1/2) times the spelled column) and the DC normal."""
    cols = [exact_fgn(h, n, _SpelledDraws(c, n)).values for c in range(2 * n + 1)]
    return np.column_stack(cols) * np.append(np.full(2 * n, np.sqrt(0.5)), 1.0)


class TestCovarianceFactor:
    """The tests' Cholesky reference, which the embedding is checked against."""

    def test_reconstruction_error(self, cholesky_factor):
        h = HurstParam(0.8)
        L = cholesky_factor(0.8, 256)
        sigma = toeplitz(fgn_autocorrelation(h, np.arange(256)))
        assert np.abs(L @ L.T - sigma).max() <= 1e-8

    def test_lower_triangular_positive_diagonal(self, cholesky_factor):
        L = cholesky_factor(0.7, 64)
        assert np.allclose(L, np.tril(L))
        assert np.all(np.diag(L) > 0)

    def test_white_noise_factor_is_identity(self, cholesky_factor):
        L = cholesky_factor(0.5, 32)
        assert np.array_equal(L, np.eye(32))

    def test_two_by_two_by_hand(self, cholesky_factor):
        # r(1) = 0.5 * (2**1.4 - 2); L = [[1, 0], [r1, sqrt(1 - r1^2)]]
        r1 = 0.3195079107728942
        L = cholesky_factor(0.7, 2)
        assert L[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert L[0, 1] == 0.0
        assert L[1, 0] == pytest.approx(r1, rel=1e-12)
        assert L[1, 1] == pytest.approx(np.sqrt(1 - r1**2), rel=1e-12)


class TestExactFgn:
    @pytest.mark.parametrize("n", [2, 3, 64, 257])
    @pytest.mark.parametrize("hval", [0.5, 0.55, 0.8, 0.95])
    def test_covariance_is_exact(self, hval, n):
        # the path is linear in the normals, so its covariance is A A^T
        h = HurstParam.permissive(hval)
        A = embedding_map(h, n)
        sigma = toeplitz(fgn_autocorrelation(h, np.arange(n)))
        assert np.abs(A @ A.T - sigma).max() <= 1e-12

    def test_covariance_matches_cholesky_reference(self, cholesky_factor):
        A = embedding_map(HurstParam(0.8), 64)
        L = cholesky_factor(0.8, 64)
        assert np.abs(A @ A.T - L @ L.T).max() <= 1e-12

    def test_draw_order_exponentials_phases_then_dc(self):
        # n uniforms for E, n phase uniforms, then the DC normal; a real
        # coordinate scales cosines (x_0 > 0), an imaginary one sines (x_0 = 0)
        n = 16
        draws = _SpelledDraws(0, n)
        exact_fgn(HurstParam(0.7), n, draws)
        assert draws.calls == [("random", n), ("random", n), ("standard_normal", None)]
        A = embedding_map(HurstParam(0.7), n)
        assert np.all(A[0, :n] > 0) and A[0, 2 * n] > 0
        assert np.abs(A[0, n:2 * n]).max() <= 1e-15
        rng = make_rng(3)
        exact_fgn(HurstParam(0.7), n, rng)
        after = make_rng(3)
        after.random(n)
        after.random(n)
        after.standard_normal()
        assert rng.random() == after.random()

    def test_values_own_exactly_n_floats(self):
        # not a view into the length-2n inverse FFT
        t = exact_fgn(HurstParam(0.8), 1000, make_rng(0))
        root = t.values
        while root.base is not None:
            root = root.base
        assert root.nbytes == t.values.nbytes == 8000

    def test_negative_eigenvalue_raises_one_line(self):
        # cancellation in r(k) at large lags for h this close to 1; the
        # Cholesky oracle this generator replaced failed here too
        with pytest.raises(ValueError, match="negative eigenvalue") as excinfo:
            exact_fgn(HurstParam(1 - 1e-9), 1024, make_rng(0))
        message = str(excinfo.value)
        assert "\n" not in message
        assert f"h={1 - 1e-9}" in message and "n=1024" in message

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            exact_fgn(HurstParam(0.7), 1, make_rng(0))

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

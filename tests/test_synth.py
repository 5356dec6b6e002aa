"""Synthesis: full paths against their documented draw order, phases, rescaling."""

import numpy as np
import pytest

from fgn_toolkit import (
    BMode,
    HurstParam,
    Trace,
    fgn_power_spectrum,
    make_rng,
    periodogram,
    rescale_trace,
    synthesize_fgn,
    whittle_estimate,
)

K3 = BMode.truncated(3)
EXACT = BMode.partial(200)
FAST = BMode.truncated_double_prime()


def documented_half_spectrum(h, n, seed, mode):
    """The fuzzed spectrum and the half spectrum that ``synthesize_fgn``
    inverts, rebuilt from its documented draw order: f on the Fourier
    frequencies (the last clamped to pi) times Exp(1) variates from the first
    n/2 uniforms, phases from the next n/2, the Nyquist phase forced to zero
    after the draw."""
    m = n // 2
    rng = make_rng(seed)
    lam = np.minimum(2.0 * np.pi * np.arange(1, m + 1, dtype=float) / n, np.pi)
    fuzzed = fgn_power_spectrum(h, lam, mode) * -np.log1p(-rng.random(m))
    half = np.sqrt(fuzzed) * np.exp(1j * (2.0 * np.pi * rng.random(m)))
    half[-1] = np.abs(half[-1])
    return fuzzed, half


class TestRandomPhase:
    def test_modulus_squared_equals_value(self):
        # the random phases change no modulus: each bin of the path's forward
        # transform carries exactly the power of its fuzzed spectrum value
        h = HurstParam(0.8)
        n, seed = 256, 5
        fuzzed, _ = documented_half_spectrum(h, n, seed, K3)
        z = np.fft.rfft(synthesize_fgn(h, n, seed, K3).values)[1:]
        assert np.allclose(np.abs(z) ** 2, fuzzed, rtol=1e-12)


class TestSynthesizeFgn:
    def test_zero_mean(self, synth_cache):
        t = synth_cache(0.8, 4096, 11)
        assert abs(t.mean()) <= 1e-8 * t.sd()

    def test_deterministic(self):
        h = HurstParam(0.7)
        a = synthesize_fgn(h, 1024, 42, K3)
        b = synthesize_fgn(h, 1024, 42, K3)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        h = HurstParam(0.7)
        a = synthesize_fgn(h, 1024, 1, K3)
        b = synthesize_fgn(h, 1024, 2, K3)
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("n", [0, 2, 7, 1001])
    def test_rejects_bad_length(self, n):
        with pytest.raises(ValueError):
            synthesize_fgn(HurstParam(0.7), n, 1)

    def test_provenance_recorded(self):
        t = synthesize_fgn(HurstParam(0.7), 64, 9, K3)
        assert t.provenance.h.h == 0.7
        assert t.provenance.seed == 9
        assert t.provenance.mode == K3

    @pytest.mark.parametrize("mode", [K3, FAST, EXACT], ids=str)
    @pytest.mark.parametrize("n", [26, 2048])  # at 26 the last frequency is clamped to pi
    def test_matches_documented_draw_order(self, n, mode):
        h, seed = HurstParam(0.75), 77
        _, half = documented_half_spectrum(h, n, seed, mode)
        expected = np.concatenate(([0.0], half))
        t = synthesize_fgn(h, n, seed, mode)
        assert np.array_equal(t.values, np.fft.irfft(expected, n))
        # zero DC term, each phase in its own bin, Nyquist bin real
        assert np.allclose(np.fft.rfft(t.values), expected, rtol=0, atol=1e-12 * np.abs(half).max())

    def test_periodogram_preserves_fuzzed_power(self):
        # the periodogram of the output is the fuzzed spectrum divided by n
        h = HurstParam(0.75)
        n, seed = 2048, 77
        fuzzed, _ = documented_half_spectrum(h, n, seed, K3)
        p = periodogram(synthesize_fgn(h, n, seed, K3))
        assert np.allclose(p.values, fuzzed / n, rtol=1e-9)

    def test_forward_transform_recovers_half_spectrum(self):
        # zero DC term, each phase in its own bin, Nyquist bin real
        h = HurstParam(0.75)
        n, seed = 2048, 78
        _, half = documented_half_spectrum(h, n, seed, K3)
        t = synthesize_fgn(h, n, seed, K3)
        expected = np.concatenate(([0.0], half))
        assert np.allclose(np.fft.rfft(t.values), expected, rtol=0, atol=1e-12 * np.abs(half).max())

    def test_periodogram_over_spectrum_has_exp1_mean(self):
        # n I_j / f_j is the Exp(1) multiplier of frequency j;
        # 3 sigma / sqrt(16384) < 0.03
        n = 32768
        p = periodogram(synthesize_fgn(HurstParam(0.8), n, 99, K3))
        ratio = n * p.values / fgn_power_spectrum(HurstParam(0.8), p.lambdas, K3)
        assert abs(ratio.mean() - 1.0) < 0.03

    def test_independent_runs_uncorrelated(self):
        h = HurstParam(0.8)
        n = 8192
        a = synthesize_fgn(h, n, 100, K3).values
        b = synthesize_fgn(h, n, 200, K3).values
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4 / np.sqrt(n)

    def test_marginal_normality_single_path(self, synth_cache):
        from fgn_toolkit import ad_normality_test

        assert ad_normality_test(synth_cache(0.7, 16384, 3)).pass_at_5pct


class TestRescaleTrace:
    def test_hits_requested_moments(self, synth_cache):
        t = rescale_trace(synth_cache(0.7, 2048, 5), 10.0, 2.5)
        assert t.mean() == pytest.approx(10.0, abs=1e-10 * 2.5)
        assert t.sd() == pytest.approx(2.5, rel=1e-10)

    def test_identity_when_targets_match(self, synth_cache):
        t = synth_cache(0.7, 2048, 5)
        out = rescale_trace(t, t.mean(), t.sd())
        assert np.allclose(out.values, t.values, rtol=1e-12, atol=1e-18)

    def test_standardization(self, rng):
        t = Trace(rng.standard_normal(500) * 3 + 7)
        out = rescale_trace(t, 0.0, 1.0)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.sd() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            rescale_trace(Trace(np.full(100, 3.0)), 0.0, 1.0)

    @pytest.mark.parametrize("values", [[529835250278883.0] * 20, [0.0, 5e-324] * 10],
                             ids=["mean-not-value", "subnormal-spread"])
    def test_rejects_near_constant(self, values):
        # the float mean of 20 x 529835250278883.0 is not the value (sd 0.19,
        # no range); 0 and 5e-324 have a range, but every squared deviation is 0
        t = Trace(np.array(values))
        assert (t.sd() == 0.0) != (np.ptp(t.values) == 0.0)
        with pytest.raises(ValueError, match="constant"):
            rescale_trace(t, 3.0, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_without_numpy_warning(self, rng):
        with pytest.raises(ValueError, match="finite"):
            rescale_trace(Trace(rng.standard_normal(64)), 0.0, 1e308)

    def test_whittle_estimate_unchanged(self, synth_cache):
        t = synth_cache(0.7, 8192, 5)
        before = whittle_estimate(t, K3).h_hat
        after = whittle_estimate(rescale_trace(t, 100.0, 15.0), K3).h_hat
        assert abs(before - after) <= 1e-6


class TestTraceValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Trace(np.array([1.0, np.nan]))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            Trace(np.array([]))
        with pytest.raises(ValueError):
            Trace(np.zeros((2, 2)))

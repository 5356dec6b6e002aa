"""Synthesis pipeline: fuzzing, phases, full paths, rescaling."""

import numpy as np
import pytest

from fgn_toolkit import (
    BMode,
    HurstParam,
    SpectrumGrid,
    Trace,
    build_spectrum_grid,
    make_rng,
    periodogram,
    rescale_trace,
    synthesize_fgn,
    whittle_estimate,
)
from fgn_toolkit.synth import fuzz_spectrum, random_phase_complexify

K3 = BMode.truncated(3)


class TestFuzzSpectrum:
    def test_zero_grid_stays_zero(self):
        grid = SpectrumGrid(np.array([0.5, 1.0, np.pi]), np.zeros(3))
        out = fuzz_spectrum(grid, make_rng(1))
        assert np.array_equal(out.values, np.zeros(3))

    def test_mean_multiplier_is_one(self):
        # Exp(1) has mean 1; 3 sigma / sqrt(16384) < 0.03
        n_half = 16384
        lam = np.pi * np.arange(1, n_half + 1) / n_half
        grid = SpectrumGrid(lam, np.ones(n_half))
        out = fuzz_spectrum(grid, make_rng(99))
        assert abs(out.values.mean() - 1.0) < 0.03

    def test_deterministic_per_seed(self):
        grid = build_spectrum_grid(HurstParam(0.7), 128, K3)
        a = fuzz_spectrum(grid, make_rng(5))
        b = fuzz_spectrum(grid, make_rng(5))
        assert np.array_equal(a.values, b.values)

    def test_nonnegative(self, rng):
        grid = build_spectrum_grid(HurstParam(0.9), 256, K3)
        assert np.all(fuzz_spectrum(grid, rng).values >= 0)


class TestRandomPhase:
    def test_modulus_squared_equals_value(self, rng):
        grid = build_spectrum_grid(HurstParam(0.8), 256, K3)
        z = random_phase_complexify(grid, rng)
        assert np.allclose(np.abs(z) ** 2, grid.values, rtol=1e-12)

    def test_zero_value_gives_zero(self, rng):
        grid = SpectrumGrid(np.array([1.0, np.pi]), np.array([0.0, 2.0]))
        z = random_phase_complexify(grid, rng)
        assert z[0] == 0j

    def test_nyquist_entry_is_real(self, rng):
        grid = build_spectrum_grid(HurstParam(0.7), 64, K3)
        z = random_phase_complexify(grid, rng)
        assert z[-1].imag == 0.0
        assert z[-1].real >= 0.0


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

    def test_periodogram_preserves_fuzzed_power(self):
        # the periodogram of the output is the fuzzed spectrum divided by n
        h = HurstParam(0.75)
        n, seed = 2048, 77
        rng = make_rng(seed)
        fuzzed = fuzz_spectrum(build_spectrum_grid(h, n, K3), rng)
        t = synthesize_fgn(h, n, seed, K3)
        p = periodogram(t)
        assert np.allclose(p.values, fuzzed.values / n, rtol=1e-9)

    def test_forward_transform_recovers_half_spectrum(self):
        # zero DC term, each phase in its own bin, Nyquist bin real
        h = HurstParam(0.75)
        n, seed = 2048, 78
        rng = make_rng(seed)
        half = random_phase_complexify(fuzz_spectrum(build_spectrum_grid(h, n, K3), rng), rng)
        t = synthesize_fgn(h, n, seed, K3)
        expected = np.concatenate(([0.0], half))
        assert np.allclose(np.fft.rfft(t.values), expected, rtol=0, atol=1e-12 * np.abs(half).max())

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

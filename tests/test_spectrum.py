"""Spectrum math: autocorrelation, A and B factors, full spectrum, grids."""

import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from fgn_toolkit import (
    BMode,
    HurstParam,
    build_spectrum_grid,
    fgn_autocorrelation,
    fgn_power_spectrum,
    spectrum_b,
)
from fgn_toolkit import spectrum
from fgn_toolkit.spectrum import EXACT, FAST, NEAR_EXACT, _Shape, spectrum_factor_a

# Error-bound evaluation grid: h values by column of the published error
# curves, lambda from 0.01 out to 3.0 in steps of 0.3.
ERROR_GRID_H = (0.5, 0.6, 0.7, 0.8, 0.9)
ERROR_GRID_LAMBDA = np.concatenate([[0.01], np.arange(0.3, 3.01, 0.3)])


class TestHurstParam:
    def test_accepts_interior(self):
        assert HurstParam(0.75).h == 0.75

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.3, 1.2])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ValueError):
            HurstParam(bad)

    def test_permissive_accepts_half(self):
        assert HurstParam.permissive(0.5).h == 0.5

    def test_permissive_still_rejects_below_half(self):
        with pytest.raises(ValueError):
            HurstParam.permissive(0.49)


class TestBMode:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("fast", BMode.truncated_double_prime()),
            ("exact", BMode.partial(200)),
            ("k:3", BMode.truncated(3)),
            ("k:7", BMode.truncated(7)),
            ("partial:200", BMode.partial(200)),
            ("prime", BMode.truncated_prime()),
            ("doubleprime", BMode.truncated_double_prime()),
        ],
    )
    def test_parse(self, text, expected):
        assert BMode.parse(text) == expected

    @pytest.mark.parametrize("mode", [BMode.truncated(5), BMode.partial(123),
                                      BMode.truncated_prime(), BMode.truncated_double_prime()])
    def test_str_roundtrip(self, mode):
        assert BMode.parse(str(mode)) == mode

    @pytest.mark.parametrize("text", ["k:0", "partial:0", "bogus", "k:x", "k:2.5", "partial:1e3"])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            BMode.parse(text)


class TestAutocorrelation:
    def test_white_noise_uncorrelated(self):
        h = HurstParam.permissive(0.5)
        for k in range(1, 30):
            assert fgn_autocorrelation(h, k) == 0.0

    @pytest.mark.parametrize("hval", [0.51, 0.7, 0.95])
    def test_lag_zero_is_one(self, hval):
        assert fgn_autocorrelation(HurstParam(hval), 0) == 1.0

    def test_lag_one_frozen_value(self):
        # 0.5 * (2**1.4 - 2), checked against high-precision evaluation
        got = fgn_autocorrelation(HurstParam(0.7), 1)
        assert got == pytest.approx(0.3195079107728942, abs=1e-15)

    def test_bounded_by_one(self):
        lags = np.arange(0, 200)
        for hval in (0.55, 0.7, 0.9, 0.99):
            r = fgn_autocorrelation(HurstParam(hval), lags)
            assert np.all(np.abs(r) <= 1.0)

    def test_positive_lags_positive_for_lrd(self):
        r = fgn_autocorrelation(HurstParam(0.8), np.arange(1, 100))
        assert np.all(r > 0)

    def test_rejects_negative_lag(self):
        with pytest.raises(ValueError):
            fgn_autocorrelation(HurstParam(0.7), -1)


class TestFactorA:
    def test_zero_at_zero_frequency(self):
        assert spectrum_factor_a(HurstParam.permissive(0.5), 0.0) == 0.0

    def test_value_at_pi_for_half(self):
        # 2 * sin(pi/2) * Gamma(2) * (1 - cos pi) = 4, exactly representable
        assert spectrum_factor_a(HurstParam.permissive(0.5), np.pi) == 4.0

    def test_frozen_value(self):
        # 2 sin(0.9 pi) Gamma(2.8) * 1, frozen from scipy.special.gamma
        got = spectrum_factor_a(HurstParam(0.9), np.pi / 2)
        assert got == pytest.approx(1.0361282886645082, rel=1e-12)

    def test_nonnegative_on_domain(self):
        lam = np.linspace(-np.pi, np.pi, 101)
        vals = spectrum_factor_a(HurstParam(0.8), lam)
        assert np.all(vals >= 0)

    def test_rejects_outside_pi(self):
        with pytest.raises(ValueError):
            spectrum_factor_a(HurstParam(0.8), 3.2)

    @pytest.mark.parametrize("hval", [0.55, 0.7, 0.95])
    def test_small_frequencies_keep_full_precision(self, hval):
        # 1 - cos lam computed directly cancels: 2.5e-6 relative error at the
        # lowest frequency of a 2^21-point grid, and 0 at lam = 1e-9
        lam = np.array([2 * np.pi / 2**21, 2 * np.pi / 2**16, 1e-9, 3e-7, 1e-5, 1e-4])
        c = 2.0 * np.sin(np.pi * hval) * math.gamma(2.0 * hval + 1.0)
        got = spectrum_factor_a(HurstParam(hval), lam) / c
        np.testing.assert_allclose(got, lam**2 / 2 - lam**4 / 24, rtol=4 * np.finfo(float).eps)


def unrolled_six_term_b(lam, h):
    """Independent hand-unrolled k=3 expression used as an oracle."""
    d = -2.0 * h - 1.0
    dp = -2.0 * h
    a1, b1 = 2 * np.pi + lam, 2 * np.pi - lam
    a2, b2 = 4 * np.pi + lam, 4 * np.pi - lam
    a3, b3 = 6 * np.pi + lam, 6 * np.pi - lam
    a4, b4 = 8 * np.pi + lam, 8 * np.pi - lam
    return (
        a1**d + b1**d + a2**d + b2**d + a3**d + b3**d
        + (a3**dp + b3**dp + a4**dp + b4**dp) / (8 * h * np.pi)
    )


def fourier_grid(n):
    return 2.0 * np.pi * np.arange(1, n // 2 + 1) / n


def per_term_b(lam, h, n_terms):
    """Raw partial sum written out one term at a time, in order j = 1..n_terms."""
    d = -2.0 * h - 1.0
    out = np.zeros_like(lam)
    for j in range(1, n_terms + 1):
        out += (2 * np.pi * j + lam) ** d + (2 * np.pi * j - lam) ** d
    return out


class TestSpectrumB:
    def test_truncated3_matches_hand_unrolled(self):
        lam = np.linspace(0.01, np.pi, 53)
        for hval in (0.5, 0.6, 0.75, 0.9, 0.95):
            h = HurstParam.permissive(hval)
            got = spectrum_b(h, lam, BMode.truncated(3))
            want = unrolled_six_term_b(lam, hval)
            assert np.allclose(got, want, rtol=1e-12)

    def test_frozen_example_half_pi(self):
        # direct arithmetic at h = 1/2, lam = pi: d = -2, d' = -1
        want = sum(
            (2 * j * np.pi + np.pi) ** -2 + (2 * j * np.pi - np.pi) ** -2
            for j in (1, 2, 3)
        )
        want += (1 / (7 * np.pi) + 1 / (9 * np.pi) + 1 / (5 * np.pi) + 1 / (7 * np.pi)) / (
            4 * np.pi
        )
        got = spectrum_b(HurstParam.permissive(0.5), np.pi, BMode.truncated(3))
        assert got == pytest.approx(want, rel=1e-12)

    def test_partial_monotone_in_terms_and_below_truncated(self):
        lam = np.linspace(0.05, np.pi, 17)
        for hval in (0.5, 0.7, 0.9):
            h = HurstParam.permissive(hval)
            prev = None
            for n_terms in (10, 100, 200, 1000, 10000):
                cur = spectrum_b(h, lam, BMode.partial(n_terms))
                if prev is not None:
                    assert np.all(cur >= prev)
                prev = cur
            assert np.all(prev < spectrum_b(h, lam, BMode.truncated(3)))

    def test_truncated3_error_bounds(self):
        # overestimates by less than 0.5% relative to the near-exact sum
        for hval in ERROR_GRID_H:
            h = HurstParam.permissive(hval)
            ref = spectrum_b(h, ERROR_GRID_LAMBDA, NEAR_EXACT)
            err = (spectrum_b(h, ERROR_GRID_LAMBDA, BMode.truncated(3)) - ref) / ref
            assert np.all(err > 0)
            assert np.all(err <= 0.005)

    def test_double_prime_error_bound_at_frozen_point(self):
        h = HurstParam.permissive(0.5)
        ref = spectrum_b(h, 3.0, NEAR_EXACT)
        got = spectrum_b(h, 3.0, BMode.truncated_double_prime())
        assert abs(got - ref) / ref <= 7.5e-5

    def test_correction_ordering_max_over_grid(self):
        # worst-case error shrinks with each correction stage
        for hval in ERROR_GRID_H:
            h = HurstParam.permissive(hval)
            ref = spectrum_b(h, ERROR_GRID_LAMBDA, NEAR_EXACT)
            e_k3 = np.abs(spectrum_b(h, ERROR_GRID_LAMBDA, BMode.truncated(3)) - ref).max()
            e_p = np.abs(spectrum_b(h, ERROR_GRID_LAMBDA, BMode.truncated_prime()) - ref).max()
            e_dp = np.abs(
                spectrum_b(h, ERROR_GRID_LAMBDA, BMode.truncated_double_prime()) - ref
            ).max()
            assert e_dp <= e_p <= e_k3

    def test_positive_in_all_modes(self):
        lam = np.linspace(0.001, np.pi, 25)
        for mode in (BMode.truncated(1), BMode.truncated(3), BMode.truncated_prime(),
                     BMode.truncated_double_prime(), BMode.partial(1), EXACT):
            assert np.all(spectrum_b(HurstParam(0.7), lam, mode) > 0)

    def test_partial_is_elementwise(self):
        # a value must not depend on how many other frequencies share the call
        h = HurstParam(0.7)
        lam = fourier_grid(2**18)
        full = spectrum_b(h, lam, EXACT)
        picks = np.random.default_rng(7).choice(lam.size, size=32, replace=False)
        alone = np.array([spectrum_b(h, lam[i], EXACT) for i in picks])
        assert np.array_equal(alone, full[picks])

    @pytest.mark.parametrize("hval", [0.55, 0.8, 0.95])
    def test_exact_mode_rounds_like_per_term_loop(self, hval):
        # the acceptance battery's exact estimates depend on these bits;
        # the sum must also stream rather than hold a (terms, lam) array
        h = HurstParam(hval)
        lam = fourier_grid(32768)
        tracemalloc.start()
        try:
            got = spectrum_b(h, lam, EXACT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, per_term_b(lam, hval, 200))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("lam", [0.0, -0.1, 3.2])
    def test_rejects_out_of_domain(self, lam):
        with pytest.raises(ValueError):
            spectrum_b(HurstParam(0.7), lam, BMode.truncated(3))


class TestPowerSpectrum:
    def test_finite_positive_near_half(self):
        got = fgn_power_spectrum(HurstParam(0.5 + 1e-9), np.pi / 2, NEAR_EXACT)
        assert np.isfinite(got) and got > 0

    def test_relative_error_of_truncated3_on_f(self):
        for hval in ERROR_GRID_H:
            h = HurstParam.permissive(hval)
            ref = fgn_power_spectrum(h, ERROR_GRID_LAMBDA, NEAR_EXACT)
            err = (fgn_power_spectrum(h, ERROR_GRID_LAMBDA, BMode.truncated(3)) - ref) / ref
            assert np.all(np.abs(err) <= 0.005)

    @pytest.mark.parametrize("hval", [0.6, 0.7, 0.8, 0.9])
    def test_strictly_decreasing_on_coarse_grid(self, hval):
        # fine grids can hit double-precision resolution near pi, so the
        # monotonicity scan uses n = 1024
        grid = build_spectrum_grid(HurstParam(hval), 1024, BMode.truncated(3))
        assert np.all(np.diff(grid.values) < 0)

    def test_minimum_at_pi(self):
        grid = build_spectrum_grid(HurstParam(0.9), 512, BMode.truncated(3))
        assert np.argmin(grid.values) == len(grid) - 1

    def test_rejects_zero_lambda(self):
        with pytest.raises(ValueError):
            fgn_power_spectrum(HurstParam(0.7), 0.0, EXACT)


class TestBuildSpectrumGrid:
    def test_frequencies_for_n8(self):
        grid = build_spectrum_grid(HurstParam(0.7), 8, BMode.truncated(3))
        assert np.array_equal(grid.lambdas, np.array([np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]))

    @pytest.mark.parametrize("n", [0, 7, -4])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            build_spectrum_grid(HurstParam(0.7), n, BMode.truncated(3))

    def test_last_frequency_never_exceeds_pi(self):
        # 2 pi (n/2) / n rounds above pi for n = 26, 52, 94, ...; other
        # frequencies keep the bits of 2 pi j / n
        for n in range(2, 4002, 2):
            lam = spectrum._fourier_frequencies(n)
            raw = 2.0 * np.pi * np.arange(1, n // 2 + 1, dtype=float) / n
            assert lam[-1] <= np.pi and lam[-1] == min(raw[-1], np.pi)
            assert np.array_equal(lam[:-1], raw[:-1])
        grid = build_spectrum_grid(HurstParam(0.7), 26, BMode.truncated(3))
        assert grid.lambdas[-1] == np.pi

    def test_values_match_pointwise_spectrum(self):
        h = HurstParam(0.8)
        grid = build_spectrum_grid(h, 64, FAST)
        assert np.allclose(grid.values, fgn_power_spectrum(h, grid.lambdas, FAST), rtol=1e-15)

    def test_large_grid_is_fast(self):
        h = HurstParam.permissive(0.5)
        start = time.perf_counter()
        build_spectrum_grid(h, 32768, BMode.truncated(3))
        assert time.perf_counter() - start < 1.0


CHUNK_MODES = [BMode.parse(m) for m in ("k:1", "k:3", "prime", "doubleprime", "partial:7",
                                        "partial:200")]


def forced_chunks(size):
    """Uneven column ranges covering 0..size, with one-column ranges at both ends."""
    cuts = sorted({c for c in (1, size // 3, size // 2 + 1, size - 1) if 0 < c < size})
    bounds = [0] + cuts + [size]
    return list(zip(bounds[:-1], bounds[1:]))


class TestChunks:
    """_Shape writes B and q over column ranges: any chunking gives the same bits."""

    @pytest.mark.parametrize("size", [1, 2, 3, 2047, 2048, 16384, 2**20])
    @pytest.mark.parametrize("mode", CHUNK_MODES, ids=str)
    def test_chunked_equals_whole(self, mode, size):
        lam = np.pi * np.arange(1, size + 1) / size
        shape = _Shape(lam, mode)
        for power in (False, True):  # b, then q
            whole = shape._run(0.73, np.full(size, np.nan), power, [(0, size)])
            chunked = shape._run(0.73, np.full(size, np.nan), power, forced_chunks(size))
            assert np.array_equal(chunked, whole)

    def test_public_calls_equal_one_chunk(self):
        # b and q split a call this large across the CPUs; the bits are a
        # single chunk's
        lam = fourier_grid(32768)
        shape = _Shape(lam, EXACT)
        assert len(shape._chunks()) == min(spectrum._cpu_count(), spectrum._MAX_CHUNKS)
        one = [(0, lam.size)]
        assert np.array_equal(shape.b(0.6, np.empty_like(lam)),
                              shape._run(0.6, np.empty_like(lam), False, one))
        assert np.array_equal(shape.q(0.6, np.empty_like(lam)),
                              shape._run(0.6, np.empty_like(lam), True, one))

    def test_chunk_count_is_bounded(self, monkeypatch):
        lam = fourier_grid(2**21)
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 64)
        chunks = _Shape(lam, FAST)._chunks()
        assert len(chunks) == spectrum._MAX_CHUNKS
        assert [c0 for c0, _ in chunks[1:]] == [c1 for _, c1 in chunks[:-1]]
        assert (chunks[0][0], chunks[-1][1]) == (0, lam.size)
        # each chunk keeps at least the minimum work; small calls stay whole
        assert len(_Shape(fourier_grid(2**17), FAST)._chunks()) == 2
        assert len(_Shape(fourier_grid(32768), FAST)._chunks()) == 1
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 1)
        assert len(_Shape(lam, FAST)._chunks()) == 1

    def test_partial_chunks_keep_a_column_floor(self, monkeypatch):
        # many powers per column on a short grid do not split it into chunks
        # too narrow to pay for their threads
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 64)
        assert len(_Shape(fourier_grid(4096), EXACT)._chunks()) == 1
        assert len(_Shape(fourier_grid(32768), EXACT)._chunks()) == 8

    def test_many_threads_with_fast_switching_keep_bits(self):
        # more chunks than CPUs, switching threads every few microseconds: a
        # chunk writing outside its own columns or work region would show
        lam = fourier_grid(32768)
        for mode in (EXACT, FAST, BMode.partial(7)):
            shape = _Shape(lam, mode)
            whole = shape._run(0.66, np.empty_like(lam), True, [(0, lam.size)])
            bounds = np.linspace(0, lam.size, 33).astype(int)
            chunks = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(3):
                    got = shape._run(0.66, np.full_like(lam, np.nan), True, chunks)
                    assert np.array_equal(got, whole)
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("mode", [FAST, BMode.truncated(1), EXACT], ids=str)
    def test_logs_taken_on_chunks_equal_whole(self, monkeypatch, mode):
        # the lam-only logs of a grid this large are taken per column range
        lam = fourier_grid(2**18)
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 1)
        whole = _Shape(lam, mode)
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 64)
        split = _Shape(lam, mode)
        assert len(split._chunks()) > 1
        assert np.array_equal(split.log_lam, whole.log_lam)
        assert np.array_equal(split.log_lam, np.log(lam))
        if mode.kind != "partial":
            assert np.array_equal(split.logs, whole.logs)

    def test_worker_error_reaches_caller(self):
        # a chunk that fails on a worker thread raises in the calling thread
        lam = fourier_grid(4096)
        shape = _Shape(lam, EXACT)
        with pytest.raises(ValueError):
            shape._run(0.7, np.empty(16), False, [(0, 16), (16, lam.size)])

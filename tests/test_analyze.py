"""Aggregation, variance-time curves, normality testing, Q-Q data, ACF."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fgn_toolkit import (
    AD_CRITICAL_5PCT,
    HurstParam,
    Trace,
    ad_normality_test,
    exact_fgn,
    make_rng,
    qq_points,
    sample_autocorrelation,
    synthesize_fgn,
    variance_time_curve,
)
from fgn_toolkit import analyze
from fgn_toolkit.analyze import _ndtr, _ndtri, ad_statistic, aggregate, default_m_levels
from scipy.stats import norm


def force_ranges(monkeypatch, count):
    """Make the analysis split its passes into ``count`` ranges (fewer where
    there are fewer columns)."""
    monkeypatch.setattr(analyze, "_chunk_count", lambda work, columns: min(count, columns))


def fast_switching(run):
    """``run()`` with threads switching every few microseconds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return run()
    finally:
        sys.setswitchinterval(interval)


def ad_formula(x):
    """A^2 of each row of x as the whole-array expression of its definition."""
    n = x.shape[-1]
    y = np.sort(x, axis=-1)
    mean = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, ddof=1, keepdims=True)
    z = np.clip(_ndtr((y - mean) / sd), 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    s = np.sum((2.0 * i - 1.0) / n * (np.log(z) + np.log1p(-z[..., ::-1])), axis=-1)
    return (-n - s) * (1.0 + 0.75 / n + 2.25 / n**2)


def peak_bytes(run):
    """Peak traced allocation while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# sorted grids of the normal CDF's and quantile's accuracy tests
PHI_GRID = np.linspace(-37.0, 8.3, 4531)
PHI_INV_GRID = np.concatenate([np.logspace(-300, -1, 600, endpoint=False), np.linspace(0.1, 0.9, 801),
                               1.0 - np.logspace(-1, -15, 300)[1:]])


def relative_error(got, want):
    return np.abs(got - want) / np.abs(want)


class TestNormalFunctions:
    """``_ndtr`` and ``_ndtri`` against mpmath and scipy.special.  Below 0 the
    CDF keeps its relative accuracy (scipy's ``ndtr`` loses hundreds of ulps
    below -10); above 0 its error is absolute, as 1 - Phi is rounded to 1."""

    def test_cdf_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = np.array([float(mpmath.ncdf(mpmath.mpf(z))) for z in PHI_GRID])
        got = _ndtr(PHI_GRID)
        low = PHI_GRID <= 0
        assert relative_error(got[low], want[low]).max() <= 3e-15
        assert np.abs(got[~low] - want[~low]).max() <= 2.5e-16

    def test_cdf_against_scipy(self):
        from scipy.special import ndtr

        want = ndtr(PHI_GRID)
        got = _ndtr(PHI_GRID)
        low = PHI_GRID <= 0
        assert relative_error(got[low], want[low]).max() <= 3e-13
        assert np.abs(got[~low] - want[~low]).max() <= 3.5e-16

    def test_quantile_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        got = _ndtri(PHI_INV_GRID)
        want = np.empty_like(got)
        with mpmath.workdps(40):
            for i, (p, x) in enumerate(zip(PHI_INV_GRID, got)):
                # two Newton steps from a 1e-15-close start: exact to 40 digits
                x, p = mpmath.mpf(x), mpmath.mpf(p)
                for _ in range(2):
                    x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
                want[i] = float(x)
        nonzero = want != 0  # Phi^-1(1/2) = 0 exactly
        assert np.array_equal(got[~nonzero], want[~nonzero])
        assert relative_error(got[nonzero], want[nonzero]).max() <= 2e-15

    def test_quantile_against_scipy(self):
        from scipy.special import ndtri

        want = ndtri(PHI_INV_GRID)
        got = _ndtri(PHI_INV_GRID)
        nonzero = want != 0
        assert np.array_equal(got[~nonzero], want[~nonzero])
        assert relative_error(got[nonzero], want[nonzero]).max() <= 3e-15


class TestAggregate:
    def test_level_one_is_identity(self, rng):
        t = Trace(rng.standard_normal(100))
        assert np.array_equal(aggregate(t, 1).values, t.values)

    def test_hand_example(self):
        out = aggregate(Trace(np.array([1.0, 2.0, 3.0, 4.0])), 2)
        assert np.array_equal(out.values, np.array([1.5, 3.5]))

    def test_constant_stays_constant(self):
        t = Trace(np.full(60, 4.2))
        for m in (1, 2, 5, 30):
            assert np.allclose(aggregate(t, m).values, 4.2)

    def test_trailing_remainder_dropped(self, rng):
        out = aggregate(Trace(rng.standard_normal(10)), 3)
        assert out.n == 3

    def test_rejects_oversized_level(self, rng):
        with pytest.raises(ValueError):
            aggregate(Trace(rng.standard_normal(10)), 11)

    @pytest.mark.parametrize("n", [4096, 4097, 32768])
    def test_block_means_keep_numpy_mean_bits(self, rng, n):
        # column sums below 8 values a block, row reductions from 8
        t = Trace(rng.standard_normal(n))
        for m in range(1, 21):
            k = n // m
            want = t.values[: k * m].reshape(k, m).mean(axis=1)
            assert np.array_equal(aggregate(t, m).values, want), m

    def test_block_mean_associativity(self, rng):
        t = Trace(rng.standard_normal(240))
        lhs = aggregate(aggregate(t, 4), 5).values
        rhs = aggregate(t, 20).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


class TestVarianceTime:
    def test_iid_normal_implies_half(self, rng):
        t = Trace(rng.standard_normal(32768))
        curve = variance_time_curve(t)
        assert curve.implied_h == pytest.approx(0.5, abs=0.05)
        assert curve.fitted_slope == pytest.approx(-1.0, abs=0.1)

    def test_first_level_normalized_to_one(self, rng):
        curve = variance_time_curve(Trace(rng.standard_normal(4096)))
        assert curve.m_levels[0] == 1
        assert curve.norm_vars[0] == 1.0

    @pytest.mark.parametrize("n", [4096, 4097, 32768])
    def test_level_one_equals_its_aggregate(self, synth_cache, rng, n):
        # level 1 is taken as 1.0, not as the variance of a copy over base_var
        t = synth_cache(0.8, n, 11) if n == 32768 else Trace(rng.standard_normal(n))
        curve = variance_time_curve(t)
        base_var = float(np.var(t.values, ddof=1))
        norm_vars = np.array(
            [np.var(aggregate(t, int(m)).values, ddof=1) / base_var for m in curve.m_levels]
        )
        slope = float(np.polyfit(np.log10(curve.m_levels), np.log10(norm_vars), 1)[0])
        assert curve.norm_vars.tolist() == norm_vars.tolist()
        assert curve.fitted_slope == slope
        assert curve.implied_h == 1.0 + slope / 2.0

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_level_variances_keep_numpy_var_bits(self, synth_cache, count):
        x = synth_cache(0.8, 32768, 11).values
        levels = default_m_levels(x.size)[1:]
        got = analyze._level_variances(x, levels, count)
        for m, v in zip(levels, got):
            k = x.size // m
            assert v == np.var(x[: k * m].reshape(k, m).mean(axis=1), ddof=1), m

    def test_many_threads_with_fast_switching_keep_bits(self, synth_cache):
        # more ranges than CPUs, switching threads every few microseconds: a
        # level writing outside its range's buffer region would show
        x = synth_cache(0.8, 32768, 11).values
        levels = default_m_levels(x.size)[1:]
        whole = analyze._level_variances(x, levels, 1)
        for count in (5, levels.size):
            for _ in range(3):
                got = fast_switching(lambda: analyze._level_variances(x, levels, count))
                assert np.array_equal(got, whole)

    @pytest.mark.parametrize("count", [1, 2])
    def test_peak_memory(self, monkeypatch, count):
        # at most np.var's one trace-sized temporary (the base variance,
        # which the trace keeps from the set-up call) and an eighth more: a
        # level that allocated its own block means would add half a trace
        # at m = 2
        n = 2**16
        t = synthesize_fgn(HurstParam(0.8), n, 5)
        force_ranges(monkeypatch, count)
        variance_time_curve(t)  # first-call set-up
        assert peak_bytes(lambda: variance_time_curve(t)) < 9 * n

    def test_synthesized_path_implied_h(self, synth_cache):
        curve = variance_time_curve(synth_cache(0.7, 32768, 303))
        assert curve.implied_h == pytest.approx(0.7, abs=0.05)

    def test_strong_dependence_underestimates_but_not_wildly(self, synth_cache):
        curve = variance_time_curve(synth_cache(0.9, 32768, 303))
        assert curve.implied_h >= 0.75

    def test_exact_oracle_variances_track_power_law(self):
        # Var(X^(m)) / Var(X) should stay near m^(-2(1-h)); statistical
        # tolerance 30% at n = 4096 for m up to n/100
        levels = np.array([1, 2, 4, 8, 16, 32, 40])
        for hval in (0.6, 0.75):
            t = exact_fgn(HurstParam(hval), 4096, make_rng(8))
            curve = variance_time_curve(t, levels)
            expected = levels ** (-2 * (1 - hval))
            assert np.all(np.abs(curve.norm_vars / expected - 1) <= 0.3)

    def test_rejects_levels_leaving_few_points(self, rng):
        t = Trace(rng.standard_normal(100))
        with pytest.raises(ValueError):
            variance_time_curve(t, [1, 2, 20])

    def test_default_levels_name_a_short_length(self, rng):
        # below 20 values the default levels are just [1]
        with pytest.raises(ValueError, match="^variance-time needs at least 20 samples, got 15$"):
            variance_time_curve(Trace(rng.standard_normal(15)))
        assert variance_time_curve(Trace(rng.standard_normal(20))).m_levels.tolist() == [1, 2]

    def test_rejects_levels_not_starting_at_one(self, rng):
        t = Trace(rng.standard_normal(1000))
        with pytest.raises(ValueError):
            variance_time_curve(t, [2, 4, 8])

    def test_default_levels_log_spaced(self):
        levels = default_m_levels(32768)
        assert levels[0] == 1
        assert levels[-1] <= 3276
        assert np.all(np.diff(levels) > 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("analysis", [
    variance_time_curve, ad_normality_test, qq_points,
    lambda t: sample_autocorrelation(t, 3),
], ids=["vt", "ad", "qq", "acf"])
def test_overflowing_variance_is_degenerate(rng, analysis):
    # 64 normals x 1e200: vt used to report a vanishing level after 3
    # warnings, ad a2 = 25.03, acf nan
    with pytest.raises(ValueError, match="^the sample variance overflows the float range$"):
        analysis(Trace(rng.standard_normal(64) * 1e200))


class TestNormalityTest:
    def test_oracle_gaussian_passes_most_seeds(self):
        # exact FGN is Gaussian by construction; the 5% test should pass
        # about 95% of the time, gate at 90% of 50 seeds
        h = HurstParam(0.7)
        passes = sum(
            ad_normality_test(exact_fgn(h, 4096, make_rng(1000 + i))).pass_at_5pct
            for i in range(50)
        )
        assert passes >= 45

    def test_exponential_sample_fails(self):
        fails = sum(
            not ad_normality_test(Trace(make_rng(2000 + i).exponential(1.0, 4096))).pass_at_5pct
            for i in range(50)
        )
        assert fails >= 49

    def test_affine_invariant(self, rng):
        x = rng.standard_normal(4096)
        base = ad_normality_test(Trace(x))
        mapped = ad_normality_test(Trace(3.0 * x + 11.0))
        assert base.pass_at_5pct == mapped.pass_at_5pct
        assert base.a2_statistic == pytest.approx(mapped.a2_statistic, rel=1e-8)

    def test_statistic_of_rows_matches_each_row(self, rng):
        x = rng.standard_normal((5, 300)) * 2.0 + 1.0
        each = np.array([ad_statistic(row) for row in x])
        assert np.allclose(ad_statistic(x), each, rtol=1e-12, atol=0)

    def test_critical_value_calibration_spot_check(self):
        # small re-run of the Monte Carlo behind the frozen 0.752
        rng = make_rng(424242)
        reps, n = 20000, 256
        stats = np.empty(reps)
        for start in range(0, reps, 2000):
            block = rng.standard_normal((2000, n))
            y = np.sort(block, axis=1)
            mean = block.mean(axis=1, keepdims=True)
            sd = block.std(axis=1, ddof=1, keepdims=True)
            z = np.clip(norm.cdf((y - mean) / sd), 1e-300, 1 - 1e-16)
            i = np.arange(1, n + 1)
            s = np.sum((2 * i - 1) / n * (np.log(z) + np.log1p(-z[:, ::-1])), axis=1)
            stats[start : start + 2000] = (-n - s) * (1 + 0.75 / n + 2.25 / n**2)
        assert np.quantile(stats, 0.95) == pytest.approx(AD_CRITICAL_5PCT, abs=0.02)

    def test_rejects_short_input(self, rng):
        with pytest.raises(ValueError):
            ad_normality_test(Trace(rng.standard_normal(10)))

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            ad_normality_test(Trace(np.full(100, 1.0)))

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("n", [20, 1000, 12345])
    def test_statistic_keeps_the_formula_bits(self, rng, monkeypatch, n, count):
        # in-place passes on any column ranges: the bits of the expression as
        # it was written, for each row of a 2-d input and for each row alone
        force_ranges(monkeypatch, count)
        x = rng.standard_normal((3, n)) * 2.0 + 1.0
        want = ad_formula(x)
        assert ad_statistic(x).tolist() == want.tolist()
        assert [ad_statistic(row) for row in x] == want.tolist()

    @pytest.mark.parametrize("block", [2, 64])
    @pytest.mark.parametrize("n", [2, 3, 21, 1000, 1001])
    def test_statistic_in_small_blocks_keeps_the_formula_bits(self, monkeypatch, n, block):
        # many blocks of pairs per range, down to one column of three rows
        force_ranges(monkeypatch, 2)
        monkeypatch.setattr(analyze, "_AD_BLOCK", block)
        x = make_rng(n).standard_normal((3, n)) * 2.0 + 1.0
        want = ad_formula(x)
        assert ad_statistic(x).tolist() == want.tolist()
        assert [ad_statistic(row) for row in x] == want.tolist()

    @pytest.mark.parametrize("block", [256, 32768])
    def test_statistic_of_many_short_rows_keeps_the_formula_bits(self, monkeypatch, block):
        # blocks of several rows each, the last one shorter, on two ranges
        force_ranges(monkeypatch, 2)
        monkeypatch.setattr(analyze, "_AD_BLOCK", block)
        x = make_rng(7).standard_normal((1001, 64)) * 2.0 + 1.0
        assert ad_statistic(x).tolist() == ad_formula(x).tolist()

    @pytest.mark.parametrize("shape", [(2**21,), (8, 2**18)])
    def test_statistic_peak_memory_is_its_sorted_copy(self, monkeypatch, shape):
        # the sorted copy, made in place into the terms, and a block of
        # scratch per range
        force_ranges(monkeypatch, 2)
        x = make_rng(33).standard_normal(shape)
        ad_statistic(x[..., :100])  # first-call set-up
        assert peak_bytes(lambda: ad_statistic(x)) < 1.125 * x.nbytes

    def test_many_threads_with_fast_switching_keep_bits(self, monkeypatch, synth_cache):
        x = synth_cache(0.8, 32768, 11).values
        whole = ad_statistic(x)
        force_ranges(monkeypatch, 32)
        for _ in range(3):
            assert fast_switching(lambda: ad_statistic(x)) == whole

    def test_statistic_nonnegative_for_gaussian(self, rng):
        assert ad_statistic(rng.standard_normal(1000)) >= 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [
        [str(i) for i in range(1, 21)],
        [float(i) for i in range(19)] + [float("nan")],
        [float(i) for i in range(19)] + [float("-inf")],
        [1e200, -1e200] * 10,
        [2.5] * 20,
        np.array([[0.0, 1.0, 2.0], [3.0, 3.0, 3.0]]),
        np.array([True, False] * 10),
        [0.5],
    ], ids=["strings", "nan", "inf", "sd-overflows", "constant", "constant-row", "bools", "one"])
    def test_statistic_rejects_bad_input(self, values):
        # strings were parsed (A^2 = 0.2303) and a NaN gave nan, unwarned
        with pytest.raises(ValueError):
            ad_statistic(values)


class TestQQPoints:
    def test_three_point_example(self):
        pts = qq_points(Trace(np.array([0.0, -1.0, 1.0])))
        assert np.array_equal(pts[:, 1], np.array([-1.0, 0.0, 1.0]))
        assert np.allclose(pts[:, 0], norm.ppf([1 / 6, 1 / 2, 5 / 6]), rtol=1e-12)

    def test_perfect_scores_sit_on_a_line(self):
        n = 1000
        scores = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
        pts = qq_points(Trace(scores))
        slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
        residuals = pts[:, 1] - (slope * pts[:, 0] + intercept)
        assert np.abs(residuals).max() <= 1e-9

    def test_synthesized_strong_dependence_still_near_normal(self, synth_cache):
        pts = qq_points(synth_cache(0.95, 32768, 41))
        r = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        assert r * r >= 0.999

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            qq_points(Trace(np.array([1.0])))

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 1000, 12345, 32768])
    def test_keeps_the_column_stack_bits(self, rng, monkeypatch, n, count):
        force_ranges(monkeypatch, count)
        x = rng.standard_normal(n)
        want = np.column_stack([_ndtri((np.arange(1, n + 1) - 0.5) / n), np.sort(x)])
        assert np.array_equal(qq_points(Trace(x)), want)

    def test_many_threads_with_fast_switching_keep_bits(self, monkeypatch, synth_cache):
        t = synth_cache(0.8, 32768, 11)
        whole = qq_points(t)
        force_ranges(monkeypatch, 32)
        for _ in range(3):
            assert np.array_equal(fast_switching(lambda: qq_points(t)), whole)

    @pytest.mark.parametrize("count", [1, 2])
    def test_peak_memory(self, monkeypatch, count):
        # the (n, 2) result and one sorted copy, and an eighth of a trace
        # more: a range that allocated its own plotting positions would add
        # its share of a trace
        n = 2**16
        t = synthesize_fgn(HurstParam(0.8), n, 5)
        force_ranges(monkeypatch, count)
        qq_points(t)  # first-call set-up
        assert peak_bytes(lambda: qq_points(t)) < 8 * n * 3 + n


ACF_CHILD = """
import sys
import numpy as np
from fgn_toolkit import HurstParam, sample_autocorrelation, synthesize_fgn
rho = sample_autocorrelation(synthesize_fgn(HurstParam(0.8), 2**16, 3), 1000)
np.save(sys.argv[1], rho)
"""


class TestSampleAutocorrelationKernel:
    """The blocked Gram product against references that sum lag by lag."""

    P = analyze._ACF_BLOCK

    @pytest.fixture(scope="class")
    def fsum_reference(self):
        # n is no multiple of the block length, so the last block is padded
        t = synthesize_fgn(HurstParam(0.8), 4 * (2 * self.P + 3) + 202, 8)
        assert t.n % self.P != 0
        x = t.values - t.mean()
        r = [math.fsum(x * x)]
        r += [math.fsum(x[:-k] * x[k:]) for k in range(1, 2 * self.P + 4)]
        return t, np.array(r) / r[0]

    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
        ids=["1", "P-1", "P", "P+1", "2P+3"],
    )
    def test_matches_fsum_reference(self, fsum_reference, blocks, extra):
        t, want = fsum_reference
        max_lag = blocks * self.P + extra
        rho = sample_autocorrelation(t, max_lag)
        assert rho.shape == (max_lag + 1,)
        assert rho[0] == 1.0
        assert np.abs(rho - want[: max_lag + 1]).max() <= 1e-14

    def test_largest_lag_memory_stays_bounded(self):
        # an uncapped (max_lag+1)^2 Gram at n = 2^16, max_lag = n/4 - 1
        # would hold 2^28 values (2 GiB)
        n = 2**16
        max_lag = n // 4 - 1
        t = synthesize_fgn(HurstParam(0.7), n, 4)
        tracemalloc.start()
        try:
            rho = sample_autocorrelation(t, max_lag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (max_lag + 1) ** 2 / 64
        x = t.values - t.mean()
        r0 = float(np.dot(x, x))
        for k in (1, self.P - 1, self.P, 3 * self.P + 7, max_lag):
            assert abs(rho[k] - float(np.dot(x[:-k], x[k:])) / r0) <= 1e-14

    def test_one_blas_thread_agrees_with_this_process(self, tmp_path, child_env):
        # the last bits may follow the BLAS thread count, the values may not
        env = dict(child_env, OPENBLAS_NUM_THREADS="1")
        out = tmp_path / "rho.npy"
        subprocess.run([sys.executable, "-c", ACF_CHILD, str(out)], env=env, check=True,
                       timeout=300)
        ours = sample_autocorrelation(synthesize_fgn(HurstParam(0.8), 2**16, 3), 1000)
        assert np.abs(np.load(out) - ours).max() <= 1e-14

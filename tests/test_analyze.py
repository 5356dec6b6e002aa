"""Aggregation, variance-time curves, normality testing, Q-Q data."""

import numpy as np
import pytest

from fgn_toolkit import (
    AD_CRITICAL_5PCT,
    HurstParam,
    Trace,
    ad_normality_test,
    aggregate,
    exact_fgn,
    make_rng,
    qq_points,
    variance_time_curve,
)
from fgn_toolkit.analyze import ad_statistic, default_m_levels
from scipy.stats import norm


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

    def test_rejects_levels_not_starting_at_one(self, rng):
        t = Trace(rng.standard_normal(1000))
        with pytest.raises(ValueError):
            variance_time_curve(t, [2, 4, 8])

    def test_default_levels_log_spaced(self):
        levels = default_m_levels(32768)
        assert levels[0] == 1
        assert levels[-1] <= 3276
        assert np.all(np.diff(levels) > 0)


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

    def test_statistic_nonnegative_for_gaussian(self, rng):
        assert ad_statistic(rng.standard_normal(1000)) >= 0


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

"""Trace-to-traffic conversions: exp2 map, integer counts, interarrivals."""

import numpy as np
import pytest
from scipy.stats import kstest

from fgn_toolkit import (
    ArrivalTrace,
    BMode,
    Trace,
    counts_to_interarrivals,
    exp2_transform,
    make_rng,
    rescale_trace,
    to_integer_counts,
    whittle_estimate,
)


class TestExp2Transform:
    def test_zero_maps_to_one(self):
        out = exp2_transform(Trace(np.zeros(4)))
        assert np.array_equal(out.values, np.ones(4))

    def test_hand_example(self):
        out = exp2_transform(Trace(np.array([-1.0, 0.0, 1.0])))
        assert np.array_equal(out.values, np.array([0.5, 1.0, 2.0]))

    def test_output_positive_and_monotone(self, rng):
        x = np.sort(rng.standard_normal(100))
        y = exp2_transform(Trace(x)).values
        assert np.all(y > 0)
        assert np.all(np.diff(y) >= 0)

    def test_rejects_overflowing_input(self):
        with pytest.raises(ValueError):
            exp2_transform(Trace(np.array([0.0, 1001.0])))

    def test_round_trip_with_log2(self, rng):
        y = np.abs(rng.standard_normal(1000)) + 0.1
        back = exp2_transform(Trace(np.log2(y))).values
        assert np.allclose(back, y, rtol=1e-12)

    def test_preserves_hurst_parameter(self, synth_cache):
        # checked in the quasi-linear regime (log-domain sd 0.25, like
        # log-transformed arrival counts); the preservation is asymptotic
        # and degrades for wide log-domain spreads
        t = rescale_trace(synth_cache(0.8, 32768, 55), 5.0, 0.25)
        res = whittle_estimate(exp2_transform(t), BMode.truncated(3))
        assert abs(res.h_hat - 0.8) <= 3 * res.sigma_h


class TestToIntegerCounts:
    def test_half_to_even_rounding(self):
        out = to_integer_counts(Trace(np.array([0.4, 0.6, 2.5])), 1.0)
        assert np.array_equal(out.counts, np.array([0, 1, 2]))
        assert out.clamp_fraction == 0.0

    def test_all_negative_clamps_everything(self):
        with pytest.warns(UserWarning, match="clamped"):
            out = to_integer_counts(Trace(np.array([-3.0, -0.2, -7.5])), 1.0)
        assert np.array_equal(out.counts, np.zeros(3, dtype=int))
        assert out.clamp_fraction == 1.0

    def test_no_warning_for_small_clamp(self, rng):
        import warnings

        values = np.abs(rng.standard_normal(100)) + 1.0
        values[0] = -0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = to_integer_counts(Trace(values), 1.0)
        assert out.clamp_fraction == pytest.approx(0.01)

    def test_well_separated_mean_is_preserved(self, rng):
        # mean 100, sd 10 sits 10 sigma from zero: nothing clamps and the
        # count mean stays within 1 of the target
        t = rescale_trace(Trace(rng.standard_normal(4096)), 100.0, 10.0)
        out = to_integer_counts(t, 1.0)
        assert out.clamp_fraction == 0.0
        assert abs(out.counts.mean() - 100.0) <= 1.0

    def test_rejects_counts_beyond_int64(self):
        top = np.nextafter(2.0**63, 0.0)
        assert to_integer_counts(Trace(np.array([top])), 1.0).counts[0] == int(top)
        with pytest.raises(ValueError, match="64-bit"):
            to_integer_counts(Trace(np.array([1.0, 2.0**63])), 1.0)

    def test_bin_width_carried(self):
        out = to_integer_counts(Trace(np.array([1.0])), 0.25)
        assert out.bin_width == 0.25


class TestArrivalTraceValidation:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([1, -1]), 1.0)

    def test_rejects_bad_bin_width(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([1, 2]), 0.0)

    def test_total_of_counts_overflowing_int64_is_exact(self):
        assert ArrivalTrace(np.array([2**62] * 3), 1.0).total == 3 * 2**62


class TestCountsToInterarrivals:
    def test_empty_bins_give_empty_sequence(self):
        seq = counts_to_interarrivals(ArrivalTrace(np.array([0, 0]), 1.0), "even")
        assert seq.times.size == 0

    def test_even_two_in_unit_bin(self):
        seq = counts_to_interarrivals(ArrivalTrace(np.array([2]), 1.0), "even")
        assert np.allclose(seq.times, np.array([0.25, 0.75]), rtol=1e-15)

    @pytest.mark.parametrize("spread", ["uniform", "even"])
    def test_count_conservation(self, spread, rng):
        counts = rng.integers(0, 7, size=50)
        a = ArrivalTrace(counts, 0.5)
        seq = counts_to_interarrivals(a, spread, rng=rng)
        assert seq.times.size == counts.sum()

    @pytest.mark.parametrize("spread", ["uniform", "even"])
    def test_containment_in_source_bin(self, spread, rng):
        counts = rng.integers(0, 9, size=40)
        width = 0.3
        seq = counts_to_interarrivals(ArrivalTrace(counts, width), spread, rng=rng)
        expected_bins = np.repeat(np.arange(counts.size), counts)
        got_bins = np.floor(seq.times / width).astype(int)
        assert np.array_equal(got_bins, expected_bins)

    @pytest.mark.parametrize("spread", ["uniform", "even"])
    def test_strictly_increasing(self, spread, rng):
        counts = rng.integers(0, 20, size=100)
        seq = counts_to_interarrivals(ArrivalTrace(counts, 1.0), spread, rng=rng)
        assert np.all(np.diff(seq.times) > 0)

    @pytest.mark.parametrize("counts", [[2**50], [2**62, 2**62, 2**62]])
    def test_rejects_huge_total_before_allocating(self, counts):
        # the second total wraps around to a negative int64 sum
        with pytest.raises(ValueError, match="arrivals exceed"):
            counts_to_interarrivals(ArrivalTrace(np.array(counts), 1.0), "even")

    def test_uniform_requires_rng(self):
        with pytest.raises(ValueError):
            counts_to_interarrivals(ArrivalTrace(np.array([3]), 1.0), "uniform")

    def test_rejects_unknown_spread(self, rng):
        with pytest.raises(ValueError):
            counts_to_interarrivals(ArrivalTrace(np.array([3]), 1.0), "poisson", rng=rng)

    def test_uniform_gaps_look_exponential(self):
        # uniform positions in one bin give near-exponential gaps
        passes = 0
        for seed in range(20):
            seq = counts_to_interarrivals(
                ArrivalTrace(np.array([1000]), 1.0), "uniform", rng=make_rng(3000 + seed)
            )
            gaps = seq.gaps
            p = kstest(gaps, "expon", args=(0, gaps.mean())).pvalue
            passes += p >= 0.05
        assert passes >= 18

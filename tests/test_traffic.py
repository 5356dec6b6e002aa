"""Trace-to-traffic conversions: exp2 map, integer counts, interarrivals."""

import tracemalloc

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
from fgn_toolkit import traffic

BLOCK = traffic._BLOCK_BINS


class FixedUniforms:
    """Stands in for a generator: ``random(out=...)`` fills the given values."""

    def __init__(self, values):
        self.values = values

    def random(self, size=None, out=None):
        out[:] = self.values
        return out


def out_of_place(counts, width, spread, uniforms=None):
    """Both spreads as plain whole-array expressions, ties swept over every time."""
    starts = np.repeat(np.arange(counts.size, dtype=float) * width, counts)
    if spread == "even":
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        return starts + (within + 0.5) * width / np.repeat(counts, counts).astype(float)
    times = np.sort(starts + width * uniforms)
    for i in range(1, times.size):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
    return times


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

    @pytest.mark.parametrize("spread", ["uniform", "even"])
    def test_same_bits_as_out_of_place_formula(self, spread):
        # the spreads work in place; each value must round exactly as the
        # plain out-of-place expressions below round it
        counts = make_rng(11).integers(0, 40, size=3000)
        counts[::7] = 0
        a = ArrivalTrace(counts, 0.37)
        starts = np.repeat(np.arange(counts.size, dtype=float) * 0.37, counts)
        if spread == "uniform":
            want = np.sort(starts + 0.37 * make_rng(5).random(int(counts.sum())))
        else:
            within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            want = starts + (within + 0.5) * 0.37 / np.repeat(counts, counts).astype(float)
        got = counts_to_interarrivals(a, spread, rng=make_rng(5)).times
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("counts", [[2**50], [2**62, 2**62, 2**62]])
    def test_rejects_huge_total_before_allocating(self, counts):
        # the second total wraps around to a negative int64 sum
        with pytest.raises(ValueError, match="arrivals exceed"):
            counts_to_interarrivals(ArrivalTrace(np.array(counts), 1.0), "even")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spread", ["uniform", "even"])
    def test_rejects_bins_ending_past_the_largest_float(self, spread):
        # the times would overflow to inf, with numpy overflow warnings first
        a = ArrivalTrace(np.array([1, 2, 1]), 1e308)
        with pytest.raises(ValueError, match="3 bins of width 1e\\+308 end past the largest"):
            counts_to_interarrivals(a, spread, rng=make_rng(1))

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


class TestInterarrivalBlocks:
    """Arrivals are spread and sorted one block of bins at a time."""

    @pytest.mark.parametrize("empty_block", [0, 1])
    @pytest.mark.parametrize("spread", ["uniform", "even"])
    def test_block_edges_give_the_whole_array_bits(self, spread, empty_block):
        # 3 whole blocks and one bin, one block all empty, and one bin
        # holding more arrivals than a block of typical bins
        counts = make_rng(21).integers(0, 12, size=3 * BLOCK + 1)
        counts[empty_block * BLOCK : (empty_block + 1) * BLOCK] = 0
        counts[2 * BLOCK + 5] = 20 * BLOCK
        counts[-1] = 3
        width = 0.37
        uniforms = make_rng(5).random(int(counts.sum()))
        want = out_of_place(counts, width, spread, uniforms)
        got = counts_to_interarrivals(ArrivalTrace(counts, width), spread, rng=make_rng(5))
        assert np.array_equal(got.times, want)

    def test_even_spread_peak_memory_near_its_output(self):
        counts = make_rng(22).integers(0, 18, size=2**16)
        a = ArrivalTrace(counts, 1.0)
        output_bytes = 8 * a.total
        tracemalloc.start()
        try:
            seq = counts_to_interarrivals(a, "even")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.times.size == a.total
        assert peak < 1.5 * output_bytes

    def test_every_bin_tied(self):
        # zero uniforms put all of a bin's arrivals on its start: each bin is
        # one cascade of one-ulp nudges
        counts = make_rng(23).integers(0, 20, size=5000)
        total = int(counts.sum())
        seq = counts_to_interarrivals(ArrivalTrace(counts, 1.0), "uniform",
                                      rng=FixedUniforms(0.0))
        assert np.all(seq.times[1:] > seq.times[:-1])
        assert np.array_equal(np.floor(seq.times).astype(int),
                              np.repeat(np.arange(counts.size), counts))
        assert np.array_equal(seq.times, out_of_place(counts, 1.0, "uniform", np.zeros(total)))

    def test_nudges_cascade_into_untied_times_and_the_next_block(self):
        # bin BLOCK - 1 ends in two equal times one ulp below the next bin's
        # start, and bin 1's times after its tie are one and two ulps up:
        # a nudge ties the time after it, across bins and across a block edge
        ulp1 = 2.0**-52
        counts = np.zeros(BLOCK + 1, dtype=np.int64)
        counts[[1, BLOCK - 1, BLOCK]] = [4, 2, 2]
        top = 1.0 - np.spacing(float(BLOCK - 1))
        uniforms = np.array([0.0, 0.0, ulp1, 2 * ulp1, top, top, 0.0, 0.5])
        want = out_of_place(counts, 1.0, "uniform", uniforms)
        assert want[-2] == np.nextafter(float(BLOCK), np.inf)
        got = counts_to_interarrivals(ArrivalTrace(counts, 1.0), "uniform",
                                      rng=FixedUniforms(uniforms))
        assert np.array_equal(got.times, want)

    def test_time_rounded_past_the_next_block_is_merged(self):
        # the largest uniform can round a bin's last time above the next
        # bin's start; across a block edge the blocks' sorts alone would
        # leave that pair out of order
        u_max = 1.0 - 2.0**-53
        edge = 3 * BLOCK
        width = next(w for w in 0.1 + np.arange(1000) / 1000
                     if (edge - 1) * w + u_max * w > edge * w)
        counts = np.zeros(edge + 1, dtype=np.int64)
        counts[[0, edge - 1, edge]] = 2
        uniforms = np.array([0.2, 0.4, 0.5, u_max, 0.0, 0.5])
        want = out_of_place(counts, width, "uniform", uniforms)
        assert want[3] == edge * width  # bin edge's first time sorts before bin edge - 1's last
        got = counts_to_interarrivals(ArrivalTrace(counts, width), "uniform",
                                      rng=FixedUniforms(uniforms))
        assert np.array_equal(got.times, want)

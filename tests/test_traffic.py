"""Trace-to-traffic conversions: exp2 map, integer counts, interarrivals."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from fgn_toolkit import (
    ArrivalTrace,
    BMode,
    InterarrivalSeq,
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
SCAN = traffic._SCAN_BLOCK
U_MAX = 1.0 - 2.0**-53  # the largest uniform a generator draws
BAD_COUNTS = r"counts must be nonnegative integers below 2\*\*63"
BAD_WIDTH = "bin width must be finite and positive"


class FixedUniforms:
    """Stands in for a generator: ``random(out=...)`` fills the given values."""

    def __init__(self, values):
        self.values = values

    def random(self, size=None, out=None):
        out[:] = self.values
        return out


def out_of_place(counts, width, spread, uniforms=None):
    """Both spreads as plain whole-array expressions (f + b) w, ties swept over every time."""
    bins = np.repeat(np.arange(counts.size, dtype=float), counts)
    if spread == "even":
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        return ((within + 0.5) / np.repeat(counts, counts).astype(float) + bins) * width
    times = np.sort((uniforms + bins) * width).tolist()
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            times[i] = math.nextafter(times[i - 1], math.inf)
    return np.array(times)


def spread_peak(spread):
    """Peak traced memory of one spread, in units of its output's bytes: the
    times, a block of bins' temporaries and a block of tie flags."""
    counts = make_rng(22).integers(0, 18, size=2**16)
    a = ArrivalTrace(counts, 1.0)
    tracemalloc.start()
    try:
        seq = counts_to_interarrivals(a, spread, rng=make_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.times.size == a.total
    return peak / (8 * a.total)


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

    def test_peak_memory_is_the_counts_and_a_block(self, rng):
        # values are rounded and clamped a block at a time, straight into the
        # int64 output; a few values clamp
        t = Trace(rng.standard_normal(2**18) * 2.0 + 8.0)
        to_integer_counts(t, 1.0)  # warm-up
        tracemalloc.start()
        try:
            out = to_integer_counts(t, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < out.clamp_fraction < 0.10
        assert peak < 1.125 * t.values.nbytes

    @pytest.mark.filterwarnings("ignore:clamped")
    @pytest.mark.parametrize("size", [1, SCAN - 1, SCAN, 3 * SCAN + 5])
    def test_blocks_keep_the_whole_array_bits(self, size):
        # counts and clamp fraction as the whole-array expressions give them,
        # with halves that round to even, -0.5 that rounds to -0.0, and
        # counts of 2**62 + 2**11
        values = make_rng(31).standard_normal(size) * 3.0 + 1.0
        values[::5] = np.round(values[::5]) + 0.5
        values[7::11] = -0.5
        values[3::97] = 2.0**62 + 2.0**11
        want = np.maximum(np.rint(values), 0.0).astype(np.int64)
        out = to_integer_counts(Trace(values), 1.0)
        assert np.array_equal(out.counts, want)
        assert out.clamp_fraction == float(np.mean(values < 0.0))


class TestArrivalTraceValidation:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([1, -1]), 1.0)

    def test_rejects_bad_bin_width(self):
        with pytest.raises(ValueError):
            ArrivalTrace(np.array([1, 2]), 0.0)

    def test_total_of_counts_overflowing_int64_is_exact(self):
        assert ArrivalTrace(np.array([2**62] * 3), 1.0).total == 3 * 2**62

    @pytest.mark.parametrize("counts, width, message", [
        ([1.5, 2.7], 1.0, BAD_COUNTS),
        ([np.nan], 1.0, BAD_COUNTS),
        ([np.inf], 1.0, BAD_COUNTS),
        ([1e30], 1.0, BAD_COUNTS),
        (np.array([2**63], dtype=np.uint64), 1.0, BAD_COUNTS),
        ([2**64], 1.0, BAD_COUNTS),
        ([-0.5], 1.0, BAD_COUNTS),
        ([1, 2], np.nan, BAD_WIDTH),
        ([1, 2], np.inf, BAD_WIDTH),
    ])
    def test_rejects_what_int64_counts_cannot_hold(self, counts, width, message):
        # one ValueError, with no numpy warning and no silent truncation or wrap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                ArrivalTrace(counts, width)

    def test_keeps_integral_floats_and_the_largest_int64(self):
        assert ArrivalTrace([3.0, 0.0], 1.0).counts.tolist() == [3, 0]
        top = np.array([2**63 - 1], dtype=np.uint64)
        assert ArrivalTrace(top, 1.0).counts.tolist() == [2**63 - 1]


class TestInterarrivalSeqValidation:
    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.nan], [1.0, 0.5], [-1.0]])
    def test_rejects_nan_and_unordered_times(self, times):
        with pytest.raises(ValueError, match="nonnegative and strictly increasing"):
            InterarrivalSeq(np.array(times))


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
        bins = np.repeat(np.arange(counts.size, dtype=float), counts)
        if spread == "uniform":
            want = np.sort((make_rng(5).random(int(counts.sum())) + bins) * 0.37)
        else:
            within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            want = ((within + 0.5) / np.repeat(counts, counts).astype(float) + bins) * 0.37
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

    def test_uniform_requires_rng_when_every_count_is_zero(self):
        # the same error as for any other counts, not an empty sequence
        with pytest.raises(ValueError, match="needs a random generator"):
            counts_to_interarrivals(ArrivalTrace(np.array([0, 0]), 1.0), "uniform")

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
        assert spread_peak("even") < 1.125

    def test_uniform_spread_peak_memory_near_its_output(self):
        assert spread_peak("uniform") < 1.125

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

    def test_tie_cascades_cross_the_blocks_of_the_tie_pass(self):
        # the tie pass flags ties a block of SCAN times at a time, from time 1;
        # bin 1's 40 equal times cross its first edge, at SCAN + 1, and bin
        # 3's 20 its second, at 2 SCAN + 1
        counts = np.array([SCAN - 10, 40, SCAN - 31, 20, 5])
        uniforms = make_rng(32).random(int(counts.sum()))
        uniforms[SCAN - 10 : SCAN + 30] = 0.0
        uniforms[2 * SCAN - 1 : 2 * SCAN + 19] = 0.0
        want = out_of_place(counts, 1.0, "uniform", uniforms)
        assert np.all(want[SCAN - 9 : SCAN + 30] > 1.0)  # one cascade of 39 nudges
        got = counts_to_interarrivals(ArrivalTrace(counts, 1.0), "uniform",
                                      rng=FixedUniforms(uniforms))
        assert np.array_equal(got.times, want)

    def test_largest_uniform_ends_at_most_at_the_next_block(self):
        # at this width fl(fl(b w) + fl(u w)) would round bin edge - 1's last
        # time above edge w; fl(fl(b + u) w) ends the bin at edge w, where it
        # ties the next block's first time, which the tie pass nudges
        edge = 3 * BLOCK
        width = next(w for w in 0.1 + np.arange(1000) / 1000
                     if (edge - 1) * w + U_MAX * w > edge * w)
        counts = np.zeros(edge + 1, dtype=np.int64)
        counts[[0, edge - 1, edge]] = 2
        uniforms = np.array([0.2, 0.4, 0.5, U_MAX, 0.0, 0.5])
        got = counts_to_interarrivals(ArrivalTrace(counts, width), "uniform",
                                      rng=FixedUniforms(uniforms)).times
        assert got[3] <= edge * width
        assert got[4] == np.nextafter(edge * width, np.inf)
        assert np.array_equal(got, out_of_place(counts, width, "uniform", uniforms))

    def test_largest_uniform_at_a_block_edge_beside_a_tie(self):
        # block 1 holds an exact tie, and bin edge - 1 ends at a width and
        # uniform that once rounded its last time past the next block's first
        edge = 3 * BLOCK
        width = next(w for w in 0.1 + np.arange(1000) / 1000
                     if (edge - 1) * w + U_MAX * w > edge * w)
        past = (edge - 1) * width + U_MAX * width
        counts = np.zeros(edge + 1, dtype=np.int64)
        counts[[0, BLOCK + 7, edge - 1, edge]] = [2, 3, 2, 2]
        uniforms = np.array([0.2, 0.4, 0.25, 0.25, 0.75, 0.5, U_MAX, 0.0,
                             (past - edge * width) / width])
        got = counts_to_interarrivals(ArrivalTrace(counts, width), "uniform",
                                      rng=FixedUniforms(uniforms)).times
        assert got[3] == np.nextafter(got[2], np.inf)  # block 1's nudged tie
        assert got[6] <= edge * width
        assert np.array_equal(got, out_of_place(counts, width, "uniform", uniforms))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spread=st.sampled_from(["uniform", "even"]), bins=st.integers(1, 3 * BLOCK),
           seed=st.integers(0, 2**32 - 1), step=st.integers(2, 9),
           width=st.floats(1e-3, 10.0, exclude_min=True, exclude_max=True))
    def test_placed_times_stay_in_their_bins(self, spread, bins, seed, width, step):
        # every step-th uniform is the largest and the next one 0.0, so bins
        # end at their edge and ties cascade across bins and blocks
        counts = make_rng(seed).integers(0, 21, size=bins)
        uniforms = make_rng(seed + 1).random(int(counts.sum()))
        uniforms[::step] = U_MAX
        uniforms[1::step] = 0.0
        placed = [np.empty(0)]

        def record(times):
            placed.append(times.copy())
            break_ties(times)

        break_ties = traffic._break_ties
        with mock.patch.object(traffic, "_break_ties", record):
            got = counts_to_interarrivals(ArrivalTrace(counts, width), spread,
                                          rng=FixedUniforms(uniforms)).times
        assert np.array_equal(got, out_of_place(counts, width, spread, uniforms))
        b = np.repeat(np.arange(bins, dtype=float), counts)
        pre = placed[-1]
        assert np.all((b * width <= pre) & (pre <= (b + 1) * width))
        within_bins = pre[np.lexsort((pre, b))]
        assert np.all(within_bins[1:] >= within_bins[:-1])

    @pytest.mark.parametrize("spread", ["uniform", "even"])
    def test_order_is_checked_once(self, spread, monkeypatch):
        # the tie pass is the only check: the result skips InterarrivalSeq's own
        def refuse(self):
            raise AssertionError("InterarrivalSeq re-checked the order")

        monkeypatch.setattr(traffic.InterarrivalSeq, "__post_init__", refuse)
        counts = make_rng(24).integers(0, 9, size=2 * BLOCK + 3)
        seq = counts_to_interarrivals(ArrivalTrace(counts, 0.37), spread, rng=make_rng(5))
        assert np.all(seq.times[1:] > seq.times[:-1])

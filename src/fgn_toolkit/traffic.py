"""Conversions from real-valued sample paths to physical traffic traces.

A synthesized path becomes an arrival process either by linear rescaling
to a target mean/sd or by the exponential map y = 2**x (which keeps the
long-range dependence of the input while guaranteeing positive values).
Real values then become integer per-bin counts, and counts become event
times within their bins, spread uniformly (approximately exponential
interarrivals) or evenly (constant interarrivals).  Event times are
written into one preallocated array a block of bins at a time, so the
conversion's peak memory is little more than its output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .synth import Trace

__all__ = [
    "ArrivalTrace",
    "InterarrivalSeq",
    "exp2_transform",
    "to_integer_counts",
    "counts_to_interarrivals",
]

_EXP2_MAX_EXPONENT = 1000.0
# Clamp fraction above which to_integer_counts warns and convert --strict fails.
_CLAMP_WARN_FRACTION = 0.10
# Counts are int64, so a rounded value must stay below 2**63.
_MAX_COUNT = 2.0**63
# Most arrival times counts_to_interarrivals will emit (16 GiB of float64
# times), far above the ~17.8M of a 2**21-bin exp2 trace with log2 mean 3;
# a larger total is a mis-scaled input, not a trace to allocate.
_MAX_ARRIVALS = 2**31
# Bins per block of counts_to_interarrivals: at the ~8.5 arrivals per bin of
# that trace a block's ~17K times (140 KB) stay in L2 while they are spread
# and sorted (256 to 16384 bins measured; 1024 to 4096 were within 5%).
_BLOCK_BINS = 2048


@dataclass(frozen=True)
class ArrivalTrace:
    """Nonnegative integer arrival counts per fixed-width bin."""

    counts: np.ndarray
    bin_width: float
    clamp_fraction: float = 0.0

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-d array")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if self.bin_width <= 0:
            raise ValueError("bin width must be positive")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        """Exact sum of the counts: summed in Python integers if int64 could wrap."""
        wraps = self.counts.size and int(self.counts.max()) * self.counts.size >= 2**63
        return int((self.counts.astype(object) if wraps else self.counts).sum())


@dataclass(frozen=True)
class InterarrivalSeq:
    """Strictly increasing event times in seconds."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be a 1-d array")
        if times.size and (times[0] < 0 or np.any(times[1:] <= times[:-1])):
            raise ValueError("times must be nonnegative and strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.times)


def exp2_transform(t: Trace) -> Trace:
    """Elementwise y = 2**x; strictly positive, order preserving.

    Rejects inputs with any value above 1000, where the result would
    overflow double precision.
    """
    peak = float(np.max(t.values))
    if peak > _EXP2_MAX_EXPONENT:
        raise ValueError(
            f"exp2 transform would overflow: max input {peak:.3g} exceeds {_EXP2_MAX_EXPONENT:g}"
        )
    return Trace(np.exp2(t.values), t.provenance)


def to_integer_counts(t: Trace, bin_width: float) -> ArrivalTrace:
    """Round values half-to-even to integer counts, clamping negatives to 0.

    The clamp fraction is the share of strictly negative input values and
    is carried on the result; above 10% it also triggers a warning, since
    that many negatives means a Gaussian count model with this mean and sd
    fits the data poorly.  Raises ``ValueError`` when a rounded value
    reaches 2**63, the int64 limit.
    """
    rounded = np.rint(t.values)
    peak = float(rounded.max())
    if peak >= _MAX_COUNT:
        raise ValueError(f"count {peak:.3g} does not fit in a 64-bit integer (limit 2**63)")
    clamp_fraction = float(np.mean(t.values < 0.0))
    counts = np.maximum(rounded, 0.0).astype(np.int64)
    if clamp_fraction > _CLAMP_WARN_FRACTION:
        warnings.warn(
            f"clamped {clamp_fraction:.1%} of values to zero; a Gaussian count model "
            "with this mean and sd fits the data poorly",
            stacklevel=2,
        )
    return ArrivalTrace(counts=counts, bin_width=float(bin_width), clamp_fraction=clamp_fraction)


def counts_to_interarrivals(
    a: ArrivalTrace,
    spread: str = "uniform",
    rng: np.random.Generator | None = None,
) -> InterarrivalSeq:
    """Place each bin's arrivals inside its half-open interval, up to rounding.

    ``spread="uniform"`` draws sorted i.i.d. uniform positions (needs
    ``rng``); ``spread="even"`` places count c at offsets (j + 0.5)/c,
    j = 0..c-1, centering constant gaps away from bin edges.  The output
    always contains exactly sum(counts) strictly increasing times; exact
    floating-point ties in uniform mode are broken by a one-ulp nudge.
    A uniform time is fl(fl(b w) + fl(u w)) for bin b and width w, which
    for u within a few ulps of 1 can exceed fl((b + 1) w), the bin's end:
    a chance of order 1e-16 per arrival, with strict increase kept.
    Raises ``ValueError`` before allocating when the total exceeds 2**31
    or when the last bin's end, len(counts) * bin_width, overflows.

    The times are written into one preallocated array, one block of
    ``_BLOCK_BINS`` bins at a time, so each block's arithmetic and sort
    run while its arrivals sit in cache and no other array of the output's
    length is made: peak memory is the output plus a block's temporaries.
    Uniform mode fills the whole array from ``rng`` first (the stream of
    ``rng.random(total)``), then scales, shifts and sorts block by block.
    Bins are disjoint and ordered, so the block sorts give the bits of one
    global sort; the rare time that rounds past the next block's first
    time is caught at the block edge and merged by a global sort.
    """
    if spread not in ("uniform", "even"):
        raise ValueError(f"spread must be 'uniform' or 'even', got {spread!r}")
    counts = a.counts
    width = a.bin_width
    total = a.total
    if total > _MAX_ARRIVALS:
        raise ValueError(f"{total:.3g} arrivals exceed the limit of {_MAX_ARRIVALS} (2**31)")
    if total == 0:
        return InterarrivalSeq(np.empty(0))
    if not np.isfinite(counts.size * width):
        raise ValueError(f"{counts.size} bins of width {width:g} end past the largest float")
    uniform = spread == "uniform"
    if uniform and rng is None:
        raise ValueError("uniform spreading needs a random generator")
    times = np.empty(total)
    if uniform:
        rng.random(out=times)
    edges = range(0, counts.size, _BLOCK_BINS)
    tied = []
    stop = 0
    for b0, size in zip(edges, np.add.reduceat(counts, edges).tolist()):
        start, stop = stop, stop + size
        if size == 0:
            continue
        c = counts[b0 : b0 + _BLOCK_BINS]
        seg = times[start:stop]
        starts = np.repeat(np.arange(b0, b0 + c.size, dtype=float) * width, c)
        if uniform:
            seg *= width
            seg += starts
            seg.sort()
            if np.any(seg[1:] <= seg[:-1]) or (start and seg[0] <= times[start - 1]):
                tied.append((start, stop))
        else:
            # index of each event within its bin, exact in float64 below 2**53
            np.subtract(np.arange(size, dtype=float),
                        np.repeat((np.cumsum(c) - c).astype(float), c), out=seg)
            seg += 0.5
            seg *= width
            seg /= np.repeat(c.astype(float), c)
            seg += starts
    if tied:
        _break_ties(times, tied)
    return InterarrivalSeq(times)


def _break_ties(times: np.ndarray, blocks: list[tuple[int, int]]) -> None:
    """Raise each time not above its predecessor to the next float, left to right.

    ``blocks`` lists the (start, stop) ranges whose sorted times tie, or
    whose first time does not exceed the previous block's last.  Only
    those ranges can hold a tie before the sweep, and a nudge can only tie
    the time after it, so visiting their ties and the cascades that follow
    gives the bits of a sweep over every time.
    """
    firsts = np.array([start for start, _ in blocks if start])
    if firsts.size and np.any(times[firsts] < times[firsts - 1]):
        times.sort()
        blocks = [(0, times.size)]
    for start, stop in blocks:
        lo = max(start, 1)
        for i in (np.flatnonzero(times[lo:stop] <= times[lo - 1 : stop - 1]) + lo).tolist():
            while i < times.size and times[i] <= times[i - 1]:
                times[i] = np.nextafter(times[i - 1], np.inf)
                i += 1

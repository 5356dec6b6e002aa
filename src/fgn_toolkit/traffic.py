"""Conversions from real-valued sample paths to physical traffic traces.

A synthesized path becomes an arrival process either by linear rescaling
to a target mean/sd or by the exponential map y = 2**x (which keeps the
long-range dependence of the input while guaranteeing positive values).
Real values then become integer per-bin counts, and counts become event
times within their bins, spread uniformly (approximately exponential
interarrivals) or evenly (constant interarrivals): bin b of width w puts
its arrivals at (b + f) w for fractions f in [0, 1), rounded so that no
time leaves [b w, (b + 1) w].  Event times are written into one
preallocated array a block of bins at a time, so the conversion's peak
memory is little more than its output; one pass over that array then
nudges ties in both spreads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .spectrum import _elementwise, _real
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
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-d array")
        if counts.dtype.kind in "iu":  # a uint64 count from 2**63 on wraps negative
            counts = counts.astype(np.int64, copy=False)
            valid = not counts.size or counts.min() >= 0
        else:  # NaN fails every comparison; a bool, a string or an object is no count
            valid = counts.dtype.kind == "f" and np.all(
                (counts >= 0) & (counts < _MAX_COUNT) & (counts == np.rint(counts)))
        if not valid:
            raise ValueError("counts must be nonnegative integers below 2**63")
        w = _real(self.bin_width, lambda v: 0 < v < np.inf, "bin width must be finite and positive")
        cf = _real(self.clamp_fraction, lambda v: 0 <= v <= 1, "clamp fraction must lie in [0, 1]")
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))
        object.__setattr__(self, "bin_width", w)
        object.__setattr__(self, "clamp_fraction", cf)

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
        bad = "times must be finite, nonnegative and strictly increasing"
        times = _elementwise(self.times, np.isfinite, bad)
        if np.ndim(times) != 1:
            raise ValueError("times must be a 1-d array")
        if times.size and not (times[0] >= 0 and np.all(times[1:] > times[:-1])):
            raise ValueError(bad)
        object.__setattr__(self, "times", times)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.times)


def exp2_transform(t: Trace) -> Trace:
    """Elementwise y = 2**x; strictly positive, order preserving.

    Rejects inputs with any value above 1000, a bound with a wide margin:
    double precision overflows only from 2**1024.
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
    counts = np.maximum(rounded, 0.0, out=rounded).astype(np.int64)
    arrivals = ArrivalTrace(counts=counts, bin_width=bin_width, clamp_fraction=clamp_fraction)
    if clamp_fraction > _CLAMP_WARN_FRACTION:  # once the bin width has passed
        warnings.warn(
            f"clamped {clamp_fraction:.1%} of values to zero; a Gaussian count model "
            "with this mean and sd fits the data poorly",
            stacklevel=2,
        )
    return arrivals


def counts_to_interarrivals(
    a: ArrivalTrace,
    spread: str = "uniform",
    rng: np.random.Generator | None = None,
) -> InterarrivalSeq:
    """Place each bin's arrivals inside its interval, strictly increasing.

    Bin b of width w holds its arrivals at fl(fl(b + f) w).
    ``spread="uniform"`` draws f as sorted i.i.d. uniforms in [0, 1) (needs
    ``rng``); ``spread="even"`` puts count c at f = (j + 0.5)/c,
    j = 0..c-1, centering constant gaps away from bin edges.  As
    fl(b + f) <= b + 1 and rounding is monotone, every placed time lies in
    [fl(b w), fl((b + 1) w)], so bins never overlap; at unit width a time
    is fl(b + f).  ``_break_ties`` then nudges each exact tie up one ulp
    (an even tie needs over 2**22 bins before a bin of ~2**31), leaving
    exactly sum(counts) strictly increasing times.  Raises ``ValueError``
    before allocating when the total exceeds 2**31 or when the last bin's
    end, len(counts) * bin_width, overflows.

    The times are written into one preallocated array, one block of
    ``_BLOCK_BINS`` bins at a time, so each block's arithmetic and sort
    run while its arrivals sit in cache and no other array of the output's
    length is made: peak memory is the output plus a block's temporaries.
    Uniform mode fills the whole array from ``rng`` first (the stream of
    ``rng.random(total)``), then shifts, scales and sorts block by block;
    as bins never overlap, that gives the bits of one global sort.
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
    stop = 0
    for b0, size in zip(edges, np.add.reduceat(counts, edges).tolist()):
        start, stop = stop, stop + size
        if size == 0:
            continue
        c = counts[b0 : b0 + _BLOCK_BINS]
        seg = times[start:stop]
        if not uniform:
            # index of each event within its bin, exact in float64 below 2**53
            np.subtract(np.arange(size, dtype=float),
                        np.repeat((np.cumsum(c) - c).astype(float), c), out=seg)
            seg += 0.5
            seg /= np.repeat(c.astype(float), c)
        seg += np.repeat(np.arange(b0, b0 + c.size, dtype=float), c)
        seg *= width
        if uniform:
            seg.sort()
    _break_ties(times)
    seq = object.__new__(InterarrivalSeq)  # _break_ties has made and checked the order
    object.__setattr__(seq, "times", times)
    return seq


def _break_ties(times: np.ndarray) -> None:
    """Make nondecreasing ``times`` strictly increasing: the one check of their order.

    Each tie is raised to the next float, left to right; a nudge can only
    tie the time after it, so following each cascade gives the bits of a
    sweep over every time.
    """
    for i in (np.flatnonzero(times[1:] <= times[:-1]) + 1).tolist():
        while i < times.size and times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
            i += 1

"""Conversions from real-valued sample paths to physical traffic traces.

A synthesized path becomes an arrival process either by linear rescaling
to a target mean/sd or by the exponential map y = 2**x (which keeps the
long-range dependence of the input while guaranteeing positive values).
Real values then become integer per-bin counts, and counts become event
times within their bins, spread uniformly (approximately exponential
interarrivals) or evenly (constant interarrivals).
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
    """Place each bin's arrivals inside its half-open interval.

    ``spread="uniform"`` draws sorted i.i.d. uniform positions (needs
    ``rng``); ``spread="even"`` places count c at offsets (j + 0.5)/c,
    j = 0..c-1, centering constant gaps away from bin edges.  The output
    always contains exactly sum(counts) strictly increasing times; exact
    floating-point ties in uniform mode are broken by a one-ulp nudge.
    Raises ``ValueError`` before allocating when the total exceeds 2**31.
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
    starts = np.repeat(np.arange(counts.size, dtype=float) * width, counts)
    if spread == "uniform":
        if rng is None:
            raise ValueError("uniform spreading needs a random generator")
        times = rng.random(total)
        times *= width
        times += starts
        # Bins are half-open and disjoint, so a global sort equals per-bin sorts.
        times.sort()
        if np.any(times[1:] <= times[:-1]):
            # ties have probability ~0; the scalar sweep handles cascades
            for i in range(1, times.size):
                if times[i] <= times[i - 1]:
                    times[i] = np.nextafter(times[i - 1], np.inf)
    else:
        # index of each event within its bin, exact in float64 below 2**53
        times = np.arange(total, dtype=float)
        times -= np.repeat((np.cumsum(counts) - counts).astype(float), counts)
        times += 0.5
        times *= width
        times /= np.repeat(counts.astype(float), counts)
        times += starts
    return InterarrivalSeq(times)

"""FFT synthesis of approximate fractional Gaussian noise sample paths.

:func:`synthesize_fgn` is Paxson's method in one pass.  It takes the FGN
power spectrum f on the n/2 Fourier frequencies, multiplies each value by
an independent mean-1 exponential variate (the periodogram of a Gaussian
process is asymptotically exponential around the true spectrum), attaches
a uniformly random phase to the square root of each, and takes the real
inverse FFT of that half spectrum with a zero DC term prepended (the
inverse transform of its conjugate-symmetric mirror).  The result is a
real, zero-mean path whose periodogram equals the fuzzed spectrum exactly
(up to the fixed 1/n transform convention).

The same module holds :func:`exact_fgn`, an exact Gaussian FGN generator
(circulant embedding) that tests use as an independent source of truth.

Randomness comes from an explicit ``numpy.random.Generator`` (PCG64 when
created through :func:`make_rng`).  The draw order is fixed: all n/2
uniforms of the exponential variates (-log(1 - U), by inverse CDF) first,
then all n/2 phase uniforms; the Nyquist bin's phase is forced to zero
after the draw, so its half spectrum is exactly conjugate-symmetric.  A
given seed keeps producing the same path across refactors.  Bit-exactness
is promised only within one build of this package, not across numpy
versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import (
    FAST,
    BMode,
    HurstParam,
    _fourier_frequencies,
    fgn_autocorrelation,
    fgn_power_spectrum,
)

__all__ = [
    "TraceProvenance",
    "Trace",
    "make_rng",
    "synthesize_fgn",
    "exact_fgn",
    "rescale_trace",
]


@dataclass(frozen=True)
class TraceProvenance:
    """How a trace was produced, for file headers and reproducibility."""

    h: HurstParam | None = None
    seed: int | None = None
    mode: BMode | None = None


@dataclass(frozen=True)
class Trace:
    """An ordered, finite, real-valued sample path."""

    values: np.ndarray
    provenance: TraceProvenance | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("trace must be a nonempty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace values must all be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(self.values.mean())

    def sd(self) -> float:
        """Sample standard deviation (ddof=1)."""
        return float(self.values.std(ddof=1)) if self.n > 1 else 0.0


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Seedable 64-bit generator (PCG64) used throughout the package."""
    return np.random.default_rng(seed)


def synthesize_fgn(h: HurstParam, n: int, seed: int, mode: BMode = FAST) -> Trace:
    """Synthesize an approximate FGN path of even length n >= 4.

    Deterministic per seed.  The output is zero-mean by construction (the
    DC coefficient is zeroed) and its absolute scale is a fixed artifact of
    the 1/n inverse-transform convention; use :func:`rescale_trace` to set
    physical units.
    """
    n = int(n)
    if n < 4 or n % 2 != 0:
        raise ValueError(f"n must be even and at least 4, got {n}")
    rng = make_rng(seed)
    m = n // 2
    f = fgn_power_spectrum(h, _fourier_frequencies(n), mode)
    f *= -np.log1p(-rng.random(m))  # Exp(1) variates, -log(1 - U)
    z = np.sqrt(f) * np.exp(1j * (2.0 * np.pi * rng.random(m)))
    z[-1] = np.abs(z[-1])  # the Nyquist bin is real
    values = np.fft.irfft(np.concatenate(([0.0], z)), n)
    return Trace(values, TraceProvenance(h=h, seed=int(seed), mode=mode))


def exact_fgn(h: HurstParam, n: int, rng: np.random.Generator) -> Trace:
    """Exact Gaussian FGN of length n >= 2 by circulant embedding.

    The lags r(0..n) of :func:`fgn_autocorrelation` form the first row
    ``[r(0), ..., r(n), r(n-1), ..., r(1)]`` of a 2n x 2n circulant whose
    leading n x n block is the FGN covariance; its eigenvalues are the real
    part of that row's FFT.  With z = a + ib, the path is the first n
    values of Re(FFT(sqrt(eig / 2n) * z)), whose covariance is exactly
    the circulant's (Davies & Harte 1987; Wood & Chan 1994).  O(n log n),
    no size cap.

    Draw order: 2n standard normals for a, then 2n for b.

    A negative computed eigenvalue raises ``ValueError``: nothing is
    clipped.  The cause is cancellation in ``fgn_autocorrelation`` at large
    lags as h nears 1.  None occurs for n <= 4096 below h = 1 - 1e-7; on
    fine h grids the first failures were at h = 1 - 1.8e-5 for n = 32768,
    h = 0.996 for n = 2^18 and h = 0.955 for n = 2^20.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    r = fgn_autocorrelation(h, np.arange(n + 1))
    eig = np.fft.fft(np.concatenate((r, r[-2:0:-1]))).real
    if eig.min() < 0:
        raise ValueError(
            f"circulant embedding of the FGN covariance has a negative eigenvalue "
            f"for h={h.h}, n={n}"
        )
    z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    values = np.fft.fft(np.sqrt(eig / (2 * n)) * z).real[:n]
    return Trace(values, TraceProvenance(h=h, seed=None, mode=None))


def _is_constant(t: Trace, spread: float) -> bool:
    """The one constant-trace rule: the sample sd or variance ``spread`` is
    0, or the range is.

    The range catches a constant whose float mean is not its value (20 x
    5.3e14 has sd 0.19); the spread catches differences so small (subnormal)
    that every squared deviation is 0.
    """
    return spread == 0.0 or np.ptp(t.values) == 0.0


def rescale_trace(t: Trace, target_mean: float, target_sd: float) -> Trace:
    """Affine map of a trace to the requested sample mean and sd (ddof=1).

    Raises ``ValueError``, with no numpy warning first, when a rescaled
    value overflows.
    """
    if target_sd <= 0:
        raise ValueError("target standard deviation must be positive")
    sd = t.sd()
    if _is_constant(t, sd):
        raise ValueError("cannot rescale a constant trace")
    with np.errstate(over="ignore", invalid="ignore"):  # the Trace check reports it
        values = (t.values - t.mean()) * (target_sd / sd) + target_mean
    return Trace(values, t.provenance)

"""FFT synthesis of approximate fractional Gaussian noise sample paths.

The pipeline builds the FGN power spectrum on the Fourier frequencies,
multiplies each value by an independent mean-1 exponential variate (the
periodogram of a Gaussian process is asymptotically exponential around the
true spectrum), attaches uniformly random phases, and takes the real
inverse FFT of the half spectrum with a zero DC term prepended (the
inverse transform of its conjugate-symmetric mirror).  The result is a
real, zero-mean path whose periodogram equals the fuzzed spectrum exactly
(up to the fixed 1/n transform convention).

The same module holds :func:`exact_fgn`, an exact Gaussian FGN generator
(circulant embedding) that tests use as an independent source of truth.

Randomness comes from an explicit ``numpy.random.Generator`` (PCG64 when
created through :func:`make_rng`).  The draw order is fixed: all n/2
exponential variates first, then all n/2 phase uniforms, so a given seed
keeps producing the same path across refactors.  Bit-exactness is promised
only within one build of this package, not across numpy versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import (
    FAST,
    BMode,
    HurstParam,
    SpectrumGrid,
    build_spectrum_grid,
    fgn_autocorrelation,
)

__all__ = [
    "TraceProvenance",
    "Trace",
    "make_rng",
    "fuzz_spectrum",
    "random_phase_complexify",
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


def fuzz_spectrum(grid: SpectrumGrid, rng: np.random.Generator) -> SpectrumGrid:
    """Multiply each spectral value by an independent Exp(1) variate.

    Variates are drawn by inverse CDF, -log(1 - U) with U uniform on
    [0, 1), so the draw count per call is exactly one uniform per
    frequency.
    """
    expo = -np.log1p(-rng.random(len(grid)))
    return SpectrumGrid(grid.lambdas, grid.values * expo)


def random_phase_complexify(grid: SpectrumGrid, rng: np.random.Generator) -> np.ndarray:
    """Complex half spectrum with |z_j|^2 = value_j and uniform phases.

    The final entry is the Nyquist bin; its phase is forced to zero (after
    drawing the full phase vector) so the spectrum it completes is exactly
    conjugate-symmetric.
    """
    phases = 2.0 * np.pi * rng.random(len(grid))
    z = np.sqrt(grid.values) * np.exp(1j * phases)
    z[-1] = np.abs(z[-1])
    return z


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
    grid = build_spectrum_grid(h, n, mode)
    fuzzed = fuzz_spectrum(grid, rng)
    half = random_phase_complexify(fuzzed, rng)
    values = np.fft.irfft(np.concatenate(([0.0], half)), n)
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


def rescale_trace(t: Trace, target_mean: float, target_sd: float) -> Trace:
    """Affine map of a trace to the requested sample mean and sd (ddof=1).

    Raises ``ValueError``, with no numpy warning first, when a rescaled
    value overflows.
    """
    if target_sd <= 0:
        raise ValueError("target standard deviation must be positive")
    sd = t.sd()
    if sd == 0.0:
        raise ValueError("cannot rescale a constant trace")
    with np.errstate(over="ignore", invalid="ignore"):  # the Trace check reports it
        values = (t.values - t.mean()) * (target_sd / sd) + target_mean
    return Trace(values, t.provenance)

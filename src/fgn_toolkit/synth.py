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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import (
    FAST,
    BMode,
    HurstParam,
    _chunk_count,
    _column_ranges,
    _elementwise,
    _fourier_frequencies,
    _integer,
    _real,
    _run_chunks,
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
    """An ordered, finite, real-valued sample path whose ``values``, a view
    of the array given, are read-only: its variance and degeneracy verdict
    are computed once, on first use, and kept."""

    values: np.ndarray
    provenance: TraceProvenance | None = None

    def __post_init__(self) -> None:
        vals = _elementwise(self.values, np.isfinite, "trace values must all be finite",
                            np.ndarray.view)
        if np.ndim(vals) != 1 or vals.size == 0:
            raise ValueError("trace must be a nonempty 1-d array")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(self.values.mean())

    def sd(self) -> float:
        """Sample standard deviation (ddof=1), 0.0 for a single value."""
        return math.sqrt(self._var)

    @functools.cached_property
    def _var(self) -> float:
        """Sample variance (ddof=1), ``np.var``'s bits; inf or nan, unwarned, on overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.var(self.values, ddof=1)) if self.n > 1 else 0.0

    @functools.cached_property
    def _degeneracy(self) -> str | None:
        """Why the trace has no spread to divide by, or None, by the one rule:
        a variance that is not finite, or of 0 (subnormal differences), or a
        range of 0 (a constant whose float mean is not its value)."""
        if not math.isfinite(self._var):
            return "the sample variance overflows the float range"
        return "constant" if self._var == 0.0 or np.ptp(self.values) == 0.0 else None

    def _spread(self, constant: str = "degenerate (constant) trace") -> float:
        """The variance, or ``ValueError`` (``constant`` for a constant trace)."""
        if self._degeneracy is not None:
            raise ValueError(constant if self._degeneracy == "constant" else self._degeneracy)
        return self._var


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Seedable 64-bit generator (PCG64) used throughout the package; ``seed`` >= 0 or None."""
    if seed is not None:
        seed = _integer(seed, 0, f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def synthesize_fgn(h: HurstParam, n: int, seed: int, mode: BMode = FAST) -> Trace:
    """Synthesize an approximate FGN path of even length n >= 4.

    Deterministic per seed.  The output is zero-mean by construction (the
    DC coefficient is zeroed) and its absolute scale is a fixed artifact of
    the 1/n inverse-transform convention; use :func:`rescale_trace` to set
    physical units.

    After the spectrum, the stages run in place: each uniform draw becomes
    its Exp(1) variates or phases in its own array, and the half spectrum
    is written once into the one complex array that the inverse FFT reads.
    Their elementwise work runs on column ranges through
    ``spectrum._run_chunks`` under ``spectrum._chunk_count``'s rule (one
    range per CPU from n = 2^20, one below), with the same bits whatever
    the split.  So beyond the spectrum the call holds at most two
    path-sized arrays at a time.
    """
    n = _integer(n, 4, f"n must be an even integer of at least 4, got {n!r}", even=True)
    seed = _integer(seed, 0, f"seed must be an integer >= 0, got {seed!r}")
    # one expression, so that the spectrum and the half spectrum are freed once used
    values = np.fft.irfft(
        _half_spectrum(fgn_power_spectrum(h, _fourier_frequencies(n), mode), make_rng(seed)), n)
    return Trace(values, TraceProvenance(h=h, seed=seed, mode=mode))


def _half_spectrum(f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The m + 1 coefficients that ``synthesize_fgn`` inverts, 0 and then
    z_j = sqrt(f_j E_j) e^(i phi_j) in the documented draw order; overwrites
    the spectrum ``f``."""
    m = f.size
    half = np.empty(m + 1, dtype=complex)
    half[0] = 0.0
    z = half[1:]
    u = rng.random(m)
    ranges = _column_ranges(m, _chunk_count(m, m))

    def fuzz(c0: int, c1: int) -> None:  # sqrt(f E) with E = -log(1 - U)
        e = u[c0:c1]
        np.log1p(np.negative(e, out=e), out=e)
        fc = f[c0:c1]
        fc *= np.negative(e, out=e)
        np.sqrt(fc, out=fc)

    def phase(c0: int, c1: int) -> None:  # times e^(i phi), phi = 2 pi U
        zc = z[c0:c1]
        zc.real = 0.0
        np.multiply(2.0 * np.pi, u[c0:c1], out=zc.imag)
        np.exp(zc, out=zc)
        zc *= f[c0:c1]

    _run_chunks(fuzz, ranges)
    rng.random(out=u)
    _run_chunks(phase, ranges)
    z[-1] = np.abs(z[-1])  # the Nyquist bin is real
    return half


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
    n = _integer(n, 2, f"n must be an integer of at least 2, got {n!r}")
    r = fgn_autocorrelation(h, np.arange(n + 1))
    eig = np.fft.fft(np.concatenate((r, r[-2:0:-1]))).real
    if not eig.min() >= 0:  # NaN fails too
        raise ValueError(
            f"circulant embedding of the FGN covariance has a negative eigenvalue "
            f"for h={h.h}, n={n}"
        )
    z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    values = np.fft.fft(np.sqrt(eig / (2 * n)) * z).real[:n]
    return Trace(values, TraceProvenance(h=h, seed=None, mode=None))


def rescale_trace(t: Trace, target_mean: float, target_sd: float) -> Trace:
    """Affine map of a trace to the requested sample mean and sd (ddof=1).

    Raises ``ValueError`` for a trace with no spread (see :class:`Trace`)
    and, with no numpy warning first, when a rescaled value overflows.
    """
    target_mean = _real(target_mean, math.isfinite, "target mean must be finite")
    target_sd = _real(target_sd, lambda v: 0 < v < np.inf, "target sd must be finite and positive")
    sd = math.sqrt(t._spread("cannot rescale a constant trace"))
    with np.errstate(over="ignore", invalid="ignore"):  # the Trace check reports it
        values = (t.values - t.mean()) * (target_sd / sd) + target_mean
    return Trace(values, t.provenance)

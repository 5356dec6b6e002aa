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
Both draw their coefficients through one private routine,
``_half_spectrum``: sqrt(w E) e^(i phi), with E = -log(1 - U) and
phi = 2 pi U', is a circular complex normal (the Box-Muller pair), so
Paxson's method is a circulant embedding of length n on the weights f, and
the exact generator the same construction at length 2n on the circulant's
eigenvalues.  They differ only in the ends of the half spectrum:
:func:`synthesize_fgn` zeroes DC and takes |z| at Nyquist; :func:`exact_fgn`
draws a real normal for DC and takes sqrt(2) Re(z) at Nyquist.

Randomness comes from an explicit ``numpy.random.Generator`` (PCG64 when
created through :func:`make_rng`).  The draw order is fixed: all the
uniforms of the exponential variates (-log(1 - U), by inverse CDF) first,
n/2 for a synthesized path, then as many phase uniforms; the Nyquist
coefficient of a synthesized path is replaced by its modulus after the
draw, so its half spectrum is exactly conjugate-symmetric.  :func:`exact_fgn`
draws n and n uniforms the same way, then one standard normal for DC.  A
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
    physical units.  The Nyquist coefficient is |z| (see the module
    docstring).

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
    # one expression, so that the spectrum is freed once used
    half = _half_spectrum(fgn_power_spectrum(h, _fourier_frequencies(n), mode), make_rng(seed))
    # the Nyquist bin is real; the scalar's own abs() differs from np.abs in
    # the last bit for about a third of values
    half[-1] = np.abs(half[-1])
    return Trace(np.fft.irfft(half, n), TraceProvenance(h=h, seed=seed, mode=mode))


def _half_spectrum(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The package's one coefficient draw: the m + 1 coefficients 0 and then
    z_j = sqrt(w_j E_j) e^(i phi_j), j = 1..m, for the m weights ``w``, which
    it overwrites.  It draws all m uniforms of the E_j = -log(1 - U) first,
    then all m phase uniforms (phi = 2 pi U'); the last coefficient is left
    as drawn, for the caller's Nyquist rule.  Each z_j is a circular complex
    normal with E|z_j|^2 = w_j, each component of variance w_j / 2."""
    m = w.size
    half = np.zeros(m + 1, dtype=complex)
    z = half[1:]
    u = rng.random(m)
    ranges = _column_ranges(m, _chunk_count(m, m))

    def fuzz(c0: int, c1: int) -> None:  # sqrt(w E) with E = -log(1 - U)
        e = u[c0:c1]
        np.log1p(np.negative(e, out=e), out=e)
        wc = w[c0:c1]
        wc *= np.negative(e, out=e)
        np.sqrt(wc, out=wc)

    def phase(c0: int, c1: int) -> None:  # times e^(i phi), phi = 2 pi U
        zc = z[c0:c1]
        zc.real = 0.0
        np.multiply(2.0 * np.pi, u[c0:c1], out=zc.imag)
        np.exp(zc, out=zc)
        zc *= w[c0:c1]

    _run_chunks(fuzz, ranges)
    rng.random(out=u)
    _run_chunks(phase, ranges)
    return half


def exact_fgn(h: HurstParam, n: int, rng: np.random.Generator) -> Trace:
    """Exact Gaussian FGN of length n >= 2 by circulant embedding.

    The lags r(0..n) of :func:`fgn_autocorrelation` form the first row
    ``[r(0), ..., r(n), r(n-1), ..., r(1)]`` of a 2n x 2n circulant whose
    leading n x n block is the FGN covariance.  Its n + 1 distinct
    eigenvalues eig_0..eig_n are the first n + 1 values of that row's real
    FFT, taken as ``np.fft.hfft(r, 2n)`` without building the row.  The
    path is the first n values of the real inverse FFT, of length 2n, of
    the half spectrum that :func:`synthesize_fgn` draws
    (``_half_spectrum``) on the weights 2n eig_1..2n eig_n, with the DC
    coefficient sqrt(2n eig_0) N(0, 1) and the Nyquist coefficient z_n
    replaced by sqrt(2) Re(z_n); its covariance is exactly the circulant's
    (Davies & Harte 1987; Wood & Chan 1994).  O(n log n), no size cap.
    The returned values own exactly n floats.

    Draw order: n uniforms for the exponential variates, n phase uniforms
    (as in :func:`synthesize_fgn`), then one standard normal for DC.

    A negative computed eigenvalue raises ``ValueError``: nothing is
    clipped.  The cause is cancellation in ``fgn_autocorrelation`` at large
    lags as h nears 1.  None occurs for n <= 4096 below h = 1 - 1e-7; on
    fine h grids the first failures were at h = 1 - 1.8e-5 for n = 32768,
    h = 0.996 for n = 2^18 and h = 0.955 for n = 2^20.
    """
    n = _integer(n, 2, f"n must be an integer of at least 2, got {n!r}")
    # a copy, so that the other n - 1 values of the transform are freed at once
    eig = np.fft.hfft(fgn_autocorrelation(h, np.arange(n + 1)), 2 * n)[: n + 1].copy()
    if not eig.min() >= 0:  # NaN fails too
        raise ValueError(f"circulant embedding of the FGN covariance has a negative "
                         f"eigenvalue for h={h.h}, n={n}")
    half = _half_spectrum(eig[1:] * (2 * n), rng)
    half[0] = math.sqrt(2 * n * eig[0]) * rng.standard_normal()
    half[-1] = math.sqrt(2.0) * half[-1].real
    # a copy, so that the trace does not keep the other n values alive
    return Trace(np.fft.irfft(half, 2 * n)[:n].copy(), TraceProvenance(h=h))


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

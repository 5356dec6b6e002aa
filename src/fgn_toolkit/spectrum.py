"""Spectral and autocorrelation math for fractional Gaussian noise.

The power spectrum of FGN at angular frequency lam in (0, pi] for Hurst
parameter h in (1/2, 1) is

    f(lam, h) = A(lam, h) * (lam**(-2h-1) + B(lam, h))

with

    A(lam, h) = 2 sin(pi h) Gamma(2h + 1) (1 - cos lam)
    B(lam, h) = sum_{j>=1} (2 pi j + lam)**(-2h-1) + (2 pi j - lam)**(-2h-1)

B has no known closed form.  This module evaluates it four ways:

* ``BMode.partial(N)``: the raw sum truncated after N terms.  Always an
  underestimate (all terms are positive).  ``partial(200)`` is the
  conventional baseline for Whittle estimation, ``partial(10000)`` is
  near-exact and serves as the reference in error tests.  The terms are
  added in order j = 1..N at each lam.
* ``BMode.truncated(k)``: keep the first k terms exactly and replace the
  tail with closed-form integral bounds of the summand,

      sum_{j=1..k} (a_j**d + b_j**d)
        + (a_k**d' + a_{k+1}**d' + b_k**d' + b_{k+1}**d') / (8 pi h)

  where a_j = 2 pi j + lam, b_j = 2 pi j - lam, d = -2h - 1, d' = -2h.
  This slightly overestimates B; for k = 3 the relative error stays
  below 0.5% over h in [0.5, 0.9].
* ``BMode.truncated_prime()``: the k = 3 truncation minus a fitted
  h-dependent bias term, cutting the error to about 0.025%.
* ``BMode.truncated_double_prime()``: additionally applies a fitted
  linear-in-lam factor, cutting the error to about 0.0075%.

All evaluators are vectorized over ``lam`` and elementwise: the value at
one lam is the same whether it is evaluated alone or inside any grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

__all__ = [
    "HurstParam",
    "BMode",
    "SpectrumGrid",
    "fgn_autocorrelation",
    "spectrum_factor_a",
    "spectrum_b",
    "fgn_power_spectrum",
    "build_spectrum_grid",
]

# Fitted constants for the corrected k=3 truncation: the prime variant
# subtracts 2**(-7.65 h - 7.4); the double-prime variant then multiplies
# by (1.0002 - 0.000134 lam).
_PRIME_COEFF = -7.65
_PRIME_OFFSET = -7.4
_DPRIME_K1 = 1.0002
_DPRIME_K2 = -0.000134

# Elements per (terms, lam) block of a partial sum: enough rows to vectorize
# over j on short grids, few enough that a block stays in cache.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class HurstParam:
    """Validated Hurst parameter, strictly inside (1/2, 1).

    The strict constructor rejects h = 1/2; use :meth:`permissive` when a
    white-noise edge case is genuinely wanted (mostly in tests).
    """

    h: float

    def __post_init__(self) -> None:
        h = float(self.h)
        if not 0.5 < h < 1.0:
            raise ValueError(f"Hurst parameter must satisfy 0.5 < h < 1, got {h}")
        object.__setattr__(self, "h", h)

    @classmethod
    def permissive(cls, h: float) -> "HurstParam":
        """Like the constructor but also accepts h = 0.5 (white noise)."""
        h = float(h)
        if not 0.5 <= h < 1.0:
            raise ValueError(f"Hurst parameter must satisfy 0.5 <= h < 1, got {h}")
        obj = object.__new__(cls)
        object.__setattr__(obj, "h", h)
        return obj


@dataclass(frozen=True)
class BMode:
    """Evaluation strategy for the infinite spectral sum B(lam, h).

    ``kind`` is one of ``"k"`` (truncation with integral tail),
    ``"prime"`` / ``"doubleprime"`` (the corrected k=3 truncations) or
    ``"partial"`` (raw partial sum); ``terms`` is k for truncations and
    the number of summed terms for partial sums.
    """

    kind: str
    terms: int

    _KINDS = ("k", "prime", "doubleprime", "partial")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown B mode kind {self.kind!r}")
        if self.terms < 1:
            raise ValueError(f"B mode needs at least one term, got {self.terms}")
        if self.kind in ("prime", "doubleprime") and self.terms != 3:
            raise ValueError(f"corrected modes are defined for k = 3 only, got {self.terms}")

    @classmethod
    def truncated(cls, k: int = 3) -> "BMode":
        return cls("k", int(k))

    @classmethod
    def truncated_prime(cls) -> "BMode":
        return cls("prime", 3)

    @classmethod
    def truncated_double_prime(cls) -> "BMode":
        return cls("doubleprime", 3)

    @classmethod
    def partial(cls, n_terms: int) -> "BMode":
        return cls("partial", int(n_terms))

    @classmethod
    def parse(cls, text: str) -> "BMode":
        """Parse a mode spelled as on the command line.

        Accepts ``fast`` (alias for ``doubleprime``), ``exact`` (alias for
        ``partial:200``), ``prime``, ``doubleprime``, ``k:<K>`` and
        ``partial:<N>``.
        """
        text = text.strip().lower()
        if text == "fast":
            return cls.truncated_double_prime()
        if text == "exact":
            return cls.partial(200)
        if text == "prime":
            return cls.truncated_prime()
        if text == "doubleprime":
            return cls.truncated_double_prime()
        if text.startswith("k:"):
            return cls.truncated(int(text[2:]))
        if text.startswith("partial:"):
            return cls.partial(int(text[8:]))
        raise ValueError(f"cannot parse B mode {text!r}")

    def __str__(self) -> str:
        if self.kind == "k":
            return f"k:{self.terms}"
        if self.kind == "partial":
            return f"partial:{self.terms}"
        return self.kind


# Common mode instances.
FAST = BMode.truncated_double_prime()
EXACT = BMode.partial(200)
NEAR_EXACT = BMode.partial(10000)


@dataclass(frozen=True)
class SpectrumGrid:
    """Power-spectrum or periodogram values on strictly increasing frequencies."""

    lambdas: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if lam.ndim != 1 or val.ndim != 1 or lam.size != val.size:
            raise ValueError("lambdas and values must be 1-d arrays of equal length")
        if lam.size == 0:
            raise ValueError("empty spectrum grid")
        if np.any(lam <= 0) or np.any(lam > np.pi):
            raise ValueError("frequencies must lie in (0, pi]")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(val < 0):
            raise ValueError("spectrum values must be nonnegative")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "values", val)

    def __len__(self) -> int:
        return self.lambdas.size

    @property
    def n(self) -> int:
        """Length of the time-domain path whose Fourier frequencies these are."""
        return 2 * self.lambdas.size


def fgn_autocorrelation(h: HurstParam, k):
    """Exact FGN autocorrelation r(k) = ((k+1)^2H - 2 k^2H + |k-1|^2H) / 2.

    ``k`` may be a nonnegative integer or an array of them; r(0) = 1.
    For h = 1/2 (permissive constructor) this is 0 at every positive lag.
    """
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 0):
        raise ValueError("lag must be nonnegative")
    two_h = 2.0 * h.h
    r = 0.5 * ((karr + 1.0) ** two_h - 2.0 * karr**two_h + np.abs(karr - 1.0) ** two_h)
    return float(r) if np.isscalar(k) or karr.ndim == 0 else r


def spectrum_factor_a(h: HurstParam, lam):
    """Frequency-dependent prefactor A(lam, h) = 2 sin(pi h) Gamma(2h+1) (1 - cos lam)."""
    larr = np.asarray(lam, dtype=float)
    if np.any(np.abs(larr) > np.pi):
        raise ValueError("|lambda| must not exceed pi")
    a = _factor_a(larr, h.h)
    return float(a) if np.isscalar(lam) or larr.ndim == 0 else a


def _factor_a(lam: np.ndarray, h: float) -> np.ndarray:
    return 2.0 * np.sin(np.pi * h) * _gamma(2.0 * h + 1.0) * (1.0 - np.cos(lam))


def _b_partial(lam: np.ndarray, h: float, n_terms: int) -> np.ndarray:
    """Raw partial sum of B, adding the terms at each lam in order j = 1..n_terms.

    The order is strict whatever the grid length, so each value depends on
    its own lam, h and n_terms only.
    """
    d = -2.0 * h - 1.0
    out = np.zeros_like(lam)
    rows = max(1, _BLOCK_ELEMENTS // max(lam.size, 1))
    for j0 in range(1, n_terms + 1, rows):
        tp = 2.0 * np.pi * np.arange(j0, min(j0 + rows, n_terms + 1), dtype=float)[:, None]
        terms = (tp + lam) ** d + (tp - lam) ** d
        terms[0] += out  # carry the running sum in as the block's first addend
        # add.reduce sums the rows of a block in order, but a lone column
        # pairwise; cumsum keeps a lone column in order.
        out = np.add.reduce(terms, axis=0) if lam.size > 1 else np.cumsum(terms, axis=0)[-1]
    return out


def _b_truncated(lam: np.ndarray, h: float, k: int) -> np.ndarray:
    """First k terms plus the closed-form integral tail."""
    # its own 1-d loop: through _b_partial's block carry, fast mode at 2^20
    # frequencies ran 7-10% slower once earlier large arrays had been freed
    d = -2.0 * h - 1.0
    dprime = -2.0 * h
    out = np.zeros_like(lam)
    for j in range(1, k + 1):
        tp = 2.0 * np.pi * j
        out += (tp + lam) ** d + (tp - lam) ** d
    a_k = 2.0 * np.pi * k + lam
    a_k1 = 2.0 * np.pi * (k + 1) + lam
    b_k = 2.0 * np.pi * k - lam
    b_k1 = 2.0 * np.pi * (k + 1) - lam
    tail = (a_k**dprime + a_k1**dprime + b_k**dprime + b_k1**dprime) / (8.0 * h * np.pi)
    return out + tail


def _b_values(lam: np.ndarray, h: float, mode: BMode) -> np.ndarray:
    if mode.kind == "partial":
        return _b_partial(lam, h, mode.terms)
    out = _b_truncated(lam, h, mode.terms)
    if mode.kind in ("prime", "doubleprime"):
        out = out - 2.0 ** (_PRIME_COEFF * h + _PRIME_OFFSET)
    if mode.kind == "doubleprime":
        out = (_DPRIME_K1 + _DPRIME_K2 * lam) * out
    return out


def _check_open_domain(lam: np.ndarray) -> None:
    if np.any(lam <= 0) or np.any(lam > np.pi):
        raise ValueError("lambda must lie in (0, pi]")


def spectrum_b(h: HurstParam, lam, mode: BMode):
    """Evaluate the infinite-sum component B(lam, h) under the given mode."""
    larr = np.asarray(lam, dtype=float)
    _check_open_domain(larr)
    out = _b_values(np.atleast_1d(larr), h.h, mode)
    return float(out[0]) if np.isscalar(lam) or larr.ndim == 0 else out


def _power_spectrum_values(lam: np.ndarray, h: float, mode: BMode) -> np.ndarray:
    """f(lam, h) on a validated array with a raw float h (no HurstParam)."""
    return _factor_a(lam, h) * (lam ** (-2.0 * h - 1.0) + _b_values(lam, h, mode))


def fgn_power_spectrum(h: HurstParam, lam, mode: BMode):
    """FGN power spectrum f(lam, h) = A(lam, h) (lam^(-2h-1) + B(lam, h)).

    Strictly positive on (0, pi].  It decreases in lam (long-range
    dependence concentrates power at low frequencies); on very fine grids
    the decrease between adjacent points near pi can fall below double
    precision resolution for the truncated modes.
    """
    larr = np.asarray(lam, dtype=float)
    _check_open_domain(larr)
    out = _power_spectrum_values(np.atleast_1d(larr), h.h, mode)
    return float(out[0]) if np.isscalar(lam) or larr.ndim == 0 else out


def build_spectrum_grid(h: HurstParam, n: int, mode: BMode) -> SpectrumGrid:
    """Spectrum sampled at the n/2 Fourier frequencies 2 pi j / n, j = 1..n/2.

    ``n`` is the length of the time-domain path to be synthesized and must
    be even; the last frequency is exactly pi.
    """
    n = int(n)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be a positive even integer, got {n}")
    lam = 2.0 * np.pi * np.arange(1, n // 2 + 1, dtype=float) / n
    return SpectrumGrid(lam, _power_spectrum_values(lam, h.h, mode))

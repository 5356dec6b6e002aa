"""Evaluation battery for purported self-similar sample paths.

Covers block-mean aggregation, variance-time curves with a least-squares
slope fit (slope -2(1-H) for a self-similar process, so the implied Hurst
parameter is 1 + slope/2), the Anderson-Darling A^2 test for marginal
normality with estimated mean and variance, normal Q-Q plot data and the
sample autocorrelation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .synth import Trace

__all__ = [
    "VarianceTimeCurve",
    "NormalityReport",
    "AD_CRITICAL_5PCT",
    "default_m_levels",
    "aggregate",
    "variance_time_curve",
    "ad_statistic",
    "ad_normality_test",
    "qq_points",
    "sample_autocorrelation",
]

# 5% critical value of the modified A^2 statistic (mean and variance
# estimated from the sample).  Calibrated by Monte Carlo with 100k
# standard-normal samples at each of n = 64, 256, 1024, 4096, which gave
# 95th percentiles 0.7521, 0.7540, 0.7484, 0.7516; regenerate with
# tools/calibrate_ad_critical.py.
AD_CRITICAL_5PCT = 0.752


@dataclass(frozen=True)
class VarianceTimeCurve:
    """Normalized aggregated variances by aggregation level, plus the fit."""

    m_levels: np.ndarray
    norm_vars: np.ndarray
    fitted_slope: float
    implied_h: float


@dataclass(frozen=True)
class NormalityReport:
    a2_statistic: float
    pass_at_5pct: bool
    n: int
    standardized: bool = True


def default_m_levels(n: int) -> np.ndarray:
    """Log-spaced aggregation levels, 12 per decade from 1 up to n/10."""
    levels = np.unique(np.round(10.0 ** (np.arange(0, 37) / 12.0)).astype(int))
    return levels[levels <= n // 10]


def aggregate(t: Trace, m: int) -> Trace:
    """Block means over non-overlapping windows of m samples.

    The output has floor(n/m) elements; a trailing partial block is
    dropped.
    """
    m = int(m)
    if m < 1:
        raise ValueError("aggregation level must be at least 1")
    if m > t.n:
        raise ValueError(f"aggregation level {m} exceeds trace length {t.n}")
    if m == 1:
        return Trace(t.values.copy(), t.provenance)
    k = t.n // m
    return Trace(t.values[: k * m].reshape(k, m).mean(axis=1), t.provenance)


def variance_time_curve(t: Trace, m_levels=None) -> VarianceTimeCurve:
    """Variance of the aggregated path versus aggregation level, log-log fit.

    Levels must start at 1 (so the first normalized variance is exactly 1),
    increase strictly, and leave at least 10 aggregated points each, i.e.
    m <= n/10.  The slope fit weights all levels equally even though the
    power law is asymptotic, so small levels can bias it slightly.
    """
    levels = default_m_levels(t.n) if m_levels is None else np.asarray(m_levels, dtype=int)
    if levels.size < 2 or levels[0] != 1 or np.any(np.diff(levels) <= 0):
        raise ValueError("aggregation levels must be strictly increasing and start at 1")
    if np.any(levels > t.n // 10):
        raise ValueError("every aggregation level must leave at least 10 points (m <= n/10)")
    base_var = float(np.var(t.values, ddof=1))
    if base_var == 0.0:
        raise ValueError("degenerate (constant) trace")
    norm_vars = np.array(
        [np.var(aggregate(t, int(m)).values, ddof=1) / base_var for m in levels]
    )
    slope = float(np.polyfit(np.log10(levels), np.log10(norm_vars), 1)[0])
    return VarianceTimeCurve(
        m_levels=levels,
        norm_vars=norm_vars,
        fitted_slope=slope,
        implied_h=1.0 + slope / 2.0,
    )


def ad_statistic(values: np.ndarray) -> float | np.ndarray:
    """Modified A^2 against the normal with estimated mean and variance.

    Applies the small-sample factor (1 + 0.75/n + 2.25/n^2); compare to
    ``AD_CRITICAL_5PCT``.  CDF values are clipped away from {0, 1} so the
    statistic stays finite for extreme outliers (which fail anyway).  Each
    row along the last axis is one sample: a 1-d input gives a float, a
    2-d one an array with one statistic per row.
    """
    x = np.asarray(values, dtype=float)
    n = x.shape[-1]
    y = np.sort(x, axis=-1)
    mean = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, ddof=1, keepdims=True)
    z = ndtr((y - mean) / sd)
    z = np.clip(z, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    s = np.sum((2.0 * i - 1.0) / n * (np.log(z) + np.log1p(-z[..., ::-1])), axis=-1)
    a2 = (-n - s) * (1.0 + 0.75 / n + 2.25 / n**2)
    return float(a2) if x.ndim == 1 else a2


def ad_normality_test(t: Trace) -> NormalityReport:
    """A^2 test of marginal normality at the 5% level, n >= 20."""
    if t.n < 20:
        raise ValueError("normality test needs at least 20 samples")
    if float(np.std(t.values, ddof=1)) == 0.0:
        raise ValueError("degenerate (constant) trace")
    a2 = ad_statistic(t.values)
    return NormalityReport(a2_statistic=a2, pass_at_5pct=a2 < AD_CRITICAL_5PCT, n=t.n)


def qq_points(t: Trace) -> np.ndarray:
    """Normal Q-Q data: shape (n, 2) of (theoretical, sample) quantiles.

    Sample values are sorted and paired with standard-normal quantiles at
    plotting positions (i - 0.5)/n.
    """
    if t.n < 2:
        raise ValueError("Q-Q plot needs at least 2 samples")
    theoretical = ndtri((np.arange(1, t.n + 1) - 0.5) / t.n)
    return np.column_stack([theoretical, np.sort(t.values)])


def sample_autocorrelation(t: Trace, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation rho_hat(k) for k = 0..max_lag.

    rho_hat(k) = sum (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2,
    with max_lag < n/4 so every lag keeps a reasonable overlap.
    """
    max_lag = int(max_lag)
    if max_lag < 0 or max_lag >= t.n / 4:
        raise ValueError(f"max_lag must satisfy 0 <= max_lag < n/4, got {max_lag}")
    centered = t.values - t.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise ValueError("degenerate (constant) trace")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = np.dot(centered[:-k], centered[k:]) / denom
    return out

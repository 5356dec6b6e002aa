"""Evaluation battery for purported self-similar sample paths.

Covers block-mean aggregation, variance-time curves with a least-squares
slope fit (slope -2(1-H) for a self-similar process, so the implied Hurst
parameter is 1 + slope/2), the Anderson-Darling A^2 test for marginal
normality with estimated mean and variance, normal Q-Q plot data and the
sample autocorrelation.  Each rejects a trace with no spread by the
trace's own rule (``Trace``: constant, or an overflowing variance).  The
autocorrelation sums every lag at once as a blocked Gram product of the
trace's consecutive blocks (BLAS matrix products, O(n (max_lag + 1024))
work, a few MB of scratch for any lag).

The variance-time levels, the elementwise passes of A^2 and the Q-Q
quantiles run on ranges (of levels, or of columns) through
``spectrum._run_chunks``, the thread runner of the spectral sums, with its
count rule: one range per CPU the process may use for a large trace, and
no thread for a small one or in a one-CPU process.  A range writes only
into arrays the calling thread allocated and allocates none itself, and
every sum over a whole trace or level is taken whole, so the results have
the same bits however the work is split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import _chunk_count, _column_ranges, _integer, _run_chunks
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

# Largest block length P of sample_autocorrelation's Gram product: its
# P x 2P buffer (4 MB at 512) bounds the scratch memory for any max_lag.
# 256 and 1024 were up to 9% slower at n = 2^21, max_lag 1000 and 3000.
_ACF_BLOCK = 512

# Block means of fewer values than this are summed as columns of
# reshape(k, m), in order: numpy's .mean(axis=1) adds so short a row in the
# same order (from 8 values it sums a row pairwise), so the bits are the
# same, without a reduction call per row (20 -> 2 ms at m = 2, n = 2^21).
_COLUMN_SUM_BELOW = 8


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


def default_m_levels(n: int) -> np.ndarray:
    """Log-spaced aggregation levels, 12 per decade from 1 up to n/10."""
    levels = np.unique(np.round(10.0 ** (np.arange(0, 37) / 12.0)).astype(int))
    return levels[levels <= _integer(n, 0, f"n must be a nonnegative integer, got {n!r}") // 10]


def aggregate(t: Trace, m: int) -> Trace:
    """Block means over non-overlapping windows of m samples.

    The output has floor(n/m) elements; a trailing partial block is
    dropped.
    """
    m = _integer(m, 1, f"aggregation level must be an integer from 1 to the trace length {t.n}, "
                       f"got {m!r}", t.n + 1)
    if m == 1:
        return Trace(t.values.copy(), t.provenance)
    return Trace(_block_means(t.values, m, np.empty(t.n // m)), t.provenance)


def _block_means(x: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """The floor(n/m) block means of x, m >= 2, into ``out``, with the bits
    of ``reshape(k, m).mean(axis=1)``; allocates no array."""
    k = out.size
    blocks = x[: k * m].reshape(k, m)
    if m < _COLUMN_SUM_BELOW:
        np.add(blocks[:, 0], blocks[:, 1], out=out)
        for j in range(2, m):
            out += blocks[:, j]
    else:
        np.add.reduce(blocks, axis=1, out=out)
    out /= m
    return out


def _variance_in_place(x: np.ndarray) -> float:
    """``np.var(x, ddof=1)`` with its bits, overwriting x instead of
    allocating: the mean, the squared deviations, their sum over n - 1."""
    x -= np.add.reduce(x) / x.size
    np.square(x, out=x)
    return float(np.add.reduce(x) / (x.size - 1))


def _level_variances(x: np.ndarray, levels: np.ndarray, count: int) -> np.ndarray:
    """The sample variance (ddof=1) of x's block means at each level > 1,
    on ``count`` ranges through ``spectrum._run_chunks``.

    Level i goes to range i mod count: a level's cost falls slowly with m
    (at n = 2^21 on a 2-vCPU host, ~5 ms for m < 8 to ~1 ms at m = 1000), so
    interleaved ranges are about equal.  Each range works in its own region
    of one buffer, as long as the block means of its first (largest) level.
    """
    groups = [range(c, levels.size, count) for c in range(count)]
    offsets = np.cumsum([0] + [x.size // levels[g[0]] for g in groups]).tolist()
    work = np.empty(offsets[-1])
    out = np.empty(levels.size)

    def run(c0: int, c1: int) -> None:
        buf = work[offsets[c0] : offsets[c1]]
        for i in groups[c0]:
            out[i] = _variance_in_place(_block_means(x, int(levels[i]), buf[: x.size // levels[i]]))

    _run_chunks(run, [(c, c + 1) for c in range(count)])
    return out


def variance_time_curve(t: Trace, m_levels=None) -> VarianceTimeCurve:
    """Variance of the aggregated path versus aggregation level, log-log fit.

    Levels are integers (``_integer``'s rule) that start at 1 (so the first
    normalized variance is exactly 1), increase strictly and leave at least
    10 aggregated points each, i.e. m <= n/10.  The slope fit weights all
    levels equally, though the power law is asymptotic: small levels can bias it.
    """
    if m_levels is None and t.n < 20:  # the default levels would be [1]
        raise ValueError(f"variance-time needs at least 20 samples, got {t.n}")
    bad = "aggregation levels must be strictly increasing integers that start at 1"
    levels = default_m_levels(t.n) if m_levels is None else np.array(
        [_integer(m, 1, bad) for m in np.array(m_levels, dtype=object, ndmin=1).tolist()])
    if levels.size < 2 or levels[0] != 1 or np.any(np.diff(levels) <= 0):
        raise ValueError(bad)
    if np.any(levels > t.n // 10):
        raise ValueError("every aggregation level must leave at least 10 points (m <= n/10)")
    base_var = t._spread()
    # level 1 is the trace itself, whose normalized variance is 1 by definition
    norm_vars = np.ones(levels.size)
    count = _chunk_count(int(np.sum(t.n // levels[1:])), levels.size - 1)
    norm_vars[1:] = _level_variances(t.values, levels[1:], count) / base_var
    if not np.all(norm_vars > 0.0):  # e.g. a trace alternating between two values
        m = levels[np.argmin(norm_vars)]
        raise ValueError(f"the variance of the block means vanishes at level m={m}")
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
    from scipy.special import ndtr  # here, so that importing the package skips scipy

    x = np.asarray(values, dtype=float)
    n = x.shape[-1]
    mean = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, ddof=1, keepdims=True)
    # one sorted copy z and one scratch w; the elementwise passes run on
    # column ranges, the sum over each row whole
    z = np.sort(x, axis=-1)
    w = np.empty_like(z)
    ranges = _column_ranges(n, _chunk_count(z.size, n))

    def cdf(c0: int, c1: int) -> None:
        zc = z[..., c0:c1]
        zc -= mean
        zc /= sd
        ndtr(zc, out=zc)
        np.clip(zc, 1e-300, 1.0 - 1e-16, out=zc)

    def upper_tail(c0: int, c1: int) -> None:  # log1p(-z), row reversed
        wc = w[..., c0:c1]
        np.log1p(np.negative(z[..., ::-1][..., c0:c1], out=wc), out=wc)

    def terms(c0: int, c1: int) -> None:
        zc = z[..., c0:c1]
        np.log(zc, out=zc)
        zc += w[..., c0:c1]
        # the weights (2i - 1) / n in the first row of w: 2i - 1 = 1, 3, 5,
        # ... as an exact running sum
        weights = w[(0,) * (x.ndim - 1)][c0:c1]
        weights.fill(2.0)
        weights[0] = 2.0 * c0 + 1.0
        np.cumsum(weights, out=weights)
        weights /= n
        zc *= weights

    for fn in (cdf, upper_tail, terms):
        _run_chunks(fn, ranges)
    a2 = (-n - np.sum(z, axis=-1)) * (1.0 + 0.75 / n + 2.25 / n**2)
    return float(a2) if x.ndim == 1 else a2


def ad_normality_test(t: Trace) -> NormalityReport:
    """A^2 test of marginal normality at the 5% level, n >= 20."""
    _integer(t.n, 20, "normality test needs at least 20 samples")
    t._spread()
    a2 = ad_statistic(t.values)
    return NormalityReport(a2_statistic=a2, pass_at_5pct=a2 < AD_CRITICAL_5PCT, n=t.n)


def qq_points(t: Trace) -> np.ndarray:
    """Normal Q-Q data: shape (n, 2) of (theoretical, sample) quantiles.

    Sample values are sorted and paired with standard-normal quantiles at
    plotting positions (i - 0.5)/n.  A constant trace is rejected: its
    sample quantiles have no spread to compare.
    """
    from scipy.special import ndtri  # here, so that importing the package skips scipy

    _integer(t.n, 2, "Q-Q plot needs at least 2 samples")
    t._spread()
    n = t.n
    out = np.empty((n, 2))
    ordered = np.sort(t.values)

    def fill(c0: int, c1: int) -> None:
        p = out[c0:c1, 0]
        # i - 0.5 for i = c0+1..c1 as an exact running sum, then over n
        p.fill(1.0)
        p[0] = c0 + 0.5
        np.cumsum(p, out=p)
        p /= n
        ndtri(p, out=p)
        out[c0:c1, 1] = ordered[c0:c1]

    _run_chunks(fill, _column_ranges(n, _chunk_count(n, n)))
    return out


def sample_autocorrelation(t: Trace, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation rho_hat(k) for k = 0..max_lag.

    rho_hat(k) = sum (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2,
    with max_lag < n/4 so every lag keeps a reasonable overlap.

    The sums come from a blocked Gram product, not one dot product per
    lag.  The centred trace, zero-padded, is cut into the rows of an
    (m, P) matrix M of consecutive blocks, P = min(max_lag + 1, 512).
    With G_0 = M.T @ M and G_g = M[:-g].T @ M[g:], the sum for lag
    k = gP + s is diagonal s of G_g plus diagonal s - P of G_{g+1}; a
    skewed view of [G_g | G_{g+1}] reads both as its column sums.  That
    is max_lag // P + 2 matrix products of O(nP) each, so the cost is
    O(n (max_lag + 2P)) at BLAS speed, and the scratch memory is one
    padded copy of the trace plus a P x 2P buffer, whatever max_lag is.
    rho_hat(0) is exactly 1.  BLAS may split a product over threads, so
    the last bits depend on its thread count (as a dot product's do); a
    run repeated in the same environment gives the same bits.
    """
    max_lag = _integer(max_lag, 0, f"max_lag must be an integer with 0 <= max_lag < n/4, "
                                   f"got {max_lag!r}", t.n / 4)
    t._spread()
    p = min(max_lag + 1, _ACF_BLOCK)
    m = -(-t.n // p)
    padded = np.zeros(m * p)
    padded[: t.n] = t.values
    padded[: t.n] -= t.mean()
    blocks = padded.reshape(m, p)
    # [G_g | G_{g+1}] lives in the first 2P^2 values of buf; row a of the
    # (P, 2P+1) view starts at column a of that matrix, so its column s
    # holds G_g[a, a+s] when a+s < P and G_{g+1}[a, a+s-P] otherwise
    buf = np.zeros(2 * p * p + p)
    pair = buf[: 2 * p * p].reshape(p, 2 * p)
    skew = buf.reshape(p, 2 * p + 1)[:, :p]
    n_groups = max_lag // p + 1
    r = np.empty(n_groups * p)
    np.matmul(blocks.T, blocks, out=pair[:, p:])
    for g in range(n_groups):
        pair[:, :p] = pair[:, p:]
        np.matmul(blocks[: m - g - 1].T, blocks[g + 1 : m], out=pair[:, p:])
        np.sum(skew, axis=0, out=r[g * p : (g + 1) * p])
    return r[: max_lag + 1] / r[0]

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

The variance-time levels, the A^2 terms and the Q-Q quantiles run on
ranges (of levels, of blocks of pairs of mirrored columns dealt out in
turn, or of columns) through ``spectrum._run_chunks``, the thread runner
of the spectral sums, with its count rule: one range per CPU the process
may use for a large trace, and no thread for a small one or in a one-CPU
process.  A range writes only into arrays the calling thread allocated and
allocates none itself, and every sum over a whole trace or level is taken
whole, so the results have the same bits however the work is split.

The normal CDF of A^2 and the normal quantiles of Q-Q are computed here, in
numpy alone, so that no part of the package imports scipy: the CDF from
Cody's rational approximations of erf and erfc, the quantile by Wichura's
AS241 (``_ndtr``, ``_ndtri``).  Each is piecewise, and both take sorted
input, on which each piece is a run of columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectrum import _chunk_count, _column_ranges, _elementwise, _integer, _run_chunks
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

# Values per block of ad_statistic's pair pass, which bounds its scratch: three
# arrays of this many values (768 KB) per range, four when a block holds several
# rows (2-d input, rows of up to this many values).  At n = 2^21 on a 2-vCPU
# host A^2 took 128, 75, 60, 63 and 68 ms at 2048, 8192, 32768, 131072 and
# 2^20, against 68 ms with two trace-sized arrays (measured with scipy's
# ndtr); with the CDF below, 85 ms at 16384 against 70 at 32768.  Q-Q's
# blocks are as long where its memory rule allows.
_AD_BLOCK = 32768


def _pair(num, den, a: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Horner-order coefficients (highest power first) of N(a x) / a^k and
    D(a x) / a^k, for the numerator N and denominator D of degree k given:
    the same ratio, in the variable x, and D stays monic."""
    scale = float(a) ** -np.arange(len(den))
    return np.array(num, dtype=float) * scale, np.array(den, dtype=float) * scale


# Phi(z) = erfc(-z / sqrt 2) / 2 from W. J. Cody, "Rational Chebyshev
# approximations for the error function", Math. Comp. 23 (1969) 631-637,
# with the coefficients of his CALERF routine; y = |z| / sqrt 2.
# erf(y) = y A(y^2) / B(y^2) for y <= 0.46875; erfc(y) = exp(-y^2) C(y) / D(y)
# for y <= 4; beyond, erfc(y) = exp(-y^2) (1/sqrt(pi) - s P(s) / Q(s)) / y
# with s = 1/y^2.  A and B are taken in z^2, and C and D in z (one pair for
# each sign of z); A carries the 1/(2 sqrt 2) of Phi = 1/2 + z A / (2 sqrt 2 B),
# C the 1/2 of Phi = erfc / 2.
_CODY_A = np.array([1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
                    3.77485237685302021e2, 3.20937758913846947e3])
_CODY_B = [1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
           2.84423683343917062e3]
_CODY_C = np.array([2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
                    6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
                    1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3])
_CODY_D = [1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
           1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
           3.43936767414372164e3, 1.23033935480374942e3]
_CODY_AB = _pair(_CODY_A * (np.sqrt(0.5) / 2), _CODY_B, 0.5)
_CODY_CD = {side: _pair(_CODY_C / 2, _CODY_D, side * np.sqrt(0.5)) for side in (-1, 1)}
_CODY_PQ = _pair([1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
                  1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4],
                 [1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
                  6.05183413124413191e-2, 2.33520497626869185e-3])
# the pieces of Phi, by z: where Cody's y crosses 4 and 0.46875, and where
# exp(-z^2 / 2) gets split (|z| >= 2; below, the rounding of z^2 costs at
# most one ulp)
_PHI_EDGES = np.array([-4.0 * np.sqrt(2.0), -2.0, -0.46875 * np.sqrt(2.0), 0.46875 * np.sqrt(2.0),
                       2.0, 4.0 * np.sqrt(2.0)])

# Phi^-1(p) by M. J. Wichura, "Algorithm AS241: The percentage points of the
# normal distribution", Applied Statistics 37 (1988) 477-484, PPND16, with
# the coefficients and the operation order of CPython's
# statistics._normal_dist_inv_cdf.  q = p - 0.5: for |q| <= 0.425,
# x = q A(r) / B(r) with r = 0.180625 - q^2; else r = sqrt(-log(min(p, 1 - p)))
# and x = +-C(r - 1.6) / D(r - 1.6) for r <= 5, +-E(r - 5) / F(r - 5) beyond.
_AS241_AB = _pair([2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
                   4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
                   1.3314166789178437745e2, 3.3871328727963666080e0],
                  [5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
                   2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
                   4.2313330701600911252e1, 1.0])
_AS241_CD = _pair([7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
                   1.2704582524523683826e0, 3.6478483247632045926e0, 5.7694972214606914055e0,
                   4.6303378461565452959e0, 1.4234371107496835773e0],
                  [1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
                   1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
                   2.0531916266377588219e0, 1.0])
_AS241_EF = _pair([2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
                   2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
                   5.4637849111641143699e0, 6.6579046435011037772e0],
                  [2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
                   7.8686913114561329059e-4, 1.4875361290850614852e-2, 1.3692988092273580531e-1,
                   5.9983220655588793769e-1, 1.0])
# the p at which |q| crosses 0.425 and r crosses 5: the pieces of Phi^-1, by p
_PHI_INV_EDGES = np.array([np.exp(-25.0), 0.075, 0.925, 1.0 - np.exp(-25.0)])


def _horner(x: np.ndarray, coef: np.ndarray, out: np.ndarray) -> None:
    """out = coef[0] x^k + ... + coef[k], by Horner's rule (out is not x); a
    leading 1 costs no multiplication.

    One polynomial at a time: numpy buffers a broadcast operation on fewer
    than 8192 values, so a stacked pair would allocate for small blocks."""
    if coef[0] == 1.0:
        np.add(x, coef[1], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c


def _rational(x: np.ndarray, coef, num: np.ndarray, den: np.ndarray) -> None:
    """num, den = the numerator and denominator of ``coef`` (``_pair``) at x."""
    _horner(x, coef[0], num)
    _horner(x, coef[1], den)


def _exp_neg_half_square(z: np.ndarray, pair: tuple, split: bool) -> None:
    """pair[0] = exp(-z^2 / 2); pair[1] is scratch.  When ``split``, as
    exp(-h^2 / 2) exp(-(z - h)(z + h) / 2) with h = trunc(16 z) / 16: h^2
    and z - h are exact, so the rounding of z^2, which costs z^2 / 2 ulps
    of relative error, never occurs."""
    e, d = pair
    if not split:
        np.multiply(z, z, out=e)
        e *= -0.5
        np.exp(e, out=e)
        return

    def h() -> None:
        np.multiply(z, 16.0, out=e)
        np.trunc(e, out=e)
        np.multiply(e, 0.0625, out=e)

    h()
    np.subtract(z, e, out=d)
    e += z
    d *= e
    h()
    e *= e
    e *= -0.5
    np.exp(e, out=e)
    d *= -0.5
    np.exp(d, out=d)
    e *= d


def _phi_center(z, out, work, where) -> None:
    """Phi = 1/2 + erf(z / sqrt 2) / 2, for |z| / sqrt 2 < 0.46875."""
    u, num, den = work
    np.multiply(z, z, out=u)
    _rational(u, _CODY_AB, num, den)
    num *= z
    num /= den
    np.add(num, 0.5, out=out, where=where)


def _phi_tail(z, out, work, where, side: int, far: bool, split: bool) -> None:
    """Phi(-|z|) = erfc(|z| / sqrt 2) / 2 for z < 0 (``side`` -1), 1 minus it
    for z > 0 (``side`` 1), for 0.46875 <= |z| / sqrt 2 <= 4, or beyond when
    ``far``; exp(-z^2 / 2) is split when ``split``."""
    r, num, den = work
    if not far:
        _rational(z, _CODY_CD[side], num, den)
        np.divide(num, den, out=r)
    else:
        np.multiply(z, z, out=r)
        np.divide(2.0, r, out=r)  # 1 / y^2
        _rational(r, _CODY_PQ, num, den)
        num *= r
        np.divide(num, den, out=r)
        np.subtract(1.0 / np.sqrt(np.pi), r, out=r)
        np.abs(z, out=num)
        num *= np.sqrt(0.5)
        r /= num
        r *= 0.5
    # r = exp(z^2 / 2) Phi(-|z|)
    _exp_neg_half_square(z, (num, den), split)
    if side > 0:
        r *= num
        np.subtract(1.0, r, out=out, where=where)
    else:
        np.multiply(r, num, out=out, where=where)


def _quantile_center(p, out, work, where) -> None:
    """Phi^-1(p) = q A(r) / B(r), for |q| <= 0.425."""
    r, num, den = work
    np.subtract(p, 0.5, out=r)
    r *= r
    np.subtract(0.180625, r, out=r)
    _rational(r, _AS241_AB, num, den)
    np.subtract(p, 0.5, out=r)
    num *= r
    np.divide(num, den, out=out, where=where)


def _quantile_tail(p, out, work, where, upper: bool, far: bool) -> None:
    """Phi^-1(p) from r = sqrt(-log(min(p, 1 - p))), for |q| > 0.425, by
    C / D at r - 1.6 for r <= 5 and E / F at r - 5 beyond; negative below 1/2."""
    r, num, den = work
    if upper:
        np.subtract(1.0, p, out=r)
    else:
        np.copyto(r, p)  # numpy's log copies a strided input
    np.log(r, out=r)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    r -= 5.0 if far else 1.6
    _rational(r, _AS241_EF if far else _AS241_CD, num, den)
    if not upper:
        np.negative(num, out=num)
    np.divide(num, den, out=out, where=where)


_PHI_PIECES = (
    partial(_phi_tail, side=-1, far=True, split=True),
    partial(_phi_tail, side=-1, far=False, split=True),
    partial(_phi_tail, side=-1, far=False, split=False),
    _phi_center,
    partial(_phi_tail, side=1, far=False, split=False),
    partial(_phi_tail, side=1, far=False, split=True),
    partial(_phi_tail, side=1, far=True, split=True),
)
_PHI_INV_PIECES = (
    partial(_quantile_tail, upper=False, far=True),
    partial(_quantile_tail, upper=False, far=False),
    _quantile_center,
    partial(_quantile_tail, upper=True, far=False),
    partial(_quantile_tail, upper=True, far=True),
)


def _piecewise(x, out, work, marks, edges, pieces) -> np.ndarray:
    """``pieces[k]`` on the values of x in [edges[k - 1], edges[k]), into out
    (which may be x).

    x has rows sorted ascending along its last axis, so each piece is a run
    of columns, found by bisection.  With one row, a piece computes its run
    and writes it whole.  With more, the pieces work on a transposed copy of
    x, in which a run of columns is one block of memory (numpy takes a few
    microseconds longer for each operation on a strided 2-d view), and a piece
    computes the columns where any row holds its values and writes only
    those values, by the piece number of each value, taken into ``marks[0]``
    before any piece writes (``marks[1]`` holds a piece's mask); the copy
    then goes into out.  ``work`` holds three float arrays of x.size values
    that the pieces use as scratch, and a fourth for the copy with more
    than one row; ``marks`` holds two uint8 arrays of x.size values.  They
    may be longer, and are allocated when not given, as is ``out``.  A value
    gives the same bits in any position.
    """
    x2 = x.reshape(-1, x.shape[-1])
    rows, width = x2.shape
    out = np.empty_like(x) if out is None else out
    work = np.empty((3 + (rows > 1), x2.size)) if work is None else work
    if rows == 1:
        low = high = src = x2[0]
        dst = out.reshape(width)
        scratch = work[:3, :width]
    else:
        low = np.minimum.reduce(x2, axis=0, out=work[0, :width])
        high = np.maximum.reduce(x2, axis=0, out=work[1, :width])
        src = dst = work[3, : x2.size].reshape(width, rows)
        np.copyto(src, x2.T)
        scratch = work[:3, : x2.size].reshape(3, width, rows)
        marks = np.empty((2, x2.size), np.uint8) if marks is None else marks
        codes = marks[0, : x2.size].reshape(width, rows)
        mask = marks[1, : x2.size].view(bool).reshape(width, rows)
        codes.fill(0)
        for edge in edges:
            codes += np.greater_equal(src, edge, out=mask)
    starts = [0] + np.searchsorted(high, edges).tolist()
    stops = np.searchsorted(low, edges).tolist() + [width]
    with np.errstate(all="ignore"):  # columns shared with other pieces hold values out of range
        for k, piece in enumerate(pieces):
            c0, c1 = starts[k], stops[k]
            if c0 < c1:
                where = True if rows == 1 else np.equal(codes[c0:c1], k, out=mask[c0:c1])
                piece(src[c0:c1], dst[c0:c1], scratch[:, c0:c1], where)
    if rows > 1:
        np.copyto(out.reshape(x2.shape), dst.T)
    return out


def _ndtr(z, out=None, work=None, marks=None) -> np.ndarray:
    """The standard normal CDF Phi of z, whose rows are sorted ascending
    (``_piecewise``), to a few ulps of relative error for z <= 0 and of
    absolute error above."""
    return _piecewise(z, out, work, marks, _PHI_EDGES, _PHI_PIECES)


def _ndtri(p, out=None, work=None, marks=None) -> np.ndarray:
    """The standard normal quantile Phi^-1 of p in (0, 1), whose rows are
    sorted ascending (``_piecewise``), to a few ulps of relative error."""
    return _piecewise(p, out, work, marks, _PHI_INV_EDGES, _PHI_INV_PIECES)


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
    2-d one an array with one statistic per row.  A row of fewer than 2
    numbers, a non-finite value or an sd of 0 or inf raises ``ValueError``.

    Term i of a sorted row z needs z_i and z_{n-1-i}, and so does its
    mirror, term n - 1 - i: both are made from that pair in place, a block
    of pairs at a time, so the memory is one sorted copy of the input and
    three ``_AD_BLOCK``-value scratch blocks per range (four, and two byte
    blocks, when a block holds several rows).
    """
    x = _elementwise(values, lambda v: v.ndim and v.shape[-1] > 1, "A^2 needs rows of 2+ numbers")
    n = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a bad row is rejected below
        mean = x.mean(axis=-1, keepdims=True)
        sd = x.std(axis=-1, ddof=1, keepdims=True)
    if not np.all(np.isfinite(mean) & (0 < sd) & (sd < np.inf)):  # a NaN or inf makes the mean one
        raise ValueError("A^2 needs finite values and a finite, nonzero sd in each row")
    # the terms go into the sorted copy z; the sum over each row is taken whole
    z = np.sort(x, axis=-1)
    rows = z.reshape(-1, n)  # a view: one path for one sample and for rows of them
    mean = mean.reshape(-1, 1)
    sd = sd.reshape(-1, 1)
    pairs = n // 2
    # blocks of up to _AD_BLOCK values: ``width`` pairs of columns in
    # ``height`` rows.  Short rows go many to a block, not every row to a
    # block of a few columns, whose CDF pieces would each span most rows
    width = min(_AD_BLOCK, pairs)
    height = min(_AD_BLOCK // width, rows.shape[0])
    blocks = [(a0, min(a0 + height, rows.shape[0]), b0, min(b0 + width, pairs))
              for a0 in range(0, rows.shape[0], height) for b0 in range(0, pairs, width)]
    # range r takes blocks r, r + count, ...: the tails, whose CDF costs about
    # twice the centre's, are shared out instead of falling to one range
    count = _chunk_count(z.size, len(blocks))
    # per range, the CDF's three work blocks and, with more than one row, its
    # transposed copy, piece numbers and masks
    scratch = np.empty((count, 3 + (height > 1), height * width))
    marks = np.empty((count, 2, height * width), np.uint8) if height > 1 else [None] * count

    def cdf(v: np.ndarray, span: slice, work: np.ndarray, marks) -> None:
        v -= mean[span]
        v /= sd[span]
        _ndtr(v, v, work, marks)
        np.clip(v, 1e-300, 1.0 - 1e-16, out=v)

    evens = np.arange(0.0, 2.0 * width, 2.0)

    def weights(w: np.ndarray, first: int) -> np.ndarray:
        # (2i + 1) / n for i = first, first + 1, ...; the numerators are exact
        np.add(evens[: w.size], 2.0 * first + 1.0, out=w)
        w /= n
        return w

    def terms(r: int, _: int) -> None:
        # columns [b0, b1) and their mirrors [n - b1, n - b0), in order, and
        # each log1p(-z) read back to front: every log and log1p runs on
        # contiguous values (numpy's vector loops can round strided ones
        # differently)
        for a0, a1, b0, b1 in blocks[r::count]:
            span = slice(a0, a1)
            lo, hi = rows[span, b0:b1], rows[span, n - b1 : n - b0]
            cdf(lo, span, scratch[r], marks[r])
            cdf(hi, span, scratch[r], marks[r])
            s, t = scratch[r, :2, : lo.size].reshape(2, *lo.shape)
            np.log1p(np.negative(lo, out=s), out=s)
            np.log1p(np.negative(hi, out=t), out=t)
            np.log(lo, out=lo)
            lo += t[:, ::-1]
            np.log(hi, out=hi)
            hi += s[:, ::-1]
            lo *= weights(s[0], b0)
            hi *= weights(t[0], n - b1)

    _run_chunks(terms, [(r, r + 1) for r in range(count)])
    if n % 2:  # the middle value is its own mirror, and its weight (2i + 1) / n is 1
        mid = np.clip(_ndtr((rows[:, pairs : pairs + 1] - mean) / sd), 1e-300, 1.0 - 1e-16)
        rows[:, pairs : pairs + 1] = np.log(mid) + np.log1p(-mid)
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
    _integer(t.n, 2, "Q-Q plot needs at least 2 samples")
    t._spread()
    n = t.n
    out = np.empty((n, 2))
    ordered = np.sort(t.values)
    ranges = _column_ranges(n, _chunk_count(n, n))
    # three blocks of scratch per range: at most 0.8 bytes per point in all
    width = min(_AD_BLOCK, max(1, n // (30 * len(ranges))))
    work = np.empty((len(ranges), 3, width))

    def fill(r: int, _: int) -> None:
        c0, c1 = ranges[r]
        # i - 0.5 for i = c0+1..c1, exactly, in the sample column until the
        # samples go there: a running sum over the first block, then each
        # block the one before plus the width (a running sum over the whole
        # range would cost ~4 ns a value)
        numerators = out[:, 1]
        head = numerators[c0 : min(c0 + width, c1)]
        head.fill(1.0)
        head[0] = c0 + 0.5
        np.cumsum(head, out=head)
        for b0 in range(c0, c1, width):
            b1 = min(b0 + width, c1)
            if b0 > c0:
                np.add(numerators[b0 - width : b1 - width], width, out=numerators[b0:b1])
            p = out[b0:b1, 0]
            np.divide(numerators[b0:b1], n, out=p)
            _ndtri(p, p, work[r])
        out[c0:c1, 1] = ordered[c0:c1]

    _run_chunks(fill, [(r, r + 1) for r in range(len(ranges))])
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
    padded = np.empty(m * p)
    np.subtract(t.values, t.mean(), out=padded[: t.n])
    padded[t.n :] = 0.0
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

"""Spectral and autocorrelation math for fractional Gaussian noise.

The power spectrum of FGN at angular frequency lam in (0, pi] for Hurst
parameter h in (1/2, 1) is

    f(lam, h) = A(lam, h) * (lam**(-2h-1) + B(lam, h))

with

    A(lam, h) = 2 sin(pi h) Gamma(2h + 1) (1 - cos lam)
    B(lam, h) = sum_{j>=1} (2 pi j + lam)**(-2h-1) + (2 pi j - lam)**(-2h-1)

B is a sum of two Hurwitz zeta functions,
B = (2 pi)^-(2h+1) [zeta(2h+1, 1 + lam/2pi) + zeta(2h+1, 1 - lam/2pi)]
(DLMF 25.11), but this package evaluates truncations of the sum, four ways:

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
  within 4.8e-3.  Each power is taken as exp(e log x) from the logs of
  a_j and b_j, j = 1..k+1.
* ``BMode.truncated_prime()``: the k = 3 truncation minus a fitted
  h-dependent bias term, cutting the error to at most 2.45e-4 (0.025%).
* ``BMode.truncated_double_prime()``: additionally applies a fitted
  linear-in-lam factor.  Its error is 0.0075% or less only for h from
  about 0.6 to just below 0.9: it is 1.09e-4 as h nears 0.5, 7.6e-5 at
  h = 0.55 and 0.9, 9.4e-5 at 0.95 and 1.08e-4 at 0.99.

The errors above are the largest relative errors against the Hurwitz zeta
form (``scipy.special.zeta``) on the 16384 Fourier frequencies of a path
of length 32768, over h from 0.5 to 0.99.

All evaluators are vectorized over ``lam`` and elementwise: the value at
one lam is the same whether it is evaluated alone or inside any grid.

The private ``_Shape(lam, mode)`` is the only way into B.  It takes the
lam-only factors once (log lam; the tail logs and the double-prime factor,
or 2 pi j for the terms of a partial sum) and then writes B, or
q = lam^(-2h-1) + B with the power as exp(e log lam), for any h.  1 - cos lam
is taken as 2 sin^2(lam/2), exact to the last bits at the lowest frequencies.

Because every mode is elementwise, ``_Shape`` takes its lam-only logs and
writes B and q over contiguous column ranges of lam, each with its own
slices of the lam-only factors and its own work memory.  A call with at
least twice ``_MIN_CHUNK_POWERS`` powers on at least twice
``_MIN_CHUNK_COLUMNS`` columns runs one range per CPU the process may use,
up to ``_MAX_CHUNKS``, on worker threads beside the calling thread; smaller
calls, and every call in a one-CPU process, run serially.  The terms at
each lam are added in the same order either way, so the result has the
same bits whatever the chunking.

``_run_chunks`` is the package's one thread runner, and ``_chunk_count``
its one rule for how many ranges a call takes; the analysis battery uses
both too.  A range's work writes only into arrays the calling thread
allocated, each range into its own part, and allocates none itself: no
worker thread holds memory after a call, and the ranges cannot overlap.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

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

# A call is split into chunks of at least this many powers (columns times
# powers per column) and this many columns, and into at most _MAX_CHUNKS,
# one per available CPU.  Measured on a 2-vCPU host, two chunks beat one
# from about 2^19 powers (doubleprime on 2^16 points: 1.4 -> 0.9 ms) and
# lost below about 2^18 (doubleprime on 16384 points: 0.41 -> 0.59 ms),
# where starting and joining a thread costs more than the chunk saves.
# A partial sum costs each chunk a few ufunc calls per term whatever its
# width: for partial:200 a second chunk run in turn added 1.3-1.7 ms (q on
# 2048, 4096 and 8192 points: 5.3 -> 6.6, 9.5 -> 10.8, 16.8 -> 18.1 ms),
# against about 3.9 ms of sums in a 2048-column chunk.  Two 1024-column
# chunks lost to one whole 2048-point call (q 5.4-6.1 -> 7.7-10.6 ms).
# The analysis battery counts its work against the same floor in values:
# block means for variance-time, trace values for A^2 and Q-Q, so those
# split from about 2^19 values (at 2^18, two ranges of A^2 or Q-Q did not
# beat one on the 2-vCPU host).
_MIN_CHUNK_POWERS = 1 << 18
_MIN_CHUNK_COLUMNS = 2048
_MAX_CHUNKS = 8


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_count(work: int, columns: int) -> int:
    """How many column ranges a call of ``work`` units over ``columns``
    columns runs: one per CPU the process may use, up to ``_MAX_CHUNKS``,
    each with at least ``_MIN_CHUNK_POWERS`` units and one column."""
    count = min(work // _MIN_CHUNK_POWERS, columns)
    return min(count, _MAX_CHUNKS, _cpu_count()) if count > 1 else 1


def _column_ranges(size: int, count: int) -> list[tuple[int, int]]:
    """``count`` contiguous ranges of ``size`` columns, as equal as can be."""
    return [(size * c // count, size * (c + 1) // count) for c in range(count)]


def _run_chunks(fn, ranges) -> None:
    """``fn(c0, c1)`` over each column range: the first on the calling
    thread, each other on a short-lived thread of its own; the first error
    raised is re-raised in the calling thread.

    ``fn`` writes only into arrays the calling thread allocated, each range
    into its own part of them, and allocates no array itself.  One range
    starts no thread.
    """
    errors = []

    def worker(c0: int, c1: int) -> None:
        try:
            fn(c0, c1)
        except Exception as exc:  # handed to the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=r) for r in ranges[1:]]
    for t in threads:
        t.start()
    try:
        fn(*ranges[0])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _elementwise(x, ok, message, values=None):
    """``values`` of x (x itself by default) as a float array; a float for scalar x.

    The one check of every real-valued argument, scalar or array: x must hold
    integer or float numbers (no bool, string or object, such as an int past
    2**64) and ``ok`` must hold for each (NaN fails it), else ``ValueError(message)``."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf" or not np.all(ok(arr := arr.astype(float, copy=False))):
        raise ValueError(message)
    out = arr if values is None else values(arr)
    return out.item() if arr.ndim == 0 else out


def _real(x, ok, message: str) -> float:
    """x as a float if it is one number (``_elementwise``'s rule) whose float passes ``ok``."""
    return _elementwise(x, lambda v: v.ndim == 0 and ok(v.item()), message)


def _integer(x, lo: int, message: str, hi=math.inf, even: bool = False) -> int:
    """x as an int if it is an integer in [lo, hi), and even if ``even``, else
    ``ValueError(message)``: the one rule for every size, level, lag, term count
    and seed.  Python and numpy integers and integral floats (8.0) count; a bool,
    a string, NaN, inf or a fraction does not."""
    if isinstance(x, (float, np.floating)) and x.is_integer() or isinstance(x, np.integer):
        x = int(x)
    if type(x) is not int or not lo <= x < hi or even and x % 2:  # a bool's type is bool
        raise ValueError(message)
    return x


@dataclass(frozen=True)
class HurstParam:
    """Validated Hurst parameter, strictly inside (1/2, 1).

    The strict constructor rejects h = 1/2; use :meth:`permissive` when a
    white-noise edge case is genuinely wanted (mostly in tests).
    """

    h: float

    def __post_init__(self, white: bool = False) -> None:
        message = f"Hurst parameter must satisfy 0.5 <{'=' * white} h < 1, got {self.h!r}"
        h = _real(self.h, lambda v: 0.5 < v < 1.0 or white and v == 0.5, message)
        object.__setattr__(self, "h", h)

    @classmethod
    def permissive(cls, h: float) -> "HurstParam":
        """Like the constructor but also accepts h = 0.5 (white noise)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "h", h)
        obj.__post_init__(white=True)
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
        message = f"B mode needs at least one term, got {self.terms!r}"
        object.__setattr__(self, "terms", _integer(self.terms, 1, message))
        if self.kind in ("prime", "doubleprime") and self.terms != 3:
            raise ValueError(f"corrected modes are defined for k = 3 only, got {self.terms}")

    @classmethod
    def truncated(cls, k: int = 3) -> "BMode":
        return cls("k", k)

    @classmethod
    def truncated_prime(cls) -> "BMode":
        return cls("prime", 3)

    @classmethod
    def truncated_double_prime(cls) -> "BMode":
        return cls("doubleprime", 3)

    @classmethod
    def partial(cls, n_terms: int) -> "BMode":
        return cls("partial", n_terms)

    @classmethod
    def parse(cls, text: str) -> "BMode":
        """Parse a mode spelled as on the command line.

        Accepts ``fast`` (alias for ``doubleprime``), ``exact`` (alias for
        ``partial:200``), ``prime``, ``doubleprime``, ``k:<K>`` and
        ``partial:<N>``.
        """
        text = str(text).strip().lower()
        named = {"fast": ("doubleprime", 3), "exact": ("partial", 200),
                 "prime": ("prime", 3), "doubleprime": ("doubleprime", 3)}
        if text in named:
            return cls(*named[text])
        kind, _, terms = text.partition(":")
        if kind in ("k", "partial") and terms.removeprefix("-").isdecimal():
            return cls(kind, int(terms))
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
        lam = _on_open_domain(self.lambdas, lambda x: x)
        val = _elementwise(self.values, lambda x: (0 <= x) & (x < np.inf),
                           "spectrum values must be finite and nonnegative")
        if np.ndim(lam) != 1 or np.ndim(val) != 1 or lam.size != val.size:
            raise ValueError("lambdas and values must be 1-d arrays of equal length")
        if lam.size == 0:
            raise ValueError("empty spectrum grid")
        if not np.all(np.diff(lam) > 0):
            raise ValueError("frequencies must be strictly increasing")
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

    ``k`` is a lag or an array of lags, each a whole, finite number of at
    least 0 (``_integer``'s rule, elementwise); r(0) = 1.  For h = 1/2
    (permissive constructor) this is 0 at every positive lag.
    """
    two_h = 2.0 * h.h
    return _elementwise(
        k,
        lambda x: (0 <= x) & (x < np.inf) & (x == np.trunc(x)),
        "lags must be nonnegative integers",
        lambda x: 0.5 * ((x + 1.0) ** two_h - 2.0 * x**two_h + np.abs(x - 1.0) ** two_h),
    )


def spectrum_factor_a(h: HurstParam, lam):
    """Frequency-dependent prefactor A(lam, h) = 2 sin(pi h) Gamma(2h+1) (1 - cos lam)."""
    return _elementwise(
        lam, lambda x: abs(x) <= np.pi, "|lambda| must not exceed pi", lambda x: _factor_a(x, h.h)
    )


def _factor_a(lam: np.ndarray, h: float) -> np.ndarray:
    return 2.0 * np.sin(np.pi * h) * math.gamma(2.0 * h + 1.0) * _Shape.one_minus_cos(lam)


def _power_of(log_x: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """x**e as exp(e log x), into ``out``."""
    return np.exp(np.multiply(log_x, e, out=out), out=out)


def _plus_power(log_lam: np.ndarray, h: float, b: np.ndarray, scratch: np.ndarray):
    """q = lam^(-2h-1) + B in place of ``b``: the one place q is formed, and so
    the one rule of both f = A q formers (``fgn_power_spectrum`` and
    ``_spectrum_from_b``).  Where the power overflows, below lam = (largest
    float)^(-1/(2h+1)) (about 1e-147 at h = 0.55, 1e-104 at h = 0.99), f
    would be inf, or nan where 1 - cos lam underflows too: ``ValueError``."""
    with np.errstate(over="ignore"):
        b += _power_of(log_lam, -2.0 * h - 1.0, scratch)
    if not b.max(initial=0.0) < np.inf:  # NaN fails too
        raise ValueError(f"the spectrum overflows the float range for lambda below "
                         f"{np.finfo(float).max ** (-1.0 / (2.0 * h + 1.0)):.3g} at h={h}")
    return b


class _Shape:
    """q(lam, h) = lam^(-2h-1) + B(lam, h) on one grid under one B mode; f = A q.

    The lam-only factors are taken once (see the module docstring); ``b``
    and ``q`` then write into a caller's buffer of len(lam) for any h without
    allocating.  Between calls ``scratch`` (len(lam)) is free for the caller.
    No other code branches on the kind of a B mode.

    A call writes its result chunk by chunk over contiguous column ranges of
    lam (``_chunk``).  Each chunk reads its own slices of lam and of the
    lam-only factors and works in its own columns ``c0:c1`` of the two rows
    of ``work``, so chunks share no written memory and the terms at each lam
    are added in the same order whatever the chunking: the result has the
    same bits.  A call with enough work runs one chunk per available CPU, all
    but the first on short-lived threads (numpy releases the interpreter
    lock inside each ufunc); a small call, or any call in a process with one
    CPU, runs one chunk on the calling thread and starts no thread.
    """

    def __init__(self, lam: np.ndarray, mode: BMode) -> None:
        self.lam = lam
        self.mode = mode
        self.log_lam = np.empty_like(lam)
        # two work rows of len(lam); a chunk works in its own columns of both
        self.work = np.empty((2, lam.size))
        self.scratch = self.work[0]
        self.logs = None
        try:  # numpy refuses some sizes with a ValueError, not a MemoryError
            if mode.kind == "partial":  # 2 pi j for j = 1..N
                self.tp = 2.0 * np.pi * np.arange(1, mode.terms + 1, dtype=float)
                powers = 2 * mode.terms
            else:  # log(2 pi j + lam) and log(2 pi j - lam) for j = 1..k+1
                self.logs = np.empty((2, mode.terms + 1, lam.size))
                powers = 2 * mode.terms + 4
        except ValueError as exc:
            raise MemoryError(f"B mode {mode} cannot be built on {lam.size} frequencies: {exc}")
        self.dprime = _DPRIME_K1 + _DPRIME_K2 * lam if mode.kind == "doubleprime" else None
        # powers one call takes: what sets how many chunks it is worth
        self.powers = powers * lam.size
        _run_chunks(self._take_logs, self._chunks())

    def _take_logs(self, c0: int, c1: int) -> None:
        """log lam, and the tail logs of a truncated mode, on columns c0:c1."""
        lam = self.lam[c0:c1]
        np.log(lam, out=self.log_lam[c0:c1])
        if self.logs is not None:
            plus, minus = self.logs[:, :, c0:c1]
            for j in range(self.mode.terms + 1):
                tp = 2.0 * np.pi * (j + 1)
                np.log(np.add(tp, lam, out=plus[j]), out=plus[j])
                np.log(np.subtract(tp, lam, out=minus[j]), out=minus[j])

    @staticmethod
    def one_minus_cos(lam: np.ndarray) -> np.ndarray:
        """1 - cos lam as 2 sin^2(lam / 2), which does not cancel at small lam, in one new array."""
        s = np.multiply(lam, 0.5, out=np.empty_like(lam))  # an array for 0-d lam too
        return np.multiply(np.square(np.sin(s, out=s), out=s), 2.0, out=s)

    def q(self, h: float, out: np.ndarray) -> np.ndarray:
        """lam^(-2h-1) + B(lam, h) into ``out``."""
        return self._run(h, out, True, self._chunks())

    def b(self, h: float, out: np.ndarray) -> np.ndarray:
        """B(lam, h) into ``out``."""
        return self._run(h, out, False, self._chunks())

    def _chunks(self) -> list[tuple[int, int]]:
        """Column ranges of one call: as many as there are CPUs, up to
        ``_MAX_CHUNKS``, each with at least ``_MIN_CHUNK_POWERS`` powers and
        ``_MIN_CHUNK_COLUMNS`` columns."""
        size = self.lam.size
        return _column_ranges(size, _chunk_count(self.powers, size // _MIN_CHUNK_COLUMNS))

    def _run(self, h: float, out: np.ndarray, power: bool, chunks) -> np.ndarray:
        """``_chunk`` over each column range, through ``_run_chunks``."""
        _run_chunks(lambda c0, c1: self._chunk(h, out, power, c0, c1), chunks)
        return out

    def _chunk(self, h: float, out: np.ndarray, power: bool, c0: int, c1: int) -> None:
        """B, plus lam^(-2h-1) when ``power``, into out[c0:c1].

        Uses the columns' own slices of the lam-only factors and of the two
        work rows, whose first row is also the scratch of the power.
        """
        o = out[c0:c1]
        work = self.work[:, c0:c1]
        if self.mode.kind == "partial":
            self._partial(h, self.lam[c0:c1], o, work)
        else:
            self._truncated(h, self.logs[:, :, c0:c1], o, work)
            if self.mode.kind != "k":  # the corrected k = 3 modes
                o -= 2.0 ** (_PRIME_COEFF * h + _PRIME_OFFSET)
            if self.dprime is not None:
                o *= self.dprime[c0:c1]
        if power:
            _plus_power(self.log_lam[c0:c1], h, o, work[0])

    def _partial(self, h: float, lam: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """Raw partial sum, adding the terms at each lam in order j = 1..N, so
        each value depends on its own lam, h and N only."""
        d = -2.0 * h - 1.0
        t, u = work
        out.fill(0.0)
        for tp in self.tp:
            np.power(np.add(tp, lam, out=t), d, out=t)
            t += np.power(np.subtract(tp, lam, out=u), d, out=u)
            out += t

    def _truncated(self, h: float, logs: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """First k terms plus the closed-form integral tail, powers as exp(e log x)."""
        k = self.mode.terms
        d = -2.0 * h - 1.0
        dprime = -2.0 * h
        plus, minus = logs
        t, u = work
        out.fill(0.0)
        for j in range(k):
            _power_of(plus[j], d, t)
            t += _power_of(minus[j], d, u)
            out += t
        _power_of(plus[k - 1], dprime, t)
        for log_x in (plus[k], minus[k - 1], minus[k]):
            t += _power_of(log_x, dprime, u)
        t /= 8.0 * h * np.pi
        out += t


def _on_open_domain(lam, values):
    """``values`` of lam as a 1-d array, lam checked to lie in (0, pi]; a float for scalar lam."""
    return _elementwise(
        lam,
        lambda x: (0 < x) & (x <= np.pi),
        "lambda must lie in (0, pi]",
        lambda x: values(np.atleast_1d(x)),
    )


def spectrum_b(h: HurstParam, lam, mode: BMode):
    """Evaluate the infinite-sum component B(lam, h) under the given mode."""
    return _on_open_domain(lam, lambda x: _Shape(x, mode).b(h.h, np.empty_like(x)))


def _spectrum_from_b(lam: np.ndarray, h: float, b: np.ndarray) -> np.ndarray:
    """f(lam, h) = A(lam, h) (lam^(-2h-1) + B) from an already evaluated B."""
    return _factor_a(lam, h) * _plus_power(np.log(lam), h, b.copy(), np.empty_like(lam))


def fgn_power_spectrum(h: HurstParam, lam, mode: BMode):
    """FGN power spectrum f(lam, h) = A(lam, h) (lam^(-2h-1) + B(lam, h)).

    Strictly positive on (0, pi].  It decreases in lam (long-range
    dependence concentrates power at low frequencies); on very fine grids
    the decrease between adjacent points near pi can fall below double
    precision resolution for the truncated modes.  Where lam^(-2h-1)
    overflows (lam below about 1e-147 at h = 0.55, 1e-104 at h = 0.99) it
    raises ``ValueError`` (``_plus_power``'s rule), without a numpy warning.
    """
    return _on_open_domain(
        lam, lambda x: _factor_a(x, h.h) * _Shape(x, mode).q(h.h, np.empty_like(x))
    )


def build_spectrum_grid(h: HurstParam, n: int, mode: BMode) -> SpectrumGrid:
    """Spectrum sampled at the n/2 Fourier frequencies 2 pi j / n, j = 1..n/2.

    ``n`` is the length of the time-domain path to be synthesized and must
    be even; the last frequency is pi, or for some n one ulp below it.
    """
    n = _integer(n, 2, f"n must be a positive even integer, got {n!r}", even=True)
    lam = _fourier_frequencies(n)
    return SpectrumGrid(lam, fgn_power_spectrum(h, lam, mode))


def _fourier_frequencies(n: int) -> np.ndarray:
    """The Fourier frequencies 2 pi j / n, j = 1..n/2, of an even path length n.

    For some n (26, 52, 94, ...) 2 pi (n/2) / n rounds one ulp above pi,
    outside the spectrum's domain; that last frequency is taken as pi.
    """
    lam = 2.0 * np.pi * np.arange(1, n // 2 + 1, dtype=float) / n
    return np.minimum(lam, np.pi, out=lam)

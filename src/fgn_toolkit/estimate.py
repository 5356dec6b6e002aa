"""Whittle estimation of the Hurst parameter from a sample path.

The estimate minimizes the integrated ratio of the periodogram to the
model FGN spectrum over h, discretized on the Fourier frequencies of the
sample.  The model spectrum is normalized to geometric mean one over the
evaluation frequencies before taking the ratio; with that normalization
the ratio sum is the profile of the Whittle quasi-likelihood in h (the
process scale drops out), so its minimizer is scale-free and consistent.
Normalizing by the arithmetic mean instead leaves an h-dependent tilt that
drags the minimizer far below the true value for strong dependence.

Because of that normalization, A's h-only factor 2 sin(pi h) Gamma(2h+1)
cancels, and the objective needs only the shape
s(lam, h) = (1 - cos lam) q(lam, h) with q = lam^(-2h-1) + B(lam, h).  An
estimate builds one private workspace from its periodogram and reuses it
in every evaluation: the periodogram over 1 - cos lam, the mean of
log(1 - cos lam), and a ``spectrum._Shape`` that holds q's lam-only
factors under the B mode.  Each evaluation writes q, log s and the ratios
into buffers of len(lam) and allocates no array; the workspace is freed
with the estimate.

Minimization is Brent's bounded method on h in [0.501, 0.999] (Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 5): a
parabola through the three best points so far proposes each step, and a
golden-section step replaces it when the parabola is not trusted.  The
search stops once the bracket is narrower than ``tol`` (default 0.001) and
returns the best point it evaluated.  At the default tol, over the
acceptance battery (n = 32768), that takes 8-10 objective evaluations for
h >= 0.55 (7-10 where the search has no table, below), 11-14 for a minimum
just inside 0.501 and 15 for one at it.  The attached standard deviation
sigma_h comes from the asymptotic variance

    sigma_h^2 = 4 pi / ( n * integral_{-pi..pi} (d log f / dh)^2 domega )

evaluated with a central finite difference (step 1e-4) and the trapezoid
rule on 2048 points spanning (0, pi] (doubled by symmetry), using the same
geometric-mean-normalized spectrum.  That is taken from centred log q:
log f - log q = log A, whose h-only part the centring removes and whose
lam-only part log(1 - cos omega) the h-derivative removes.

Brent's search can open the same way on every trace.  Until it has three
distinct points its parabola is degenerate, so its first three evaluations
are golden-section steps on [0.501, 0.999] that never read the data: h at
0.69122, then 0.80878, then 0.61856 or 0.88144, whichever side the first
two point to.  A golden-section step from a bracket set only by such
comparisons is itself data-free, so where a table (below) can serve them
the search takes golden-section steps for its first
``_OPENING_EVALUATIONS`` = 5 evaluations and tries the parabola only after:
those fall on a fixed tree of 1 + 1 + 2 + 4 + 8 nodes, 14 distinct h.  The
model side of an evaluation, q and the mean of log q, depends only on (n,
mode, h), so ``whittle_estimate`` keeps it at those points across
estimates, in a table per (n, mode) that the estimates fill themselves.
``_opening_table`` holds the two most recently used tables
(``functools.lru_cache``), and only for n <= 2^15, of at most 16 entries
each (a tol of ~0.12 or more can cut a step to tol / 4, off the tree), so
they take at most 4 MiB.  Over the acceptance battery about half of all
evaluations fall there, and an exact estimate computes ~4.6 spectra.  A
hit skips the B sums, the power and the log; the ratio sum still runs over
the estimate's own periodogram, so a result does not depend on what the
table holds.  Longer traces get no table and run Brent's method as
published, the parabola tried from the third evaluation.  Later
evaluations are not stored: their h depend on the data and rarely repeat.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import BMode, HurstParam, SpectrumGrid, _fourier_frequencies, _integer, _real, _Shape
from .synth import Trace

__all__ = [
    "WhittleResult",
    "periodogram",
    "whittle_objective",
    "whittle_estimate",
    "whittle_sigma",
]

_H_LO = 0.5 + 1e-3
_H_HI = 1.0 - 1e-3
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SIGMA_GRID_POINTS = 2048
_SIGMA_FD_STEP = 1e-4
# Brent's first evaluations that never read the data when they are all
# golden-section steps, and the longest trace whose q there is kept: 2
# tables of at most 16 arrays of n/2 floats make 4 MiB
_OPENING_EVALUATIONS = 5
_OPENING_MAX_N = 1 << 15


@dataclass(frozen=True)
class WhittleResult:
    h_hat: float
    sigma_h: float
    objective: float
    mode: BMode
    n: int
    evaluations: int  # objective evaluations the search made
    at_boundary: bool = False


def periodogram(t: Trace) -> SpectrumGrid:
    """Periodogram of an even-length trace, n >= 4.

    Convention: I_j = |DFT_j(x)|^2 / n over j = 1..n/2.  Any fixed positive
    constant would do for estimation (the Whittle argmin is scale-free);
    this one satisfies (2 sum_j I_j - I_{n/2}) / n = biased sample variance.
    """
    n = _integer(t.n, 4, f"periodogram needs an even trace of length >= 4, got {t.n}", even=True)
    coeffs = np.fft.rfft(t.values)[1:]
    ords = np.square(coeffs.real)
    ords += np.square(coeffs.imag, out=coeffs.real)  # the real parts are spent
    ords /= n
    grid = object.__new__(SpectrumGrid)  # its own Fourier frequencies: nothing to check
    object.__setattr__(grid, "lambdas", _fourier_frequencies(n))
    object.__setattr__(grid, "values", ords)
    return grid


class _Workspace:
    """What every objective evaluation of one estimate reuses.

    The objective is scale-free, so the model spectrum enters only as its
    shape s = (1 - cos lam) q with q = lam^(-2h-1) + B: A's h-only factor
    cancels in the normalization.  The periodogram side is taken once (the
    periodogram over 1 - cos lam and the mean of log(1 - cos lam)), and a
    ``_Shape`` holds q's lam-only factors under the mode.  An evaluation
    writes q into ``q`` and uses the shape's scratch row, and allocates no
    array.

    ``evaluations`` counts the evaluations.  Once ``whittle_estimate`` sets
    ``table`` to an ``_opening_table`` (its periodogram is on
    ``_fourier_frequencies(n)``, so q depends on nothing but n, the mode and
    h), the first ``_OPENING_EVALUATIONS`` evaluations read q and its mean
    log there, or store them on a miss.
    """

    def __init__(self, p: SpectrumGrid, mode: BMode) -> None:
        omc = _Shape.one_minus_cos(p.lambdas)
        self.scale = 2.0 * np.pi / p.n
        self.ords_over_omc = p.values / omc
        self.mean_log_omc = float(np.mean(np.log(omc, out=omc)))
        self.shape = _Shape(p.lambdas, mode)
        self.q = np.empty_like(p.lambdas)
        self.table: dict | None = None
        self.evaluations = 0


@functools.lru_cache(maxsize=2)
def _opening_table(n: int, mode: BMode) -> dict[float, tuple[np.ndarray, float]]:
    """h -> (read-only q, mean log q) at Brent's opening points for length n.

    Empty until estimates fill it.  A dict's get and set are atomic, so the
    threads of a process share a table without a lock; threads racing past
    the 16-entry check may each add one more.
    """
    return {}


def _objective(ws: _Workspace, h: float) -> float:
    """(2 pi / n) sum_j I_j / f_norm(lam_j, h), f_norm of geometric mean one."""
    t = ws.shape.scratch
    table = ws.table if ws.evaluations < _OPENING_EVALUATIONS else None
    ws.evaluations += 1
    entry = None if table is None else table.get(h)
    if entry is None:
        q = ws.shape.q(h, ws.q)
        mean_log_q = float(np.mean(np.log(q, out=t)))
        if table is not None and len(table) < 1 << (_OPENING_EVALUATIONS - 1):  # tree size
            kept = q.copy()
            kept.setflags(write=False)
            table[h] = (kept, mean_log_q)
    else:
        q, mean_log_q = entry
    sum_ords_over_s = float(np.sum(np.divide(ws.ords_over_omc, q, out=t)))
    return ws.scale * math.exp(ws.mean_log_omc + mean_log_q) * sum_ords_over_s


def whittle_objective(p: SpectrumGrid, h: HurstParam, mode: BMode) -> float:
    """Discretized ratio integral (2 pi / n) sum_j I(lam_j) / f_norm(lam_j, h)."""
    return _objective(_Workspace(p, mode), h.h)


def _brent_minimize(fun, a: float, b: float, tol: float, golden: int = 0):
    """Brent's bounded minimization of ``fun`` on [a, b].

    The parabola is tried only once ``golden`` evaluations are done; before
    that every step is a golden-section step, whose point depends on the
    earlier ones only through which of two values was lower.  Returns
    ``(x, fun(x), (a, b))`` for the best point evaluated and the final
    bracket, whose ends are a and b exactly where no evaluation moved them.
    Every step is at least ``tol / 4`` long, and the loop stops once
    |x - m| <= tol / 2 - (b - a) / 2 for the bracket midpoint m, which
    implies b - a <= tol.
    """
    tol1 = tol / 4.0
    tol2 = 2.0 * tol1
    # x: best point so far; w: second best; v: the previous w
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = fun(x)
    evaluations = 1
    d = e = 0.0  # last step, and the step before it
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx, (a, b)
        parabolic = False
        if abs(e) > tol1 and evaluations >= golden:
            # vertex of the parabola through (x, fx), (w, fw), (v, fv), as x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # trust it only inside the bracket and shorter than half the step before last
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if (x + d - a) < tol2 or (b - x - d) < tol2:
                    d = math.copysign(tol1, xm - x)
        if not parabolic:
            e = (b - x) if x < xm else (a - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fun(u)
        evaluations += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def whittle_estimate(t: Trace, mode: BMode, tol: float = 0.001) -> WhittleResult:
    """Estimate h by Brent minimization of the Whittle objective on [0.501, 0.999].

    The search stops once its bracket is narrower than ``tol``, which must be
    in [1e-6, 0.498) (a tol as wide as the interval would stop it at its
    first point), and returns the best h it evaluated, with its objective;
    ``evaluations`` counts the objective evaluations of the search (not
    those of sigma_h).  Runs are deterministic.  ``at_boundary`` is set
    (never silently clamped) when the search's final bracket still reaches
    an end of the search interval, i.e. no evaluated point showed the
    objective rising again beyond h_hat on that side; that is the expected
    outcome for white-noise-like input, whose true h sits at the 0.5
    boundary.  A trace with no spread (``Trace``'s one rule) raises
    ``ValueError``.  The search runs on x / 2^e, e the binary exponent of
    max|x|: exact, so x * 2^k gives the same result, and no square overflows.
    ``objective`` is its minimum times 2^(2e), inf past the float range.  The
    objective's lam-only factors and work buffers are built once per estimate
    (see ``_Workspace``) and freed with it; for n <= 2^15 the search opens
    with five golden-section steps, and the model spectrum at their points is
    kept across estimates in an ``_opening_table`` (see the module docstring).
    """
    tol = _real(tol, lambda v: 1e-6 <= v < _H_HI - _H_LO,  # NaN would never end the search
                f"tolerance must lie in [1e-6, {_H_HI - _H_LO:g}), got {tol!r}")
    t._spread()
    e = math.frexp(float(np.max(np.abs(t.values))))[1]  # x / 2^e peaks in [1/2, 1)
    ws = _Workspace(periodogram(Trace(np.ldexp(t.values, -e))), mode)
    if t.n <= _OPENING_MAX_N:  # after the periodogram has accepted the length
        ws.table = _opening_table(t.n, mode)
    golden = 0 if ws.table is None else _OPENING_EVALUATIONS
    h_hat, objective, bracket = _brent_minimize(
        lambda h: _objective(ws, h), _H_LO, _H_HI, tol, golden
    )
    evaluations = ws.evaluations
    del ws  # its grid arrays go before sigma_h builds work rows of its own
    with np.errstate(over="ignore"):  # inf past the float range
        objective = float(np.ldexp(objective, 2 * e))
    return WhittleResult(
        h_hat=h_hat,
        sigma_h=whittle_sigma(HurstParam(h_hat), t.n, mode),
        objective=objective,
        mode=mode,
        n=t.n,
        evaluations=evaluations,
        at_boundary=bracket[0] == _H_LO or bracket[1] == _H_HI,
    )


def whittle_sigma(h: HurstParam, n: int, mode: BMode) -> float:
    """Asymptotic standard deviation of the Whittle estimate at sample size n."""
    n = _integer(n, 4, f"n must be an integer from 4 to 2**63 - 1, got {n!r}", 2**63)
    omega = np.pi * np.arange(1, _SIGMA_GRID_POINTS + 1, dtype=float) / _SIGMA_GRID_POINTS
    shape = _Shape(omega, mode)

    def centered_log_q(hh: float) -> np.ndarray:
        log_q = np.log(shape.q(hh, np.empty_like(omega)))
        return log_q - log_q.mean()

    step = _SIGMA_FD_STEP
    deriv = (centered_log_q(h.h + step) - centered_log_q(h.h - step)) / (2.0 * step)
    integral = 2.0 * np.trapezoid(deriv**2, omega)
    return float(np.sqrt(4.0 * np.pi / (n * integral)))

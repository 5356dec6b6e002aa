"""Exact small-n FGN reference generator.

The synthesizer in :mod:`fgn_toolkit.synth` is approximate by design, so
tests need an independent source of truth.  Here the exact FGN covariance
r(|i-j|) is Cholesky-factored and applied to i.i.d. standard normals,
giving exact Gaussian FGN at O(n^3) cost; n is capped at 4096 to keep that
affordable.  Factorizations are cached per (h, n) and handed out
read-only, since every caller shares the cached array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spectrum import HurstParam, fgn_autocorrelation
from .synth import Trace, TraceProvenance

__all__ = ["covariance_factor", "exact_fgn"]

_MAX_EXACT_N = 4096


@lru_cache(maxsize=4)
def _cached_factor(h_value: float, n: int) -> np.ndarray:
    h = HurstParam.permissive(h_value)
    i = np.arange(n)
    sigma = fgn_autocorrelation(h, i)[np.abs(i[:, None] - i)]
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:  # not expected for 0.5 <= h < 1
        raise RuntimeError(
            f"internal error: FGN covariance failed to factor for h={h_value}, n={n}"
        ) from exc
    factor.setflags(write=False)
    return factor


def covariance_factor(h: HurstParam, n: int) -> np.ndarray:
    """Read-only Cholesky factor L (L L^T = exact FGN covariance), 2 <= n <= 4096."""
    n = int(n)
    if not 2 <= n <= _MAX_EXACT_N:
        raise ValueError(f"n must be in [2, {_MAX_EXACT_N}], got {n}")
    return _cached_factor(h.h, n)


def exact_fgn(h: HurstParam, n: int, rng: np.random.Generator) -> Trace:
    """Exact Gaussian FGN of length n via covariance factorization."""
    factor = covariance_factor(h, n)
    values = factor @ rng.standard_normal(factor.shape[0])
    return Trace(values, TraceProvenance(h=h, seed=None, mode=None))

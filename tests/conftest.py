import os
from functools import lru_cache

import numpy as np
import pytest

import fgn_toolkit
from fgn_toolkit import BMode, HurstParam, fgn_autocorrelation, synthesize_fgn

K3 = BMode.truncated(3)


@pytest.fixture(scope="session")
def synth_cache():
    """Memoized synthesizer so expensive traces are shared across tests."""
    cache = {}

    def get(h: float, n: int, seed: int, mode: BMode = K3):
        key = (h, n, seed, mode)
        if key not in cache:
            cache[key] = synthesize_fgn(HurstParam.permissive(h), n, seed, mode)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def cholesky_factor():
    """Reference Cholesky factor L (L L^T = exact FGN covariance) of size n.

    O(n^3), so kept for small n and cached per (h, n): a test that draws
    several paths ``L @ rng.standard_normal(n)`` at one h factors once.
    """

    @lru_cache(maxsize=2)
    def factor(h: float, n: int) -> np.ndarray:
        i = np.arange(n)
        sigma = fgn_autocorrelation(HurstParam.permissive(h), i)[np.abs(i[:, None] - i)]
        L = np.linalg.cholesky(sigma)
        L.setflags(write=False)
        return L

    return factor


@pytest.fixture(scope="session")
def child_env():
    """Environment for child interpreters that import this package.

    Puts the directory the package was imported from first on PYTHONPATH,
    so a child finds the same package whether or not it is installed.
    """
    src_dir = os.path.dirname(os.path.dirname(fgn_toolkit.__file__))
    path = [src_dir] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)

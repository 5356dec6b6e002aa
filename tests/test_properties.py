"""Property tests over B modes and h, drawn by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fgn_toolkit import BMode, HurstParam, Trace, periodogram, spectrum_b, whittle_objective
from fgn_toolkit import estimate

MODES = st.one_of(
    st.integers(1, 6).map(BMode.truncated),
    st.sampled_from([BMode.truncated_prime(), BMode.truncated_double_prime()]),
    st.integers(1, 300).map(BMode.partial),
)
H = st.floats(0.501, 0.999)
PERIODOGRAM = periodogram(Trace(np.random.default_rng(2024).standard_normal(512)))


@settings(max_examples=30, deadline=None)
@given(mode=MODES, hs=st.lists(H, min_size=2, max_size=4))
def test_reused_workspace_gives_fresh_objective_bits(mode, hs):
    ws = estimate._Workspace(PERIODOGRAM, mode)
    for h in hs:
        fresh = whittle_objective(PERIODOGRAM, HurstParam(h), mode)
        assert estimate._objective(ws, h, mode) == fresh


@settings(max_examples=30, deadline=None)
@given(mode=MODES, h=H, picks=st.lists(st.integers(0, PERIODOGRAM.lambdas.size - 1),
                                       min_size=1, max_size=5))
def test_spectrum_b_is_elementwise(mode, h, picks):
    lam = PERIODOGRAM.lambdas
    full = spectrum_b(HurstParam(h), lam, mode)
    alone = np.array([spectrum_b(HurstParam(h), lam[i], mode) for i in picks])
    assert np.array_equal(alone, full[picks])
    assert np.array_equal(spectrum_b(HurstParam(h), lam[picks], mode), full[picks])

"""Property tests over B modes and h, drawn by hypothesis."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fgn_toolkit import (
    BMode,
    HurstParam,
    Trace,
    periodogram,
    spectrum_b,
    synthesize_fgn,
    whittle_estimate,
    whittle_objective,
)
from fgn_toolkit import estimate, spectrum
from fgn_toolkit.spectrum import FAST

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
        assert estimate._objective(ws, h) == fresh


@settings(max_examples=30, deadline=None)
@given(mode=MODES, h=H, picks=st.lists(st.integers(0, PERIODOGRAM.lambdas.size - 1),
                                       min_size=1, max_size=5))
def test_spectrum_b_is_elementwise(mode, h, picks):
    lam = PERIODOGRAM.lambdas
    full = spectrum_b(HurstParam(h), lam, mode)
    alone = np.array([spectrum_b(HurstParam(h), lam[i], mode) for i in picks])
    assert np.array_equal(alone, full[picks])
    assert np.array_equal(spectrum_b(HurstParam(h), lam[picks], mode), full[picks])


def brent_opening_points():
    """The four h Brent's first three evaluations can take: golden-section
    steps on [_H_LO, _H_HI], as long as its parabola has too few points."""
    a, b, g = estimate._H_LO, estimate._H_HI, estimate._GOLDEN
    first = a + g * (b - a)
    second = first + g * (b - first)  # toward the longer side
    # the third steps from the lower of the two into the longer side of the new bracket
    return {first, second, second + g * (b - second), first + g * (a - first)}


def not_constant(values):
    """The estimator's own rule, the trace's verdict: a range and a variance."""
    return Trace(values)._degeneracy is None


TRACES = hnp.arrays(
    float,
    st.integers(4, 128).map(lambda k: 2 * k),
    elements=st.floats(-1e6, 1e6),
).filter(not_constant)
KINDS = st.sampled_from([BMode.truncated(3), BMode.truncated_prime(),
                         BMode.truncated_double_prime(), BMode.partial(200)])


@settings(max_examples=40, deadline=None)
@given(values=TRACES, mode=KINDS)
def test_search_opens_on_data_free_points(values, mode):
    calls = []
    objective = estimate._objective
    with mock.patch.object(estimate, "_objective",
                           lambda ws, h: calls.append(h) or objective(ws, h)):
        whittle_estimate(Trace(values), mode)
    assert set(calls[:3]) <= brent_opening_points()


def golden_tree(steps):
    """Every h the first ``steps`` evaluations of a search that takes only
    golden-section steps on [_H_LO, _H_HI] can reach, over both outcomes of
    each comparison: 1 + 1 + 2 + 4 + ... points."""
    a, b, g = estimate._H_LO, estimate._H_HI, estimate._GOLDEN
    x = a + g * (b - a)
    points, level = {x}, [(a, b, x)]
    for _ in range(steps - 1):
        nxt = []
        for a, b, x in level:
            u = x + g * ((b - x) if x < 0.5 * (a + b) else (a - x))
            points.add(u)
            nxt.append((x, b, u) if u >= x else (a, x, u))  # u no worse: x ends the bracket
            nxt.append((u, b, x) if u < x else (a, u, x))  # u worse: u ends it
        level = nxt
    return points


@settings(max_examples=40, deadline=None)
@given(values=TRACES, mode=KINDS)
def test_search_opening_stays_in_the_golden_tree(values, mode):
    steps = estimate._OPENING_EVALUATIONS
    tree = golden_tree(steps)
    assert len(tree) <= 2 ** (steps - 1)
    calls = []
    objective = estimate._objective
    with mock.patch.object(estimate, "_objective",
                           lambda ws, h: calls.append(h) or objective(ws, h)):
        whittle_estimate(Trace(values), mode)
    assert len(set(calls[:steps])) == steps and set(calls[:steps]) <= tree


@pytest.mark.parametrize("mode", [BMode.partial(200), FAST], ids=str)
def test_second_estimate_computes_only_the_spectra_past_its_opening(mode):
    # the first estimate fills the table at the opening's points, so the
    # second one of the same trace computes q only after them, plus the two
    # spectra of sigma_h
    assert len(golden_tree(estimate._OPENING_EVALUATIONS)) == 26
    t = synthesize_fgn(HurstParam(0.8), 32768, 3)
    estimate._opening_table.cache_clear()
    whittle_estimate(t, mode)
    spectra = []
    q = spectrum._Shape.q
    with mock.patch.object(spectrum._Shape, "q",
                           lambda shape, h, out: spectra.append(h) or q(shape, h, out)):
        res = whittle_estimate(t, mode)
    assert len(spectra) - 2 == res.evaluations - estimate._OPENING_EVALUATIONS


@seed(23)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(8, 2048).map(lambda m: 2 * m), h=st.floats(0.55, 0.95),
       mode=st.sampled_from(["k:3", "fast", "exact"]), k=st.integers(-500, 505))
@example(n=4096, h=0.95, mode="fast", k=505)  # warned: overflow in I / (1 - cos lam)
@example(n=4096, h=0.55, mode="k:3", k=-500)  # subnormal ordinates moved h_hat
def test_power_of_two_scaling_keeps_the_estimate(n, h, mode, k):
    # the estimate scales every trace to a peak in [1/2, 1) first
    x = synthesize_fgn(HurstParam(h), n, 7).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = whittle_estimate(Trace(x), BMode.parse(mode))
        scaled = whittle_estimate(Trace(np.ldexp(x, k)), BMode.parse(mode))
    assert (scaled.h_hat, scaled.sigma_h, scaled.evaluations, scaled.at_boundary) == (
        base.h_hat, base.sigma_h, base.evaluations, base.at_boundary)
    assert scaled.objective == math.ldexp(base.objective, 2 * k)

"""The library's input contract: every bad argument is one ValueError.

The property gives one argument of a public function or constructor a
drawn bad value (NaN, +-inf, 1.5, -1, "8", True or 2**2000, each where it
lies outside that argument's domain) beside small valid other arguments.
The call must raise one ``ValueError`` whose message is a single line, with
warnings turned into errors, so that a warning printed first fails too.  The
only other exception allowed is the ``MemoryError`` a huge size may raise.
Arguments whose type is one of the package's own checked objects
(``HurstParam``, ``BMode``, ``Trace``, ``SpectrumGrid``, ``ArrivalTrace``, a
numpy ``Generator``) get their bad values through those constructors' cases.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgn_toolkit import (
    ArrivalTrace,
    BMode,
    HurstParam,
    InterarrivalSeq,
    SpectrumGrid,
    Trace,
    build_spectrum_grid,
    counts_to_interarrivals,
    exact_fgn,
    fgn_autocorrelation,
    fgn_power_spectrum,
    make_rng,
    rescale_trace,
    sample_autocorrelation,
    spectrum_b,
    synthesize_fgn,
    to_integer_counts,
    variance_time_curve,
    whittle_estimate,
    whittle_sigma,
)
from fgn_toolkit.analyze import aggregate, default_m_levels
from fgn_toolkit.spectrum import spectrum_factor_a

BAD = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "1.5": 1.5, "-1": -1,
       "'8'": "8", "True": True, "2**2000": 2**2000}

H = HurstParam(0.7)
K3 = BMode.truncated(3)
T = Trace(np.random.default_rng(7).standard_normal(64))
# mostly negative: to_integer_counts clamps 3/4 of it, which warns
MOSTLY_NEGATIVE = Trace(np.linspace(-3.0, 1.0, 64))
A = ArrivalTrace(np.array([1, 2, 3]), 1.0)

# case: (the call given the bad value, names of the values in BAD that are
# valid for that argument).  A bool inside a list of numbers becomes a number
# in numpy's conversion, so list cases treat True as valid.
CASES = {
    "synthesize_fgn-n": (lambda v: synthesize_fgn(H, v, 1, K3), []),
    "synthesize_fgn-seed": (lambda v: synthesize_fgn(H, 16, v, K3), ["2**2000"]),
    "make_rng-seed": (make_rng, ["2**2000"]),
    "exact_fgn-n": (lambda v: exact_fgn(H, v, make_rng(1)), []),
    "build_spectrum_grid-n": (lambda v: build_spectrum_grid(H, v, K3), []),
    "whittle_sigma-n": (lambda v: whittle_sigma(H, v, K3), []),
    "whittle_estimate-tol": (lambda v: whittle_estimate(T, K3, v), []),
    "aggregate-m": (lambda v: aggregate(T, v), []),
    "default_m_levels-n": (default_m_levels, ["2**2000"]),
    "variance_time_curve-levels": (lambda v: variance_time_curve(T, v), []),
    "variance_time_curve-level": (lambda v: variance_time_curve(T, [1, 2, v]), []),
    "sample_autocorrelation-max_lag": (lambda v: sample_autocorrelation(T, v), []),
    "fgn_autocorrelation-k": (lambda v: fgn_autocorrelation(H, v), []),
    "fgn_autocorrelation-k-list": (lambda v: fgn_autocorrelation(H, [0, 1, v]), ["True"]),
    "spectrum_b-lam": (lambda v: spectrum_b(H, v, K3), ["1.5"]),
    "fgn_power_spectrum-lam": (lambda v: fgn_power_spectrum(H, v, K3), ["1.5"]),
    "spectrum_factor_a-lam": (lambda v: spectrum_factor_a(H, v), ["1.5", "-1"]),
    "HurstParam-h": (HurstParam, []),
    "HurstParam.permissive-h": (HurstParam.permissive, []),
    "BMode-kind": (lambda v: BMode(v, 3), []),
    # a huge term count is a mode; using it raises MemoryError
    "BMode-terms": (lambda v: BMode("k", v), ["2**2000"]),
    "BMode.truncated-k": (BMode.truncated, ["2**2000"]),
    "BMode.partial-n_terms": (BMode.partial, ["2**2000"]),
    "BMode.parse-text": (BMode.parse, []),
    "BMode.parse-k": (lambda v: BMode.parse(f"k:{v}"), ["'8'", "2**2000"]),
    "SpectrumGrid-lambdas": (lambda v: SpectrumGrid([0.1, v], [1.0, 2.0]), ["1.5", "True"]),
    "SpectrumGrid-values": (lambda v: SpectrumGrid([0.1, 0.2], [1.0, v]),
                            ["1.5", "True"]),
    "Trace-values": (lambda v: Trace([0.1, 0.2, v]), ["1.5", "-1", "True"]),
    "ArrivalTrace-counts": (lambda v: ArrivalTrace([1, 2, v], 1.0), ["True"]),
    "ArrivalTrace-bin_width": (lambda v: ArrivalTrace([1, 2], v), ["1.5"]),
    "ArrivalTrace-clamp_fraction": (lambda v: ArrivalTrace([1, 2], 1.0, v), []),
    "InterarrivalSeq-times": (lambda v: InterarrivalSeq([0.5, v]), ["1.5", "True"]),
    "rescale_trace-target_mean": (lambda v: rescale_trace(T, v, 1.0), ["1.5", "-1"]),
    "rescale_trace-target_sd": (lambda v: rescale_trace(T, 0.0, v), ["1.5"]),
    "to_integer_counts-bin_width": (lambda v: to_integer_counts(MOSTLY_NEGATIVE, v), ["1.5"]),
    "counts_to_interarrivals-spread": (lambda v: counts_to_interarrivals(A, v, make_rng(1)), []),
}


def raises_one_value_error(call):
    """Whether ``call()`` raises one one-line ValueError (or MemoryError), no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, MemoryError)) as info:
            call()
    return info.type is MemoryError or len(str(info.value).splitlines()) == 1


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_bad_argument_is_one_value_error(case, data):
    call, valid = CASES[case]
    name = data.draw(st.sampled_from([k for k in BAD if k not in valid]), label="value")
    assert raises_one_value_error(lambda: call(BAD[name]))


@pytest.mark.parametrize("call", [
    lambda: synthesize_fgn(H, 4.5, 1),
    lambda: synthesize_fgn(H, 8, 1.5),
    lambda: exact_fgn(H, 3.7, make_rng(1)),
    lambda: build_spectrum_grid(H, 8.9, K3),
    lambda: whittle_sigma(H, float("nan"), K3),
    lambda: aggregate(T, 2.5),
    lambda: variance_time_curve(Trace(np.arange(128.0) % 7), [1, 2.5, 7]),
    lambda: sample_autocorrelation(T, 1.5),
    lambda: fgn_autocorrelation(H, 1.5),
    lambda: fgn_autocorrelation(H, float("nan")),
    lambda: spectrum_b(H, float("nan"), K3),
    lambda: SpectrumGrid([0.1, float("nan")], [1, 2]),
    lambda: rescale_trace(T, 0, float("nan")),
    lambda: BMode("k", 2.5),
    lambda: Trace(np.array(["1", "2"])),
    lambda: ArrivalTrace(["3"], 1.0),
    lambda: ArrivalTrace([2**2000], 1.0),
    lambda: HurstParam("0.7"),
    lambda: to_integer_counts(MOSTLY_NEGATIVE, float("nan")),
], ids=["synth-n", "synth-seed", "exact-n", "grid-n", "sigma-n", "aggregate", "vt", "acf",
        "r-fraction", "r-nan", "b-nan", "grid-nan", "rescale-nan", "bmode", "trace-str",
        "counts-str", "counts-huge", "hurst-str", "width-before-warning"])
def test_escapes_found_before_are_one_value_error(call):
    # each returned a value, raised another exception or warned first, but
    # rescale-nan, which blamed the trace ("trace values must all be finite")
    assert raises_one_value_error(call)


@pytest.mark.parametrize("call", [
    lambda: Trace(np.array([True, False, True])),
    lambda: ArrivalTrace(np.array([True, False]), 1.0),
    lambda: fgn_autocorrelation(H, np.array([True])),
    lambda: HurstParam(np.True_),
], ids=["trace", "counts", "lags", "hurst"])
def test_bools_are_not_numbers(call):
    assert raises_one_value_error(call)


def test_integral_floats_and_numpy_integers_are_integers():
    want = synthesize_fgn(H, 8, 1).values
    assert np.array_equal(synthesize_fgn(H, 8.0, 1.0).values, want)
    t = synthesize_fgn(H, np.int64(8), np.int64(1))
    assert np.array_equal(t.values, want) and type(t.provenance.seed) is int
    assert BMode("k", 8.0) == BMode.truncated(np.int64(8)) == BMode.parse("k:8")
    assert np.array_equal(aggregate(T, 4.0).values, aggregate(T, 4).values)
    assert np.array_equal(sample_autocorrelation(T, np.int32(5)), sample_autocorrelation(T, 5))
    assert np.array_equal(variance_time_curve(T, [1.0, 2, np.int64(4)]).norm_vars,
                          variance_time_curve(T, [1, 2, 4]).norm_vars)
    assert fgn_autocorrelation(H, 3.0) == fgn_autocorrelation(H, 3)


def test_float64_values_are_not_copied():
    x = np.random.default_rng(1).standard_normal(16)
    assert np.shares_memory(Trace(x).values, x)
    lam = np.array([0.5, 1.0])
    assert SpectrumGrid(lam, x[:2] ** 2).lambdas is lam

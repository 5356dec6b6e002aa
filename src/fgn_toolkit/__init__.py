"""Synthesis, estimation and analysis of self-similar network traffic.

The package synthesizes approximate fractional Gaussian noise sample paths
with an FFT spectral method, estimates the Hurst parameter with a fast
Whittle procedure, evaluates paths with variance-time and normality
checks, and converts paths into arrival counts and interarrival times.
"""

from .analyze import (
    AD_CRITICAL_5PCT,
    NormalityReport,
    VarianceTimeCurve,
    ad_normality_test,
    aggregate,
    qq_points,
    sample_autocorrelation,
    variance_time_curve,
)
from .estimate import (
    WhittleResult,
    periodogram,
    whittle_estimate,
    whittle_objective,
    whittle_sigma,
)
from .oracle import covariance_factor, exact_fgn
from .spectrum import (
    BMode,
    HurstParam,
    SpectrumGrid,
    build_spectrum_grid,
    fgn_autocorrelation,
    fgn_power_spectrum,
    spectrum_b,
    spectrum_factor_a,
)
from .synth import (
    Trace,
    TraceProvenance,
    fuzz_spectrum,
    make_rng,
    random_phase_complexify,
    rescale_trace,
    synthesize_fgn,
)
from .traffic import (
    ArrivalTrace,
    InterarrivalSeq,
    counts_to_interarrivals,
    exp2_transform,
    to_integer_counts,
)

__version__ = "0.1.0"

__all__ = [
    "AD_CRITICAL_5PCT",
    "ArrivalTrace",
    "BMode",
    "HurstParam",
    "InterarrivalSeq",
    "NormalityReport",
    "SpectrumGrid",
    "Trace",
    "TraceProvenance",
    "VarianceTimeCurve",
    "WhittleResult",
    "ad_normality_test",
    "aggregate",
    "build_spectrum_grid",
    "counts_to_interarrivals",
    "covariance_factor",
    "exact_fgn",
    "exp2_transform",
    "fgn_autocorrelation",
    "fgn_power_spectrum",
    "fuzz_spectrum",
    "make_rng",
    "periodogram",
    "qq_points",
    "random_phase_complexify",
    "rescale_trace",
    "sample_autocorrelation",
    "spectrum_b",
    "spectrum_factor_a",
    "synthesize_fgn",
    "to_integer_counts",
    "variance_time_curve",
    "whittle_estimate",
    "whittle_objective",
    "whittle_sigma",
]

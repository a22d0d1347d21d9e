"""Blind source separation of stationary time series.

Estimators built on joint diagonalization of autocovariance matrices
at several lags (AMUSE and SOBI in deflation and symmetric variants), the
matching asymptotic variance calculations for linear-process sources,
and performance indices for comparing unmixing estimates.
"""

from .autocovariance import (
    AutocovSet,
    autocorrelations,
    autocov_set,
    sample_autocov,
    whitener,
)
from .asymptotics import (
    ASVTable,
    AsymptoticModel,
    asv,
    asv_deflation,
    asv_symmetric,
    build_model,
    empirical_asv,
    global_criterion,
    transform_general_mixing,
)
from .joint_diag import (
    UnmixingResult,
    amuse,
    estimating_residual,
    sobi_deflation,
    sobi_symmetric_fixedpoint,
    sobi_symmetric_jacobi,
)
from .metrics import amari, mdi
from .presets import BENCHMARK_MODELS, LAG_PRESETS, benchmark_model, lag_preset
from .signal_model import (
    MAExpansion,
    MixingModel,
    SourceSpec,
    expand_to_ma,
    mix,
    simulate_sources,
)

__version__ = "0.1.0"

__all__ = [
    "AutocovSet",
    "ASVTable",
    "AsymptoticModel",
    "BENCHMARK_MODELS",
    "LAG_PRESETS",
    "MAExpansion",
    "MixingModel",
    "SourceSpec",
    "UnmixingResult",
    "amari",
    "amuse",
    "asv",
    "asv_deflation",
    "asv_symmetric",
    "autocorrelations",
    "autocov_set",
    "benchmark_model",
    "build_model",
    "empirical_asv",
    "estimating_residual",
    "expand_to_ma",
    "global_criterion",
    "lag_preset",
    "mdi",
    "mix",
    "sample_autocov",
    "simulate_sources",
    "sobi_deflation",
    "sobi_symmetric_fixedpoint",
    "sobi_symmetric_jacobi",
    "transform_general_mixing",
    "whitener",
]

"""Quantifying how exposure-proxy multicollinearity amplifies sensitivity to
unmeasured confounding in linear regression analyses."""

from .bias import (BiasDecomposition, ExposureModelStats, ProxyModel,
                   attenuation_slope, collinearity_ratio, exposure_stats_from_ols,
                   general_bias, decompose_bias)
from .dataset import Dataset
from .distributions import (chisq_cdf, chisq_quantile, normal_cdf, normal_quantile, t_cdf,
                            t_quantile)
from .errors import (ConfoundLensError, ConvergenceError, DegenerateExposureError,
                     DomainError, EmptyAfterFilteringError, InsufficientRowsError,
                     NoVariationError, ParseError, RankDeficientError,
                     SeparationError)
from .ingest import ingest_csv, ingest_csv_stratified
from .logit import LogitFit, c_statistic, fit_logit
from .ols import OlsFit, fit_ols, vif
from .ratio_ci import RatioInterval, conservative_ratio_ci
from .sensitivity import (SensitivityReport, TreatmentSummary, partial_r2,
                          robustness_value, robustness_value_alpha,
                          sensitivity_report)
from .simulate import (STUDY_PRESETS, DgpSpec, PopulationMoments, ReplicateSummary,
                       derive_replicate_seed, exposure_stats_from_moments, generate,
                       population_bias_decomposition, population_moments,
                       population_ols_bias, replicate_study)

__version__ = "0.1.0"

__all__ = [
    "BiasDecomposition", "ExposureModelStats", "ProxyModel", "attenuation_slope",
    "collinearity_ratio", "exposure_stats_from_ols", "general_bias",
    "decompose_bias",
    "Dataset",
    "chisq_cdf", "chisq_quantile", "normal_cdf", "normal_quantile", "t_cdf",
    "t_quantile",
    "ConfoundLensError", "ConvergenceError", "DegenerateExposureError",
    "DomainError", "EmptyAfterFilteringError", "InsufficientRowsError",
    "NoVariationError", "ParseError", "RankDeficientError", "SeparationError",
    "ingest_csv", "ingest_csv_stratified",
    "LogitFit", "c_statistic", "fit_logit",
    "OlsFit", "fit_ols", "vif",
    "RatioInterval", "conservative_ratio_ci",
    "SensitivityReport", "TreatmentSummary", "partial_r2", "robustness_value",
    "robustness_value_alpha", "sensitivity_report",
    "STUDY_PRESETS", "DgpSpec", "PopulationMoments", "ReplicateSummary",
    "derive_replicate_seed", "exposure_stats_from_moments", "generate",
    "population_bias_decomposition", "population_moments", "population_ols_bias",
    "replicate_study",
    "__version__",
]

"""Sequential and offline change-point detection for univariate series.

The package covers the full pipeline for monitoring a stream of
observations for a distribution change:

* :mod:`quickdetect.series` — loading price CSVs, difference series,
  moment estimation and distributional diagnostics;
* :mod:`quickdetect.models` — Gaussian change models, exact
  log-likelihood ratios and the linear-quadratic score;
* :mod:`quickdetect.detect` — CUSUM and Shiryaev-Roberts recursions on log
  increments, single-run and multi-cyclic;
* :mod:`quickdetect.offline` — retrospective change-point estimation and
  recursive segmentation;
* :mod:`quickdetect.renewal` — renewal-theoretic constants and
  closed-form approximations to operating characteristics;
* :mod:`quickdetect.calib` — Monte Carlo estimation of operating
  characteristics and threshold calibration;
* :mod:`quickdetect.cli` — the ``quickdetect`` command-line pipeline.
"""

from .calib import (
    CalibrationError,
    CalibrationSpec,
    DetectorConfig,
    PerformanceEstimate,
    estimate_arl,
    estimate_sadd,
    estimate_stadd,
    solve_threshold,
)
from .detect import (
    DetectionTrace,
    multi_cyclic_run,
    run_detector,
    to_ratios,
)
from .models import (
    GaussianChangeModel,
    ScoreParams,
    design_coefficients,
    linear_quadratic_score,
    llr,
)
from .offline import (
    BDTrace,
    SegmentationResult,
    bd_estimate,
    bd_segment,
    bd_statistic,
    null_threshold,
)
from .renewal import (
    Estimate,
    EstimationPolicy,
    RenewalConstants,
    arl_approx,
    delay_approx,
    estimate_constants,
    kl_numbers,
)
from .series import (
    AcfResult,
    CsvFormatError,
    CsvSchema,
    DiagnosticBundle,
    MomentEstimate,
    PriceSeries,
    ReturnSeries,
    acf,
    diagnostics,
    estimate_moments,
    load_csv,
    standardize,
    to_returns,
)

__version__ = "0.1.0"

__all__ = [
    "AcfResult",
    "BDTrace",
    "CalibrationError",
    "CalibrationSpec",
    "CsvFormatError",
    "CsvSchema",
    "DetectionTrace",
    "DetectorConfig",
    "DiagnosticBundle",
    "Estimate",
    "EstimationPolicy",
    "GaussianChangeModel",
    "MomentEstimate",
    "PerformanceEstimate",
    "PriceSeries",
    "RenewalConstants",
    "ReturnSeries",
    "ScoreParams",
    "SegmentationResult",
    "acf",
    "arl_approx",
    "bd_estimate",
    "bd_segment",
    "bd_statistic",
    "delay_approx",
    "design_coefficients",
    "diagnostics",
    "estimate_arl",
    "estimate_constants",
    "estimate_moments",
    "estimate_sadd",
    "estimate_stadd",
    "kl_numbers",
    "linear_quadratic_score",
    "llr",
    "load_csv",
    "multi_cyclic_run",
    "null_threshold",
    "run_detector",
    "solve_threshold",
    "standardize",
    "to_ratios",
    "__version__",
]

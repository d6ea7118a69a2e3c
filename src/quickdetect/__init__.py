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

A process that finds no bytecode cache (a fresh checkout, or any run with
``PYTHONDONTWRITEBYTECODE`` set) compiles every module it imports from
source, so importing the package loads none of them: each public name
imports its home module on first use (PEP 562), and
``from quickdetect import load_csv`` loads only :mod:`quickdetect.series`.
"""

from importlib import import_module

#: the public names, by the module that defines them
_EXPORTS = {
    "calib": (
        "CalibrationError",
        "CalibrationSpec",
        "DetectorConfig",
        "PerformanceEstimate",
        "estimate_arl",
        "estimate_sadd",
        "estimate_stadd",
        "solve_threshold",
    ),
    "detect": ("DetectionTrace", "multi_cyclic_run", "run_detector", "to_ratios"),
    "models": (
        "GaussianChangeModel",
        "ScoreParams",
        "design_coefficients",
        "linear_quadratic_score",
        "llr",
    ),
    "offline": (
        "BDTrace",
        "SegmentationResult",
        "bd_estimate",
        "bd_segment",
        "bd_statistic",
        "null_threshold",
    ),
    "renewal": (
        "Estimate",
        "EstimationPolicy",
        "RenewalConstants",
        "arl_approx",
        "delay_approx",
        "estimate_constants",
        "kl_numbers",
    ),
    "series": (
        "AcfResult",
        "CsvFormatError",
        "CsvSchema",
        "DiagnosticBundle",
        "MomentEstimate",
        "PriceSeries",
        "ReturnSeries",
        "acf",
        "diagnostics",
        "estimate_moments",
        "load_csv",
        "standardize",
        "to_returns",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

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


def __getattr__(name: str):
    """A public name, imported from its home module on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})

"""Monte Carlo calibration: ARL/delay estimation and threshold root-finding.

The operating characteristics estimated here:

``ARL``
    Mean steps to a (false) alarm when no change ever happens.
``SADD``
    Worst-case mean detection delay, estimated as the mean stopping time
    when the change is in force from the very first observation.  For these
    detectors the worst case over change times is attained there; this
    identity is an estimation assumption and is recorded on reports.
``STADD``
    Stationary multi-cyclic delay: run the detector with restarts through a
    long pre-change stretch of length ``nu``, inject the change, and measure
    the first alarm after it.  ``nu`` must already be in the stationary
    regime; doubling it must move the estimate by less than two combined
    standard errors, and this is checked on every call.

All estimators draw each replication from a stream derived from
``(seed, estimator, replication index)``, so repeated calls with different
thresholds reuse the same observation paths (common random numbers).
Stopping times are then pathwise nondecreasing in the threshold, which makes
the bisection in :func:`solve_threshold` exact apart from Monte Carlo noise
shared across iterations.

Every run is capped at ``100 * gamma`` steps; capped replications are
counted at the cap and reported, and more than 1% of them is an error.

The paths are evaluated by the CUSUM and Shiryaev-Roberts kernels of
:mod:`quickdetect.detect`, block by block as the observations are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rand import mean_se, substream
from .detect import KINDS, MODES, _BLOCK, _advance_with_resets, _path, check_threshold
from .models import GaussianChangeModel, ScoreParams, linear_quadratic_score, llr

_STREAM_ARL = 11
_STREAM_SADD = 12
_STREAM_STADD_PRE = 13
_STREAM_STADD_POST = 14


class CalibrationError(RuntimeError):
    """A Monte Carlo estimate or threshold search failed its contract."""


@dataclass(frozen=True)
class CalibrationSpec:
    """Target false-alarm level and Monte Carlo budget."""

    gamma: float
    replications: int = 10_000
    seed: int = 0
    relative_tolerance: float = 0.02
    max_iterations: int = 40
    nu_stationary: int = 1_000

    def __post_init__(self) -> None:
        if not (np.isfinite(self.gamma) and self.gamma > 1.0):
            raise ValueError("gamma must exceed 1")
        if self.replications < 2:
            raise ValueError("need at least two replications")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.relative_tolerance < 1.0:
            raise ValueError("relative_tolerance must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.nu_stationary < 1:
            raise ValueError("nu_stationary must be positive")

    @property
    def run_cap(self) -> int:
        return int(math.ceil(100.0 * self.gamma))


@dataclass(frozen=True)
class PerformanceEstimate:
    """One Monte Carlo operating characteristic at one threshold."""

    metric: str
    value: float
    std_error: float
    replications: int
    threshold: float
    cap_hits: int = 0

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError("estimate must be finite")
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")
        if self.cap_hits < 0 or self.cap_hits > self.replications:
            raise ValueError("cap hits must lie in [0, replications]")


@dataclass(frozen=True)
class DetectorConfig:
    """What to simulate: data model, detector kind, and increment mechanism.

    ``model`` always generates the observations.  ``mode`` picks the
    increments: ``exact`` uses the model log-likelihood ratio, ``score``
    standardizes by the pre-change moments and applies the linear-quadratic
    score.
    ``increment_fn`` (observations -> log increments) overrides the mode;
    it exists for degenerate and diagnostic detectors.
    """

    kind: str
    model: GaussianChangeModel
    mode: str = "exact"
    score: ScoreParams | None = None
    increment_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.increment_fn is None and self.mode == "score":
            if self.score is None:
                raise ValueError("score mode needs score parameters")
            if self.score.is_degenerate:
                raise ValueError("refusing to run an identically-zero score")

    def log_increments(self, x: np.ndarray) -> np.ndarray:
        """Map raw observations to log-scale detector increments."""
        if self.increment_fn is not None:
            out = np.asarray(self.increment_fn(np.asarray(x, dtype=float)), dtype=float)
            if out.shape != np.shape(x):
                raise ValueError("increment_fn must preserve the shape")
            return out
        if self.mode == "exact":
            return llr(self.model, x)
        standardized = (np.asarray(x, dtype=float) - self.model.mu_pre) / self.model.sigma_pre
        return linear_quadratic_score(self.score, standardized)

    def sample(self, rng: np.random.Generator, n: int, regime: str) -> np.ndarray:
        if regime == "pre":
            return rng.normal(self.model.mu_pre, self.model.sigma_pre, n)
        if regime == "post":
            return rng.normal(self.model.mu_post, self.model.sigma_post, n)
        raise ValueError(f"regime must be 'pre' or 'post', got {regime!r}")


def _first_crossing(
    config: DetectorConfig,
    threshold: float,
    rng: np.random.Generator,
    cap: int,
    regime: str,
) -> int | None:
    """Steps to the first alarm from a fresh detector, or None at the cap."""
    state = 0.0
    consumed = 0
    while consumed < cap:
        block = min(_BLOCK, cap - consumed)
        z = config.log_increments(config.sample(rng, block, regime))
        path = _path(config.kind, state, z)
        hits = np.nonzero(path >= threshold)[0]
        if hits.size:
            return consumed + int(hits[0]) + 1
        state = float(path[-1])
        consumed += block
    return None


def _stop_times(
    config: DetectorConfig,
    threshold: float,
    spec: CalibrationSpec,
    regime: str,
    stream: int,
    strict: bool = True,
) -> tuple[np.ndarray, int]:
    cap = spec.run_cap
    times = np.empty(spec.replications)
    cap_hits = 0
    for r in range(spec.replications):
        rng = substream(spec.seed, stream, r)
        t = _first_crossing(config, threshold, rng, cap, regime)
        if t is None:
            cap_hits += 1
            t = cap
        times[r] = t
    if strict and cap_hits > 0.01 * spec.replications:
        raise CalibrationError(
            f"{cap_hits}/{spec.replications} runs hit the {cap}-step cap; "
            "the threshold is far above the target false-alarm level"
        )
    return times, cap_hits


def estimate_arl(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Mean time to false alarm (pre-change data only) with standard error.

    Capped replications enter at the cap value and are reported via
    ``cap_hits`` rather than silently dropped.
    """
    check_threshold(threshold)
    times, cap_hits = _stop_times(config, threshold, spec, "pre", _STREAM_ARL)
    value, se = mean_se(times)
    return PerformanceEstimate(
        metric="arl",
        value=value,
        std_error=se,
        replications=spec.replications,
        threshold=threshold,
        cap_hits=cap_hits,
    )


def estimate_sadd(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Worst-case mean detection delay: change in force from the first step."""
    check_threshold(threshold)
    times, cap_hits = _stop_times(config, threshold, spec, "post", _STREAM_SADD)
    value, se = mean_se(times)
    return PerformanceEstimate(
        metric="sadd",
        value=value,
        std_error=se,
        replications=spec.replications,
        threshold=threshold,
        cap_hits=cap_hits,
    )


def _stadd_delay(
    config: DetectorConfig,
    threshold: float,
    rng_pre: np.random.Generator,
    rng_post: np.random.Generator,
    nu: int,
    cap: int,
) -> int | None:
    """Delay of the first alarm after a change injected at step ``nu``."""
    state = 0.0
    consumed = 0
    while consumed < nu:
        block = min(_BLOCK, nu - consumed)
        z = config.log_increments(config.sample(rng_pre, block, "pre"))
        state, _ = _advance_with_resets(config.kind, state, z, threshold)
        consumed += block
    consumed = 0
    while consumed < cap:
        block = min(_BLOCK, cap - consumed)
        z = config.log_increments(config.sample(rng_post, block, "post"))
        path = _path(config.kind, state, z)
        hits = np.nonzero(path >= threshold)[0]
        if hits.size:
            return consumed + int(hits[0]) + 1
        state = float(path[-1])
        consumed += block
    return None


def _stadd_at(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec, nu: int
) -> PerformanceEstimate:
    cap = spec.run_cap
    delays = np.empty(spec.replications)
    cap_hits = 0
    for r in range(spec.replications):
        rng_pre = substream(spec.seed, _STREAM_STADD_PRE, r)
        rng_post = substream(spec.seed, _STREAM_STADD_POST, r)
        d = _stadd_delay(config, threshold, rng_pre, rng_post, nu, cap)
        if d is None:
            cap_hits += 1
            d = cap
        delays[r] = d
    if cap_hits > 0.01 * spec.replications:
        raise CalibrationError(
            f"{cap_hits}/{spec.replications} post-change runs hit the cap"
        )
    value, se = mean_se(delays)
    return PerformanceEstimate(
        metric="stadd",
        value=value,
        std_error=se,
        replications=spec.replications,
        threshold=threshold,
        cap_hits=cap_hits,
    )


def estimate_stadd(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Stationary (multi-cyclic) mean detection delay at ``nu_stationary``.

    The change index must be deep in the stationary regime: the estimate at
    ``2 * nu_stationary`` must agree within two combined standard errors,
    otherwise the call fails.
    """
    check_threshold(threshold)
    est = _stadd_at(config, threshold, spec, spec.nu_stationary)
    check = _stadd_at(config, threshold, spec, 2 * spec.nu_stationary)
    spread = 2.0 * math.hypot(est.std_error, check.std_error)
    if abs(est.value - check.value) >= max(spread, 1e-12):
        raise CalibrationError(
            f"stationarity check failed: delay {est.value:.4f} at "
            f"nu={spec.nu_stationary} vs {check.value:.4f} at twice that "
            f"(allowed spread {spread:.4f}); increase nu_stationary"
        )
    return est


def solve_threshold(
    config: DetectorConfig, spec: CalibrationSpec
) -> tuple[float, PerformanceEstimate]:
    """Find a threshold whose Monte Carlo ARL matches ``gamma``.

    Exact-likelihood detectors start from the closed bracket guaranteed by
    theory (``h <= log gamma`` for CUSUM, ``A <= gamma`` for SR, both of
    which give ARL at least gamma); score-based detectors expand the upper
    end by doubling until the ARL clears gamma.  Bisection then runs on the
    log threshold under common random numbers until the ARL lands within
    ``relative_tolerance`` of gamma.  Deterministic given the spec.
    """
    gamma = spec.gamma
    tol = spec.relative_tolerance * gamma
    evaluations: dict[float, PerformanceEstimate] = {}

    def arl_at(threshold: float) -> PerformanceEstimate:
        # bracketing evaluations tolerate capped runs (a cap-heavy estimate
        # just means "far above gamma", which is useful bracket information);
        # only the accepted solution is held to the strict cap contract
        est = evaluations.get(threshold)
        if est is None:
            times, cap_hits = _stop_times(
                config, threshold, spec, "pre", _STREAM_ARL, strict=False
            )
            value, se = mean_se(times)
            est = PerformanceEstimate(
                metric="arl",
                value=value,
                std_error=se,
                replications=spec.replications,
                threshold=threshold,
                cap_hits=cap_hits,
            )
            evaluations[threshold] = est
            _check_monotone(evaluations)
        return est

    def accept(threshold: float, est: PerformanceEstimate):
        if est.cap_hits > 0.01 * spec.replications:
            raise CalibrationError(
                f"{est.cap_hits}/{spec.replications} runs still hit the "
                f"{spec.run_cap}-step cap at the accepted threshold"
            )
        return threshold, est

    hi = math.log(gamma) if config.kind == "cusum" else gamma
    est = arl_at(hi)
    if abs(est.value - gamma) <= tol:
        return accept(hi, est)
    expansions = 0
    while est.value < gamma:
        expansions += 1
        if expansions > 60:
            raise CalibrationError("no upper bracket found after 60 doublings")
        hi *= 2.0
        est = arl_at(hi)
        if abs(est.value - gamma) <= tol:
            return accept(hi, est)
    lo = hi / 2.0
    while arl_at(lo).value >= gamma:
        if abs(arl_at(lo).value - gamma) <= tol:
            return accept(lo, arl_at(lo))
        lo /= 2.0
        if lo < 1e-12:
            raise CalibrationError("no lower bracket found above 1e-12")
    for _ in range(spec.max_iterations):
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        est = arl_at(mid)
        if abs(est.value - gamma) <= tol:
            return accept(mid, est)
        if est.value < gamma:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"threshold not bracketed to within {spec.relative_tolerance:.1%} of "
        f"gamma={gamma} after {spec.max_iterations} bisection steps"
    )


def _check_monotone(evaluations: dict[float, PerformanceEstimate]) -> None:
    """ARL must be nondecreasing in the threshold under common random numbers."""
    items = sorted(evaluations.items())
    for (t_lo, e_lo), (t_hi, e_hi) in zip(items, items[1:]):
        if e_lo.value > e_hi.value + 1e-9:
            raise CalibrationError(
                "nonmonotone ARL estimates under common random numbers: "
                f"ARL({t_lo})={e_lo.value} > ARL({t_hi})={e_hi.value}"
            )

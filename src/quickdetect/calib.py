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
    standard errors, ``2 * hypot(se_nu, se_2nu)``, and this is checked on
    every call.

All estimators draw each replication from a stream derived from
``(seed, estimator, replication index)``, so repeated calls with different
thresholds reuse the same observation paths (common random numbers).
Stopping times are then pathwise nondecreasing in the threshold, which makes
the bisection in :func:`solve_threshold` exact apart from Monte Carlo noise
shared across iterations.

A fresh-start path (ARL, SADD) does not depend on the threshold at all: the
stopping time at ``h`` is the first step at which the path's running maximum
reaches ``h``.  :func:`solve_threshold` asks one path many thresholds, so it
keeps each replication's path as a ladder record, the steps and heights of
its strict new maxima, and a stopping time is a lookup in that record; the
path is drawn once for the whole search, and extended only when a threshold
above its running maximum is asked for.  The one-shot estimators
(:func:`estimate_arl`, :func:`estimate_sadd`) ask one threshold, so they
only look for each path's first crossing.  The STADD path restarts after
every alarm, so it depends on the threshold and is drawn per call; the walk
to ``nu`` is the first half of the walk to ``2 * nu``, and one post-change
stream per replication serves both change points.

Every run is capped at ``100 * gamma`` steps; capped replications are
counted at the cap and reported, and more than 1% of them is an error.

The paths are evaluated by the CUSUM and Shiryaev-Roberts kernels of
:mod:`quickdetect.detect`, block by block as the observations are drawn.
The one-shot and STADD estimators run ``_ROWS`` replications at a time as
the rows of one array: each row still draws from its own generator, so the
draws, and every stopping time, are those of a replication run alone, and
the stopping times are averaged in replication order.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from ._rand import mean_se, substream
from .detect import KINDS, MODES, _BLOCK, _advance_with_resets, _path, check_threshold
from .models import GaussianChangeModel, ScoreParams, linear_quadratic_score, llr

_STREAM_ARL = 11
_STREAM_SADD = 12
_STREAM_STADD_PRE = 13
_STREAM_STADD_POST = 14
#: replications the one-shot and STADD estimators simulate together, as the
#: rows of one array; bounds their memory at any replication count
_ROWS = 1024


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
    it exists for degenerate and diagnostic detectors.  It must act
    elementwise: the estimators pass it ``(rows, block)`` arrays, one row
    per replication, and its output must keep that shape.
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


class _Run:
    """One replication's fresh-start path, drawn only as far as queries need.

    Under common random numbers the path does not depend on the threshold,
    so one path answers every threshold: the stopping time at ``h`` is the
    first step whose value reaches ``h``, which is always a strict new
    maximum.  The run keeps the end state, the steps drawn, the running
    maximum ``top`` and the ladder record (``epochs``, 1-based steps, and
    ``heights`` of the strict new maxima, so ``heights`` increases).  A
    query above ``top`` extends the path, in ``_BLOCK``-step blocks through
    the same draws and kernel calls as a single run at that threshold, until
    ``top`` reaches it or the path reaches the cap.
    """

    __slots__ = (
        "config", "regime", "cap", "rng", "state", "steps", "top", "epochs", "heights"
    )

    def __init__(
        self, config: DetectorConfig, regime: str, cap: int, rng: np.random.Generator
    ) -> None:
        self.config = config
        self.regime = regime
        self.cap = cap
        self.rng = rng
        self.state = 0.0
        self.steps = 0
        self.top = -math.inf
        self.epochs = array("q")
        self.heights = array("d")

    def stop_time(self, threshold: float) -> int | None:
        """Steps to the first alarm at ``threshold``, or None at the cap."""
        if self.top < threshold:
            self._extend(threshold)
        j = bisect_left(self.heights, threshold)
        return self.epochs[j] if j < len(self.heights) else None

    def _extend(self, threshold: float) -> None:
        config = self.config
        top = self.top
        paths: list[np.ndarray] = []  # from the first block with a new maximum on
        while top < threshold and self.steps < self.cap:
            block = min(_BLOCK, self.cap - self.steps)
            z = config.log_increments(config.sample(self.rng, block, self.regime))
            path = _path(config.kind, self.state, z)
            peak = np.fmax.reduce(path)  # fmax skips NaN, which never alarms
            if paths or peak > top:
                paths.append(path)
            if peak > top:
                top = float(peak)
            self.state = float(path[-1])
            self.steps += block
        if paths:
            # one record update per extension, not per block, keeps it cheap
            values = np.concatenate(([self.top], *paths))
            ahead = np.fmax.accumulate(values)
            new = np.nonzero(values[1:] > ahead[:-1])[0]
            self.heights.frombytes(values[1:][new].tobytes())
            new += self.steps - values.size + 2  # values[1:] ends at step self.steps
            self.epochs.frombytes(new.astype(np.int64, copy=False).tobytes())
            self.top = top


def _runs(
    config: DetectorConfig, spec: CalibrationSpec, regime: str, stream: int
) -> Iterator[_Run]:
    """Fresh runs of replications ``0 .. replications - 1`` of one stream."""
    for r in range(spec.replications):
        yield _Run(config, regime, spec.run_cap, substream(spec.seed, stream, r))


def _evaluate(
    runs: Iterable[_Run],
    spec: CalibrationSpec,
    metric: str,
    threshold: float,
    give_up: Callable[[float], bool] | None = None,
) -> PerformanceEstimate | None:
    """Mean stopping time over ``runs``, summed in replication order.

    Capped runs count at the cap.  With ``give_up``, the sum stops and None
    is returned as soon as ``give_up(partial sum / replications)`` holds;
    the full mean can only be larger than that partial mean.
    """
    n = spec.replications
    times = np.empty(n)
    total = 0
    cap_hits = 0
    for r, run in enumerate(runs):
        t = run.stop_time(threshold)
        if t is None:
            cap_hits += 1
            t = run.cap
        times[r] = t
        total += t
        if give_up is not None and give_up(total / n):
            return None
    return _estimate(metric, times, cap_hits, threshold)


def _estimate(
    metric: str, times: np.ndarray, cap_hits: int, threshold: float
) -> PerformanceEstimate:
    value, se = mean_se(times)
    return PerformanceEstimate(
        metric=metric,
        value=value,
        std_error=se,
        replications=times.size,
        threshold=threshold,
        cap_hits=cap_hits,
    )


def _chunks(spec: CalibrationSpec) -> Iterator[range]:
    """Replication indices in runs of at most ``_ROWS``, in order."""
    for lo in range(0, spec.replications, _ROWS):
        yield range(lo, min(lo + _ROWS, spec.replications))


def _draw(
    config: DetectorConfig, rngs: list[np.random.Generator], n: int, regime: str
) -> np.ndarray:
    """The next ``n`` log increments of each generator's stream, as rows."""
    return config.log_increments(np.stack([config.sample(rng, n, regime) for rng in rngs]))


def _first_crossings(
    config: DetectorConfig,
    threshold: float,
    cap: int,
    rngs: list[np.random.Generator],
    regime: str,
    states: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps to the first alarm from each start state, capped at ``cap``.

    ``states`` has shape ``(starts, rows)``, and every start state of row
    ``i`` reads the draws of ``rngs[i]``.  A row draws its stream once, in
    ``_BLOCK``-step blocks as a single fresh run does, for as long as any of
    its start states has not alarmed.  Returns the steps (``cap`` where
    capped) and the mask of capped runs, both shaped like ``states``.
    """
    rows = states.shape[1]
    state = states.astype(float).ravel()  # start s of row i is entry s * rows + i
    times = np.full(state.size, cap, dtype=np.int64)
    capped = np.ones(state.size, dtype=bool)
    live = np.arange(state.size)
    consumed = 0
    while live.size and consumed < cap:
        block = min(_BLOCK, cap - consumed)
        row = live % rows
        drawn = np.unique(row)
        z = _draw(config, [rngs[i] for i in drawn], block, regime)
        path = _path(config.kind, state[live], z[np.searchsorted(drawn, row)])
        hit = path >= threshold
        found = hit.any(axis=1)
        times[live[found]] = consumed + 1 + hit.argmax(axis=1)[found]
        capped[live[found]] = False
        state[live] = path[:, -1]
        live = live[~found]
        consumed += block
    return times.reshape(states.shape), capped.reshape(states.shape)


def _fresh_start_estimate(
    config: DetectorConfig,
    threshold: float,
    spec: CalibrationSpec,
    metric: str,
    regime: str,
    stream: int,
) -> PerformanceEstimate:
    # one threshold: only first crossings, no ladder records
    check_threshold(threshold)
    times = np.empty(spec.replications)
    capped = np.empty(spec.replications, dtype=bool)
    for rows in _chunks(spec):
        rngs = [substream(spec.seed, stream, r) for r in rows]
        t, c = _first_crossings(
            config, threshold, spec.run_cap, rngs, regime, np.zeros((1, len(rows)))
        )
        times[rows.start : rows.stop], capped[rows.start : rows.stop] = t[0], c[0]
    est = _estimate(metric, times, int(capped.sum()), threshold)
    if est.cap_hits > 0.01 * spec.replications:
        raise CalibrationError(
            f"{est.cap_hits}/{spec.replications} runs hit the {spec.run_cap}-step "
            "cap; the threshold is far above the target false-alarm level"
        )
    return est


def estimate_arl(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Mean time to false alarm (pre-change data only) with standard error.

    Capped replications enter at the cap value and are reported via
    ``cap_hits`` rather than silently dropped.
    """
    return _fresh_start_estimate(config, threshold, spec, "arl", "pre", _STREAM_ARL)


def estimate_sadd(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Worst-case mean detection delay: change in force from the first step."""
    return _fresh_start_estimate(config, threshold, spec, "sadd", "post", _STREAM_SADD)


def _stadd_delays(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec, rows: range
) -> tuple[np.ndarray, np.ndarray]:
    """Delays after a change at ``nu`` and at ``2 * nu``, for a run of rows.

    Each row's pre-change walk, with restarts, goes once to ``2 * nu`` in
    ``_BLOCK``-aligned blocks, the blocks a walk to either change point
    uses; the block holding ``nu`` is also evaluated up to ``nu`` for the
    state there.  Both states then read the row's one post-change stream.
    Returns delays and capped masks of shape ``(2, len(rows))``.
    """
    nu = spec.nu_stationary
    pre = [substream(spec.seed, _STREAM_STADD_PRE, r) for r in rows]
    post = [substream(spec.seed, _STREAM_STADD_POST, r) for r in rows]
    state = np.zeros(len(rows))
    at_nu = state
    for lo in range(0, 2 * nu, _BLOCK):
        z = _draw(config, pre, min(_BLOCK, 2 * nu - lo), "pre")
        if lo < nu < lo + z.shape[1]:
            at_nu, _ = _advance_with_resets(config.kind, state, z[:, : nu - lo], threshold)
        state, _ = _advance_with_resets(config.kind, state, z, threshold)
        if lo + z.shape[1] == nu:
            at_nu = state
    return _first_crossings(
        config, threshold, spec.run_cap, post, "post", np.stack([at_nu, state])
    )


def estimate_stadd(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Stationary (multi-cyclic) mean detection delay at ``nu_stationary``.

    The change index must be deep in the stationary regime: the estimate at
    ``2 * nu_stationary`` must agree within two combined standard errors,
    ``2 * hypot(se_nu, se_2nu)``, otherwise the call fails.  Both estimates
    read the same streams, so each replication's walk to ``nu`` is the
    first half of its walk to ``2 * nu`` and its post-change draws serve
    both; replications are simulated together in runs of ``_ROWS`` rows.
    """
    check_threshold(threshold)
    delays = np.empty((2, spec.replications))
    capped = np.empty((2, spec.replications), dtype=bool)
    for rows in _chunks(spec):
        d, c = _stadd_delays(config, threshold, spec, rows)
        delays[:, rows.start : rows.stop], capped[:, rows.start : rows.stop] = d, c
    est, check = (
        _estimate("stadd", d, int(c.sum()), threshold) for d, c in zip(delays, capped)
    )
    for e in (est, check):
        if e.cap_hits > 0.01 * spec.replications:
            raise CalibrationError(
                f"{e.cap_hits}/{spec.replications} post-change runs hit the cap"
            )
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

    Both modes start at ``log gamma`` for CUSUM and ``gamma`` for SR, where
    theory puts an exact-likelihood detector's ARL at gamma or above.  The
    upper end doubles only while its ARL is below gamma (score detectors);
    the lower end then halves until its ARL falls below gamma.  Bisection
    runs on the log threshold under common random numbers until the ARL
    lands within ``relative_tolerance`` of gamma.  Deterministic given the spec.

    Every evaluation reads the same store of ladder records, one path per
    replication, so the search draws each path once, as far as its highest
    threshold needs.  An evaluation sums the stopping times in replication
    order and stops as soon as the partial sum puts the mean above
    ``gamma`` plus the tolerance: the full mean could only be larger, so
    the search takes the branch a full evaluation would.  Only complete
    estimates enter the monotonicity check and can be accepted.
    """
    gamma = spec.gamma
    tol = spec.relative_tolerance * gamma
    runs = list(_runs(config, spec, "pre", _STREAM_ARL))  # one path each, for the whole search
    evaluations: dict[float, PerformanceEstimate] = {}

    def arl_at(threshold: float) -> PerformanceEstimate | None:
        # bracketing evaluations tolerate capped runs (a cap-heavy estimate
        # just means "far above gamma", which is useful bracket information);
        # only the accepted solution is held to the strict cap contract.
        # None means the partial sum already put the mean above gamma + tol.
        est = evaluations.get(threshold)
        if est is None:
            est = _evaluate(runs, spec, "arl", threshold, lambda mean: mean - gamma > tol)
            if est is not None:
                evaluations[threshold] = est
                _check_monotone(evaluations)
        return est

    def within(est: PerformanceEstimate | None) -> bool:
        return est is not None and abs(est.value - gamma) <= tol

    def below(est: PerformanceEstimate | None) -> bool:
        return est is not None and est.value < gamma

    def accept(threshold: float, est: PerformanceEstimate):
        if est.cap_hits > 0.01 * spec.replications:
            raise CalibrationError(
                f"{est.cap_hits}/{spec.replications} runs still hit the "
                f"{spec.run_cap}-step cap at the accepted threshold"
            )
        return threshold, est

    hi = math.log(gamma) if config.kind == "cusum" else gamma
    est = arl_at(hi)
    if within(est):
        return accept(hi, est)
    expansions = 0
    while below(est):
        expansions += 1
        if expansions > 60:
            raise CalibrationError("no upper bracket found after 60 doublings")
        hi *= 2.0
        est = arl_at(hi)
        if within(est):
            return accept(hi, est)
    lo = hi / 2.0
    est = arl_at(lo)
    while not below(est):
        if within(est):
            return accept(lo, est)
        lo /= 2.0
        if lo < 1e-12:
            raise CalibrationError("no lower bracket found above 1e-12")
        est = arl_at(lo)
    for _ in range(spec.max_iterations):
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        est = arl_at(mid)
        if within(est):
            return accept(mid, est)
        if below(est):
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

"""Monte Carlo calibration: ARL/delay estimation and threshold solving.

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
    regime; doubling it must move the estimate by less than
    ``2 * hypot(se_nu, se_2nu)``, and this is checked on every call.  The
    two estimates share their draws and are strongly correlated, so
    ``hypot(se_nu, se_2nu)`` is about twice the standard error of their
    difference, and the bound about four of those standard errors.

All estimators draw each replication from its own generator keyed by
``(seed, estimator, replication index)``, so repeated calls with different
thresholds reuse the same observation paths (common random numbers).
Stopping times are then pathwise nondecreasing in the threshold, so the
Monte Carlo ARL is a nondecreasing step function of it, and
:func:`solve_threshold` reads the threshold off that whole curve.  The
generators of a call, or of one group of ``_ROWS`` replications (``8 * _ROWS``
for the STADD pre-change walk), are seeded together in one array pass
(:func:`quickdetect._rand.substream`).

A fresh-start path (ARL, SADD, and STADD after the change) does not depend
on the threshold at all: the stopping time at ``h`` is one plus the number
of steps whose running maximum is below ``h``.  One store of runs serves
every estimator.  It keeps one record, sorted by height, of how many steps
each run spent at each running maximum; a stopping time is one prefix sum of
it, and the record summed in height order bounds the ARL curve at every
threshold at once (the threshold solve reads it every round once it sums to
``gamma`` per run).  A path is drawn only as far as the thresholds asked, or
the curve's steps next to ``gamma``, need.  The STADD pre-change walk
restarts after every alarm, so it depends on the threshold and is run per
call, but its draws do not: one call of :func:`estimate_stadd` takes every
detector that reads one model and one score, draws each replication's
pre-change stream once, and steps each detector, with its restarts,
through the same increments.  The walk to ``nu`` is the first half of the
walk to ``2 * nu``, and one post-change stream per replication serves both
change points of a detector.

One loop, :func:`_fresh_start_times`, reads every stopping time at one
threshold bar the solve's: ARL and SADD runs start from zero, and STADD's
post-change runs from each detector's states at ``nu`` and ``2 * nu``.  It
builds one store per group of at most ``_ROWS`` replications and returns
the per-replication times in replication order.  A store's first round is
``_BLOCK // 8`` steps when the median stopping time of the store before lay
within that many, else a whole ``_BLOCK``: a call whose runs alarm within a
few steps then draws little past them.

Every run is capped at ``100 * gamma`` steps; capped replications are
counted at the cap and reported, and more than 1% of them fails any estimate.

The paths are evaluated by the CUSUM and Shiryaev-Roberts kernels of
:mod:`quickdetect.detect`, round by round as the observations are drawn,
at most ``_ROWS`` replications at a time as the rows of one array (the
STADD pre-change walk steps ``8 * _ROWS`` rows a column at a time): each
row still draws from its own generator, so the draws, and every stopping
time, are those of a replication run alone, and the stopping times are
averaged in replication order.  A generator yields the same normals however
its stream is split into draws and the kernels carry each run's state
across rounds, so where a round ends, or whether the walk steps or the
kernels evaluate a path, moves a stopping time only if a path value lies
within an ulp of the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rand import _ROWS, check_integer, mean_se, row_chunks, substream
from .detect import KINDS, _BLOCK, _path, _step_with_resets, check_threshold
from .models import GaussianChangeModel, ScoreParams, linear_quadratic_score, llr

_STREAM_ARL = 11
_STREAM_SADD = 12
_STREAM_STADD_PRE = 13
_STREAM_STADD_POST = 14
#: the farthest the ARL of a solved threshold may lie from gamma, as a share of it
_MISS = 0.02


class CalibrationError(RuntimeError):
    """A Monte Carlo estimate or threshold search failed its contract."""


@dataclass(frozen=True)
class CalibrationSpec:
    """Target false-alarm level and Monte Carlo budget."""

    gamma: float
    replications: int = 10_000
    seed: int = 0
    nu_stationary: int = 1_000

    def __post_init__(self) -> None:
        for name in ("replications", "seed", "nu_stationary"):
            check_integer(name, getattr(self, name))
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if self.replications < 2:
            raise ValueError("need at least two replications")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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

    ``model`` always generates the observations.  Without ``score`` the
    increments are the model's log-likelihood ratio; with it, observations
    are standardized by the pre-change moments and fed to that
    linear-quadratic score.  The estimators pass :meth:`log_increments`
    ``(rows, block)`` arrays, one row per replication.
    """

    kind: str
    model: GaussianChangeModel
    score: ScoreParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    def log_increments(self, x: np.ndarray) -> np.ndarray:
        """Map raw observations to log-scale detector increments."""
        if self.score is None:
            return llr(self.model, x)
        standardized = (np.asarray(x, dtype=float) - self.model.mu_pre) / self.model.sigma_pre
        return linear_quadratic_score(self.score, standardized)

    def sample(self, rng: np.random.Generator, n: int, regime: str) -> np.ndarray:
        if regime == "pre":
            return rng.normal(self.model.mu_pre, self.model.sigma_pre, n)
        if regime == "post":
            return rng.normal(self.model.mu_post, self.model.sigma_post, n)
        raise ValueError(f"regime must be 'pre' or 'post', got {regime!r}")


class _Runs:
    """Fresh-start runs that share the draws of their rows, drawn only as far as queries need.

    Run ``s * rows + i`` starts from ``states[s, i]`` and reads the draws of
    ``rngs[i]``; ``states`` is ``(starts, rows)``, or ``(rows,)`` for one
    start.  Under common random numbers one path answers every threshold:
    the stopping time at ``h`` is one plus the number of steps whose running
    maximum is below ``h``.  The store keeps each run's state and running
    maximum ``top``, each row's count of steps drawn, and one record, sorted
    by height, of ``(height, run, weight)``: ``weight`` of the run's steps
    numbered below the cap, all in one round, had running maximum
    ``height``.  Rows are drawn in rounds of ``_BLOCK`` steps, bar a first
    round of ``first`` steps, which moves no stopping time bar a path value
    within an ulp of a threshold (see the module docstring).
    """

    def __init__(
        self,
        config: DetectorConfig,
        regime: str,
        cap: int,
        rngs: list[np.random.Generator],
        states: np.ndarray,
        first: int = _BLOCK,
    ) -> None:
        self.config = config
        self.first = first
        self.regime = regime
        self.cap = cap
        self.rngs = rngs
        self.shape = np.shape(states)
        self.state = np.array(states, dtype=float).ravel()
        self.top = np.full(self.state.size, -np.inf)
        self.row = np.arange(self.state.size) % len(rngs)
        self.drawn = np.zeros(len(rngs), dtype=np.int64)
        # a stretch lies within one round, so its weight fits in 16 bits
        self.entries = (np.empty(0), np.empty(0, np.int32), np.empty(0, np.int16))
        self.pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def open(self) -> np.ndarray:
        """The mask of runs not yet drawn to the cap."""
        return self.drawn[self.row] < self.cap

    def lower_total(self) -> int:
        """The record's total weight plus one per run: a lower bound on the total stopping time."""
        return int(np.minimum(self.drawn[self.row], self.cap - 1).sum()) + self.state.size

    def record(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Heights, runs and weights, ascending in height, with every round drawn so far."""
        if self.pending:  # new entries sort in once per read
            joined = tuple(map(np.concatenate, zip(self.entries, *self.pending)))
            self.pending.clear()
            order = np.argsort(joined[0], kind="stable")
            self.entries = tuple(column[order] for column in joined)
        return self.entries

    def draw(self, runs: np.ndarray) -> None:
        """One round for every row with a run in the mask ``runs``, ``_ROWS`` rows per array."""
        # the rows in order, as np.unique would give them without loading numpy.ma
        rows = np.flatnonzero(runs.reshape(-1, self.drawn.size).any(axis=0))
        for lo in range(0, rows.size, _ROWS):
            self._advance(rows[lo : lo + _ROWS])

    def stop_times(self, threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """Steps to each run's first alarm at ``threshold``, and the mask of capped runs.

        Both are shaped like ``states``; a capped run counts ``cap`` steps.  Rows
        with a run short of ``threshold`` and of the cap are drawn round by
        round; then a run's stopping time is one plus its weights at heights
        below ``threshold``, one prefix of the record.
        """
        while (going := (self.top < threshold) & self.open()).any():
            self.draw(going)
        height, run, weight = self.record()
        below = np.searchsorted(height, threshold)
        times = 1 + np.bincount(run[:below], weight[:below], self.state.size).astype(np.int64)
        return times.reshape(self.shape), (self.top < threshold).reshape(self.shape)

    def _advance(self, rows: np.ndarray) -> None:
        """Draw one round (``_BLOCK`` steps, ``first`` for the store's first) for each of ``rows``.

        Of a round that overruns the cap, steps past it enter neither the
        record nor ``top``, and step ``cap`` enters only ``top``.
        """
        width = _BLOCK if self.drawn[rows].any() else self.first
        z = _draw(self.config, [self.rngs[i] for i in rows], width, self.regime)
        starts = self.state.size // self.drawn.size
        runs = (np.arange(starts)[:, None] * self.drawn.size + rows).ravel()
        path = _path(self.config.kind, self.state[runs], np.tile(z, (starts, 1)))
        self.state[runs] = path[:, -1]
        left = self.cap - self.drawn[self.row[runs]]
        end = np.minimum(left - 1, width)  # columns of the steps numbered below the cap
        near_cap = left.min() <= width
        if near_cap:
            path[np.arange(width) >= left[:, None]] = np.nan  # fmax skips NaN
        ahead = np.fmax(self.top[runs, None], np.fmax.accumulate(path, axis=1))
        # a stretch at one running maximum starts at the round's first step
        # and at each strict new maximum
        start = np.empty(path.shape, dtype=bool)
        start[:, 0] = True
        np.greater(ahead[:, 1:], ahead[:, :-1], out=start[:, 1:])
        if near_cap:
            start &= np.arange(width) < end[:, None]
        at = np.flatnonzero(start)
        r = at // width
        # a stretch ends where the next starts, or at its row's end
        stop = np.minimum(np.append(at[1:], start.size), r * width + end[r])
        # kept at the record's widths: the first read merges several rounds at once
        stretch = (ahead.ravel()[at], runs[r].astype(np.int32), (stop - at).astype(np.int16))
        self.pending.append(stretch)
        self.top[runs] = ahead[:, -1]
        self.drawn[rows] += width


def _estimate(
    metric: str, threshold: float, times: np.ndarray, capped: np.ndarray, cap: int
) -> PerformanceEstimate:
    """The mean of ``times`` with its standard error; fails if more than 1% of runs were capped."""
    hits = int(capped.sum())
    if hits > 0.01 * times.size:
        raise CalibrationError(
            f"{hits}/{times.size} runs hit the {cap}-step cap estimating {metric.upper()} "
            f"at threshold {threshold:.6g}; at most 1% may"
        )
    value, se = mean_se(times)
    return PerformanceEstimate(metric, value, se, times.size, threshold, hits)


def _draw(
    config: DetectorConfig, rngs: list[np.random.Generator], n: int, regime: str
) -> np.ndarray:
    """The next ``n`` log increments of each generator's stream, as rows."""
    return config.log_increments(np.array([config.sample(rng, n, regime) for rng in rngs]))


def _fresh_start_times(
    config: DetectorConfig,
    threshold: float,
    spec: CalibrationSpec,
    regime: str,
    stream: int,
    states: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stopping times at ``threshold`` of fresh-start runs, and the mask of capped runs.

    Replication ``r`` reads the ``regime`` draws of its generator on
    ``stream`` from each state ``states[..., r]`` (from zero when ``states``
    is None); the results are shaped like ``states``.  The replications run
    in stores of at most ``_ROWS``.  They are alike, so the store before
    predicts this one's first round (see the module docstring): a short one
    saves most of a block when most runs alarm within it, and would add a
    round when they do not.
    """
    check_threshold(threshold)
    times, capped, first = [], [], _BLOCK
    for rows in row_chunks(spec.replications):
        rngs = substream(spec.seed, stream, rows)
        start = np.zeros(len(rows)) if states is None else states[..., rows.start : rows.stop]
        t, c = _Runs(config, regime, spec.run_cap, rngs, start, first).stop_times(threshold)
        times.append(t)
        capped.append(c)
        # the median is the mean of the middle two (np.median would load numpy.ma)
        middle = np.sort(t, axis=None)[[(t.size - 1) // 2, t.size // 2]]
        first = _BLOCK // 8 if middle.sum() <= 2 * (_BLOCK // 8) else _BLOCK
    return np.concatenate(times, axis=-1), np.concatenate(capped, axis=-1)


def estimate_arl(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Mean time to false alarm (pre-change data only) with standard error.

    Capped replications enter at the cap value and are reported via
    ``cap_hits`` rather than silently dropped.
    """
    times = _fresh_start_times(config, threshold, spec, "pre", _STREAM_ARL)
    return _estimate("arl", threshold, *times, spec.run_cap)


def estimate_sadd(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Worst-case mean detection delay: change in force from the first step."""
    times = _fresh_start_times(config, threshold, spec, "post", _STREAM_SADD)
    return _estimate("sadd", threshold, *times, spec.run_cap)


def _stadd_delays(
    configs: Sequence[DetectorConfig], thresholds: Sequence[float], spec: CalibrationSpec
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Delays after a change at ``nu`` and at ``2 * nu``, per detector, for every replication.

    The pre-change walks, with restarts, run ``8 * _ROWS`` replications at a
    time as the rows of one array, each once to ``2 * nu``.  Every row draws
    ``_BLOCK`` steps at a time, the steps a walk to either change point
    uses, ``_ROWS`` rows per draw into one block, once for all detectors:
    they share one model and one score, so the first one's increments are
    every one's.  Each detector steps all rows through the block a column
    at a time (:func:`quickdetect.detect._step_with_resets`), the round
    holding ``nu`` cut there for the states at ``nu``.  Both states of a
    replication then read its one post-change stream, in one
    :func:`_fresh_start_times` call per detector.  Returns, per detector,
    delays and capped masks of shape ``(2, replications)``.
    """
    nu, n, wide = spec.nu_stationary, spec.replications, 8 * _ROWS
    block = np.empty((min(n, wide), _BLOCK))
    states = np.empty((len(configs), 2, n))
    for start in range(0, n, wide):
        rows = range(start, min(start + wide, n))
        pre = substream(spec.seed, _STREAM_STADD_PRE, rows)
        state = np.zeros((len(configs), len(rows)))
        for lo in range(0, 2 * nu, _BLOCK):
            width = min(_BLOCK, 2 * nu - lo)
            z = block[: len(rows), :width]
            for i in range(0, len(rows), _ROWS):
                z[i : i + _ROWS] = _draw(configs[0], pre[i : i + _ROWS], width, "pre")
            cuts = (0, nu - lo, width) if lo < nu < lo + width else (0, width)
            for a, b in zip(cuts, cuts[1:]):
                for k, (config, threshold) in enumerate(zip(configs, thresholds)):
                    _step_with_resets(config.kind, state[k], z[:, a:b], threshold)
                if lo + b == nu:
                    states[:, 0, rows.start : rows.stop] = state
        states[:, 1, rows.start : rows.stop] = state

    return [
        _fresh_start_times(config, threshold, spec, "post", _STREAM_STADD_POST, walked)
        for config, threshold, walked in zip(configs, thresholds, states)
    ]


def estimate_stadd(
    configs: Sequence[DetectorConfig], thresholds: Sequence[float], spec: CalibrationSpec
) -> list[PerformanceEstimate]:
    """Stationary (multi-cyclic) mean detection delay at ``nu_stationary``, one per detector.

    ``configs[k]`` runs at ``thresholds[k]``, and the estimates come back in
    that order; one detector is the one-element call.  The detectors must
    share one model and one score (``ValueError`` otherwise): each
    replication's pre-change walk is drawn once and every detector runs its
    own restarts on it, so two kinds cost one walk's draws and compare on
    common random numbers.  Each detector's change index must be deep in the
    stationary regime: its estimate at ``2 * nu_stationary`` must agree
    within ``2 * hypot(se_nu, se_2nu)``, otherwise the call fails naming the
    kind.  The two estimates share their draws, since each replication's
    walk to ``nu`` is the first half of its walk to ``2 * nu`` and its
    post-change draws serve both (see :func:`_stadd_delays`), so that
    ``hypot`` is about twice the standard error of their difference, not one
    such error.
    """
    if len(configs) != len(thresholds) or not configs:
        raise ValueError("give one threshold per detector, and at least one detector")
    for threshold in thresholds:
        check_threshold(threshold)
    first = configs[0]
    if any(
        (type(c), c.model, c.score) != (type(first), first.model, first.score) for c in configs
    ):
        raise ValueError("the detectors of one stationary-delay call must share one model and score")
    estimates = []
    for config, threshold, (delays, capped) in zip(
        configs, thresholds, _stadd_delays(configs, thresholds, spec)
    ):
        est, check = (
            _estimate("stadd", threshold, *run, spec.run_cap) for run in zip(delays, capped)
        )
        spread = 2.0 * math.hypot(est.std_error, check.std_error)
        if abs(est.value - check.value) >= max(spread, 1e-12):
            raise CalibrationError(
                f"{config.kind} stationarity check failed: delay {est.value:.4f} at "
                f"nu={spec.nu_stationary} vs {check.value:.4f} at twice that "
                f"(allowed spread {spread:.4f}); increase nu_stationary"
            )
        estimates.append(est)
    return estimates


def solve_threshold(
    config: DetectorConfig, spec: CalibrationSpec
) -> tuple[float, PerformanceEstimate]:
    """The threshold whose Monte Carlo ARL is nearest ``gamma``, read off the whole ARL curve.

    Under common random numbers the Monte Carlo ARL is a nondecreasing step
    function of the threshold, stepping up at each height of the store's
    record.  The record's weights summed in height order bound it from below
    at every height at once: a run still short of a height counts its drawn
    steps plus one.  Let ``reach`` be the least height where that bound
    reaches ``gamma``: infinite until its total reaches ``gamma`` per run,
    then read every round.  Each round draws every run short of ``min(reach,
    h0)``, where ``h0`` (``log gamma`` for CUSUM, ``gamma`` for SR, where
    theory puts an exact-likelihood detector's ARL at gamma or above) counts
    only while some run is short of it.  Once no run is short of ``reach``,
    the bound is the ARL on both steps next to ``gamma``, and the threshold
    is the geometric midpoint of the one whose ARL is nearest (of those with
    a positive lower end).  It fails if the ARL at every positive threshold
    is already ``gamma`` or more, if more than 1% of runs hit the cap at the
    threshold (as every estimator does), or if its ARL misses ``gamma`` by
    more than ``_MISS`` of it.
    """
    gamma, n = spec.gamma, spec.replications
    rngs = substream(spec.seed, _STREAM_ARL, range(n))
    runs = _Runs(config, "pre", spec.run_cap, rngs, np.zeros(n))
    h0 = math.log(gamma) if config.kind == "cusum" else gamma
    target, reach = gamma * n, math.inf
    while True:
        open_ = runs.open()
        if runs.lower_total() >= target:
            height, _, weight = runs.record()
            total = n + np.cumsum(weight, dtype=np.int64)
            reach = float(height[np.searchsorted(total, target)])
        short = open_ & (runs.top <= reach)
        if reach < math.inf and not short.any():
            break
        short_of_h0 = open_ & (runs.top <= h0)
        runs.draw(short_of_h0 if h0 < reach and short_of_h0.any() else short)
    lo, hi = np.searchsorted(height, reach, "left"), np.searchsorted(height, reach, "right")
    # (lower end, upper end, n times the ARL) of the steps just below and above reach
    below = (height[lo - 1] if lo else -math.inf, reach, total[lo - 1] if lo else n)
    above = (reach, height[hi] if hi < height.size else math.inf, total[hi - 1])
    if reach <= 0.0:
        raise CalibrationError(
            f"gamma={gamma:g} is below every ARL this detector reaches: at every "
            f"positive threshold the ARL is at least {above[2] / n:.6g}"
        )
    a, b, _ = min((s for s in (below, above) if s[0] > 0.0), key=lambda s: abs(s[2] - target))
    threshold = min(max(math.sqrt(a) * math.sqrt(b), math.nextafter(a, math.inf)), b)
    est = _estimate("arl", threshold, *runs.stop_times(threshold), spec.run_cap)
    if abs(est.value - gamma) > _MISS * gamma:
        raise CalibrationError(
            f"no threshold puts the ARL within {_MISS:.0%} of gamma={gamma:g}: the nearest "
            f"step, thresholds ({a:.6g}, {b:.6g}], has ARL {est.value:.6g}"
        )
    return threshold, est

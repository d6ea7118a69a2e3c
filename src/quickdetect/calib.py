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
    regime; doubling it must move the estimate by less than
    ``2 * hypot(se_nu, se_2nu)``, and this is checked on every call.  The
    two estimates share their draws and are strongly correlated, so
    ``hypot(se_nu, se_2nu)`` is about twice the standard error of their
    difference, and the bound about four of those standard errors.

All estimators draw each replication from its own generator keyed by
``(seed, estimator, replication index)``, so repeated calls with different
thresholds reuse the same observation paths (common random numbers).
Stopping times are then pathwise nondecreasing in the threshold, which makes
the bisection in :func:`solve_threshold` exact apart from Monte Carlo noise
shared across iterations.  The generators of a call, or of one run of
``_ROWS`` replications, are seeded together in one array pass
(:func:`quickdetect._rand.substream`).

A fresh-start path (ARL, SADD, and STADD after the change) does not
depend on the threshold at all: the stopping time at ``h`` is the first step
at which the path's running maximum reaches ``h``.  One store of runs serves
every estimator.  It keeps each run's ladder record, the steps and heights
of its strict new maxima, and a stopping time is a lookup in that record;
a path is drawn only as far as the thresholds asked need.
:func:`solve_threshold` asks one store many thresholds, so it draws each
path once for the whole search.  The one-shot estimators
(:func:`estimate_arl`, :func:`estimate_sadd`) ask one threshold of a store
per run of ``_ROWS`` replications.  The STADD pre-change walk restarts
after every alarm, so it depends on the threshold and is drawn per call;
the walk to ``nu`` is the first half of the walk to ``2 * nu``, and one
post-change stream per replication serves both change points.

Every run is capped at ``100 * gamma`` steps; capped replications are
counted at the cap and reported, and more than 1% of them is an error.

The paths are evaluated by the CUSUM and Shiryaev-Roberts kernels of
:mod:`quickdetect.detect`, round by round as the observations are drawn,
at most ``_ROWS`` replications at a time as the rows of one array: each
row still draws from its own generator, so the draws, and every stopping
time, are those of a replication run alone, and the stopping times are
averaged in replication order.  A round is one ``_BLOCK`` of steps, but
the estimators that build a store per run of ``_ROWS`` replications (ARL,
SADD, and STADD after the change) draw a first round of ``_BLOCK // 8``
when the median stopping time of the run before lay within that many steps:
a call whose runs alarm within a few steps then draws little past them,
and one whose runs are longer draws whole blocks, as its first run does.  A
generator yields the same normals however its stream is split into draws
and the kernels carry each run's state across rounds, so where a round
ends moves a stopping time only if a path value lies within an ulp of the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rand import _ROWS, mean_se, row_chunks, substream
from .detect import KINDS, MODES, _BLOCK, _advance_with_resets, _path, check_threshold
from .models import GaussianChangeModel, ScoreParams, linear_quadratic_score, llr

_STREAM_ARL = 11
_STREAM_SADD = 12
_STREAM_STADD_PRE = 13
_STREAM_STADD_POST = 14
#: bisection steps before the search gives up: forty halvings shrink the log
#: bracket below 1e-10, finer than the steps of the ARL under common random
#: numbers, so more cannot land closer to gamma
_BISECTIONS = 40


class CalibrationError(RuntimeError):
    """A Monte Carlo estimate or threshold search failed its contract."""


@dataclass(frozen=True)
class CalibrationSpec:
    """Target false-alarm level and Monte Carlo budget."""

    gamma: float
    replications: int = 10_000
    seed: int = 0
    relative_tolerance: float = 0.02
    nu_stationary: int = 1_000

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if self.replications < 2:
            raise ValueError("need at least two replications")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.relative_tolerance < 1.0:
            raise ValueError("relative_tolerance must lie in (0, 1)")
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
    score.  The estimators pass :meth:`log_increments` ``(rows, block)``
    arrays, one row per replication.
    """

    kind: str
    model: GaussianChangeModel
    mode: str = "exact"
    score: ScoreParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "score":
            if self.score is None:
                raise ValueError("score mode needs score parameters")
            if self.score.is_degenerate:
                raise ValueError("refusing to run an identically-zero score")

    def log_increments(self, x: np.ndarray) -> np.ndarray:
        """Map raw observations to log-scale detector increments."""
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


class _Runs:
    """Fresh-start runs that share the draws of their rows, drawn only as far as queries need.

    Run ``s * rows + i`` starts from ``states[s, i]`` and reads the draws of
    ``rngs[i]``; ``states`` is ``(starts, rows)``, or ``(rows,)`` for one
    start.  Under common random numbers a run's path does not depend on the
    threshold, so one path answers every threshold: the stopping time at
    ``h`` is the first step whose value reaches ``h``, which is always a
    strict new maximum.  The store keeps each run's state and running
    maximum ``top``, each row's count of steps drawn, and one flat ladder
    record of (run, step, height) for every strict new maximum up to the cap.
    Rows are drawn in rounds of ``_BLOCK`` steps, bar a first round of
    ``first`` steps.  A round's width moves no stopping time, bar a path
    value within an ulp of a threshold (see the module docstring).
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
        self.record = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        self.pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def stop_times(
        self, threshold: float, give_up: Callable[[float], bool] | None = None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Steps to each run's first alarm at ``threshold``, and the mask of capped runs.

        Both are shaped like ``states``; a capped run counts ``cap`` steps.  Each
        round draws the next steps of every row with a run short of ``threshold``
        and of the cap, ``_ROWS`` rows per array (see :meth:`_advance` for how
        many).  With ``give_up``, None is returned once ``give_up`` holds for a
        lower bound on the mean: after each round a run still going counts its
        drawn steps plus one (at most ``cap``) and any other run one, a bound
        for rounds of any width; at the end, the exact mean.
        """
        n = self.state.size
        while True:
            steps = self.drawn[self.row]
            going = self.top < threshold
            if give_up is not None and give_up(
                (int(np.minimum(steps[going], self.cap - 1).sum()) + n) / n
            ):
                return None
            rows = np.unique(self.row[going & (steps < self.cap)])
            if not rows.size:
                break
            for lo in range(0, rows.size, _ROWS):
                self._advance(rows[lo : lo + _ROWS])
        if self.pending:  # one concatenation per query
            self.record = tuple(map(np.concatenate, zip(self.record, *self.pending)))
            self.pending.clear()
        run, step, height = self.record
        hit = height >= threshold
        alarmed, first = np.unique(run[hit], return_index=True)
        times = np.full(n, self.cap, dtype=np.int64)
        times[alarmed] = step[hit][first]
        capped = np.ones(n, dtype=bool)
        capped[alarmed] = False
        if give_up is not None and give_up(int(times.sum()) / n):
            return None
        return times.reshape(self.shape), capped.reshape(self.shape)

    def _advance(self, rows: np.ndarray) -> None:
        """Draw one round for each of ``rows`` and advance every run of theirs.

        A round is ``_BLOCK`` steps, or ``first`` for the store's first.  A
        round that overruns the cap moves no stopping time: its steps past
        the cap enter neither the record nor ``top``.
        """
        width = _BLOCK if self.drawn[rows].any() else self.first
        z = _draw(self.config, [self.rngs[i] for i in rows], width, self.regime)
        starts = self.state.size // self.drawn.size
        runs = (np.arange(starts)[:, None] * self.drawn.size + rows).ravel()
        path = _path(self.config.kind, self.state[runs], np.tile(z, (starts, 1)))
        self.state[runs] = path[:, -1]
        steps = self.drawn[self.row[runs]]
        left = self.cap - steps
        if left.min() < width:
            path[np.arange(width) >= left[:, None]] = np.nan  # fmax skips NaN
        top = self.top[runs]
        ahead = np.fmax(top[:, None], np.fmax.accumulate(path, axis=1))
        new = np.empty(path.shape, dtype=bool)
        new[:, 0] = path[:, 0] > top
        np.greater(path[:, 1:], ahead[:, :-1], out=new[:, 1:])
        r, c = np.nonzero(new)
        self.pending.append((runs[r], steps[r] + c + 1, path[r, c]))
        self.top[runs] = ahead[:, -1]
        self.drawn[rows] += width


def _estimate(
    metric: str, threshold: float, times: np.ndarray, capped: np.ndarray
) -> PerformanceEstimate:
    value, se = mean_se(times)
    return PerformanceEstimate(metric, value, se, times.size, threshold, int(capped.sum()))


def _by_chunks(
    spec: CalibrationSpec, simulate: Callable[[range, int], tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """``simulate(rows, first)`` on runs of at most ``_ROWS`` replications, joined in order.

    ``first`` is the first-round width of the run's store of runs: ``_BLOCK // 8``
    if the median stopping time of the run before it is at most that, else
    (and for the first run) ``_BLOCK``.  The replications are alike, so the
    run before predicts this one: a short first round saves most of a block
    when most runs alarm within it, and would add a round when they do not.
    """
    times, capped, first = [], [], _BLOCK
    for rows in row_chunks(spec.replications):
        t, c = simulate(rows, first)
        times.append(t)
        capped.append(c)
        first = _BLOCK // 8 if np.median(t) <= _BLOCK // 8 else _BLOCK
    return np.concatenate(times, axis=-1), np.concatenate(capped, axis=-1)


def _draw(
    config: DetectorConfig, rngs: list[np.random.Generator], n: int, regime: str
) -> np.ndarray:
    """The next ``n`` log increments of each generator's stream, as rows."""
    return config.log_increments(np.array([config.sample(rng, n, regime) for rng in rngs]))


def _fresh_start_estimate(
    config: DetectorConfig,
    threshold: float,
    spec: CalibrationSpec,
    metric: str,
    regime: str,
    stream: int,
) -> PerformanceEstimate:
    check_threshold(threshold)

    def simulate(rows: range, first: int) -> tuple[np.ndarray, np.ndarray]:
        rngs = substream(spec.seed, stream, rows)
        runs = _Runs(config, regime, spec.run_cap, rngs, np.zeros(len(rows)), first)
        return runs.stop_times(threshold)

    est = _estimate(metric, threshold, *_by_chunks(spec, simulate))
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
    config: DetectorConfig,
    threshold: float,
    spec: CalibrationSpec,
    rows: range,
    first: int = _BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Delays after a change at ``nu`` and at ``2 * nu``, for a run of rows.

    Each row's pre-change walk, with restarts, goes once to ``2 * nu`` in
    ``_BLOCK``-aligned blocks, the blocks a walk to either change point
    uses; the block holding ``nu`` is also evaluated up to ``nu`` for the
    state there.  Both states then read the row's one post-change stream,
    whose first round is ``first`` steps.  Returns delays and capped masks
    of shape ``(2, len(rows))``.
    """
    nu = spec.nu_stationary
    pre = substream(spec.seed, _STREAM_STADD_PRE, rows)
    post = substream(spec.seed, _STREAM_STADD_POST, rows)
    state = np.zeros(len(rows))
    at_nu = state
    for lo in range(0, 2 * nu, _BLOCK):
        z = _draw(config, pre, min(_BLOCK, 2 * nu - lo), "pre")
        if lo < nu < lo + z.shape[1]:
            at_nu, _ = _advance_with_resets(config.kind, state, z[:, : nu - lo], threshold)
        state, _ = _advance_with_resets(config.kind, state, z, threshold)
        if lo + z.shape[1] == nu:
            at_nu = state
    runs = _Runs(config, "post", spec.run_cap, post, np.stack([at_nu, state]), first)
    return runs.stop_times(threshold)


def estimate_stadd(
    config: DetectorConfig, threshold: float, spec: CalibrationSpec
) -> PerformanceEstimate:
    """Stationary (multi-cyclic) mean detection delay at ``nu_stationary``.

    The change index must be deep in the stationary regime: the estimate at
    ``2 * nu_stationary`` must agree within ``2 * hypot(se_nu, se_2nu)``,
    otherwise the call fails.  As the two estimates share their draws, that
    ``hypot`` is about twice the standard error of their difference, not one
    such error.  Both estimates read the same streams, so each replication's
    walk to ``nu`` is the first half of its walk to ``2 * nu`` and its
    post-change draws serve both: the two post-change runs of a replication
    are one row of a store of runs.  Replications are simulated together in
    runs of ``_ROWS`` rows.
    """
    check_threshold(threshold)
    delays, capped = _by_chunks(spec, lambda *run: _stadd_delays(config, threshold, spec, *run))
    est, check = (_estimate("stadd", threshold, d, c) for d, c in zip(delays, capped))
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

    Every evaluation reads the same store of runs, one per replication, so
    the search draws each path once, as far as its highest threshold needs.
    An evaluation draws a block of every row still short of the threshold
    per round, ``_ROWS`` rows per array, so all rows advance in lockstep.
    After each round it bounds the total steps from below and stops as
    soon as that bound puts the mean above ``gamma`` plus the tolerance:
    the full mean could only be larger, so the search takes the branch a
    full evaluation would.  Only complete estimates enter the monotonicity
    check and can be accepted.
    """
    gamma = spec.gamma
    tol = spec.relative_tolerance * gamma
    rngs = substream(spec.seed, _STREAM_ARL, range(spec.replications))
    runs = _Runs(config, "pre", spec.run_cap, rngs, np.zeros(spec.replications))
    evaluations: dict[float, PerformanceEstimate] = {}

    def arl_at(threshold: float) -> PerformanceEstimate | None:
        # bracketing evaluations tolerate capped runs (a cap-heavy estimate
        # just means "far above gamma", which is useful bracket information);
        # only the accepted solution is held to the strict cap contract.
        # None means the partial sum already put the mean above gamma + tol.
        est = evaluations.get(threshold)
        if est is None:
            answer = runs.stop_times(threshold, lambda mean: mean - gamma > tol)
            if answer is not None:
                est = _estimate("arl", threshold, *answer)
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
        if lo / 2.0 < 1e-12:
            raise CalibrationError(
                f"gamma={gamma:g} is below every ARL this detector reaches: the ARL "
                f"at the lowest threshold tried, {lo:.3g}, is still above it"
            )
        lo /= 2.0
        est = arl_at(lo)
    for _ in range(_BISECTIONS):
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
        f"gamma={gamma} after {_BISECTIONS} bisection steps"
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

"""Offline (retrospective) change-point estimation by mean-split scanning.

For a series of length ``N`` and a candidate split ``1 <= n <= N-1`` the
Brodsky-Darkhovsky statistic compares the two side means on a variance-
stabilizing scale::

    Y(n) = sqrt(n*(N-n)/N^2) * (mean(x[:n]) - mean(x[n:]))

The change-point estimate is the ``n`` maximizing ``|Y(n)|`` (smallest index
on ties).  Exact structure used by the tests: adding a constant leaves ``Y``
unchanged, scaling by ``c > 0`` scales ``Y`` by ``c``, and reversing the
series maps ``Y(n)`` to ``-Y(N-n)``.

Recursive segmentation splits a segment whenever ``max |Y|`` clears a
significance threshold and both children are at least ``min_segment`` long.
When no explicit threshold is given, each segment gets a Monte Carlo null
threshold: the 95th percentile of ``max |Y|`` over synthetic i.i.d. Gaussian
series with that segment's fitted moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import MomentEstimate, estimate_moments, _values_of


@dataclass(frozen=True)
class BDTrace:
    """All split statistics ``Y(1..N-1)`` plus the location of ``max |Y|``."""

    values: np.ndarray
    abs_max_index: int
    abs_max_value: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if not 1 <= self.abs_max_index <= values.size:
            raise ValueError("abs_max_index out of range")

    @property
    def split_indices(self) -> np.ndarray:
        """The candidate splits ``n = 1..N-1`` matching ``values``."""
        return np.arange(1, self.values.size + 1)


@dataclass(frozen=True)
class SegmentDecision:
    """Why a segment was or was not split (half-open bounds into the series)."""

    start: int
    stop: int
    abs_max_value: float
    threshold: float
    split_at: int | None
    reason: str


@dataclass(frozen=True)
class SegmentationResult:
    """Ordered change points, per-segment moments, and the decision log."""

    change_points: tuple[int, ...]
    segments: tuple[MomentEstimate, ...]
    decisions: tuple[SegmentDecision, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "change_points", tuple(self.change_points))
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "decisions", tuple(self.decisions))
        if list(self.change_points) != sorted(set(self.change_points)):
            raise ValueError("change points must be strictly increasing")


def _trace_values(x: np.ndarray) -> np.ndarray:
    n_obs = x.size
    n = np.arange(1, n_obs)
    left_sums = np.cumsum(x)[:-1]
    total = left_sums[-1] + x[-1]
    left_mean = left_sums / n
    right_mean = (total - left_sums) / (n_obs - n)
    return np.sqrt(n * (n_obs - n)) / n_obs * (left_mean - right_mean)


def bd_statistic(series, n: int) -> float:
    """The split statistic ``Y(n)`` comparing the first ``n`` points to the rest."""
    x = _values_of(series)
    if x.size < 2:
        raise ValueError("need at least two observations to split")
    if not 1 <= n <= x.size - 1:
        raise ValueError(f"split {n} must lie in [1, {x.size - 1}]")
    weight = np.sqrt(n * (x.size - n)) / x.size
    return float(weight * (np.mean(x[:n]) - np.mean(x[n:])))


def bd_estimate(series) -> tuple[int, BDTrace]:
    """Most likely single change point: ``argmax |Y(n)|``, smallest index on ties."""
    x = _values_of(series)
    if x.size < 2:
        raise ValueError("need at least two observations to split")
    values = _trace_values(x)
    best = int(np.argmax(np.abs(values)))  # first maximum -> smallest split index
    trace = BDTrace(
        values=values,
        abs_max_index=best + 1,
        abs_max_value=float(np.abs(values[best])),
    )
    return best + 1, trace


def null_threshold(
    length: int, sd: float, seed: int, replications: int = 199, level: float = 0.95
) -> float:
    """Monte Carlo significance threshold for ``max |Y|`` under an i.i.d.

    Gaussian null of the given length and sd.  ``Y`` is location free and
    scale equivariant, so standard normal draws are simulated and the
    order-statistic quantile is scaled by ``sd``.
    """
    if length < 2:
        raise ValueError("need at least two observations")
    if replications < 1:
        raise ValueError("replications must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, length, replications]))
    maxima = np.empty(replications)
    for r in range(replications):
        maxima[r] = np.max(np.abs(_trace_values(rng.standard_normal(length))))
    maxima.sort()
    # conservative ceil((R+1)*level) order statistic
    k = min(replications, int(np.ceil((replications + 1) * level)))
    return float(sd * maxima[k - 1])


def bd_segment(
    series,
    significance_threshold: float | None = None,
    min_segment: int = 30,
    seed: int = 0,
    null_replications: int = 199,
) -> SegmentationResult:
    """Divide-and-conquer segmentation of a series into constant-mean pieces.

    Change points are global split positions ``p`` (the first ``p``
    observations lie left of the change).  Every produced segment is at
    least ``min_segment`` long; an empty change-point list is a valid
    result.  With the default Monte Carlo threshold the procedure is
    deterministic in ``(series, seed)``.
    """
    x = _values_of(series)
    if x.size < 2:
        raise ValueError("need at least two observations to segment")
    if min_segment < 2:
        raise ValueError("min_segment must be at least 2")
    if significance_threshold is not None and significance_threshold <= 0.0:
        raise ValueError("significance_threshold must be positive")
    change_points: list[int] = []
    decisions: list[SegmentDecision] = []

    def recurse(start: int, stop: int) -> None:
        length = stop - start
        if length < 2 * min_segment:
            decisions.append(
                SegmentDecision(
                    start=start,
                    stop=stop,
                    abs_max_value=float("nan"),
                    threshold=float("nan"),
                    split_at=None,
                    reason=f"segment too short to split ({length} < {2 * min_segment})",
                )
            )
            return
        window = x[start:stop]
        values = _trace_values(window)
        best = int(np.argmax(np.abs(values)))
        abs_max = float(np.abs(values[best]))
        if significance_threshold is not None:
            threshold = significance_threshold
        else:
            sd = float(np.std(window, ddof=1))
            threshold = null_threshold(
                length, sd, seed=seed, replications=null_replications
            )
        split = best + 1
        if abs_max <= threshold:
            decisions.append(
                SegmentDecision(
                    start=start,
                    stop=stop,
                    abs_max_value=abs_max,
                    threshold=threshold,
                    split_at=None,
                    reason="max |Y| within the null threshold",
                )
            )
            return
        if split < min_segment or length - split < min_segment:
            decisions.append(
                SegmentDecision(
                    start=start,
                    stop=stop,
                    abs_max_value=abs_max,
                    threshold=threshold,
                    split_at=None,
                    reason=f"split at {start + split} would leave a segment "
                    f"shorter than {min_segment}",
                )
            )
            return
        decisions.append(
            SegmentDecision(
                start=start,
                stop=stop,
                abs_max_value=abs_max,
                threshold=threshold,
                split_at=start + split,
                reason="max |Y| exceeds the null threshold",
            )
        )
        change_points.append(start + split)
        recurse(start, start + split)
        recurse(start + split, stop)

    recurse(0, x.size)
    change_points.sort()
    bounds = [0, *change_points, x.size]
    segments = tuple(
        estimate_moments(series, (a, b)) for a, b in zip(bounds, bounds[1:])
    )
    return SegmentationResult(
        change_points=tuple(change_points),
        segments=segments,
        decisions=tuple(decisions),
    )

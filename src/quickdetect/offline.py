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
series with that segment's fitted moments; its normal draws are most of the cost.
Each replication draws from its own generator, keyed by
``(seed, _STREAM_NULL, length, r)``, so a threshold depends on nothing but
its arguments.  The calling thread and one worker thread each draw and
scan half of every chunk of replications (numpy releases the interpreter
lock in both), so two cores share the work; each thread holds three
series-sized buffers.

The split test compares ``max |Y|`` with that estimate as if it were
exact, so it carries the threshold's Monte Carlo noise: a segment whose
``max |Y|`` lies within the threshold's own spread can split under one
seed and not under another.  On the ``surveil-long`` benchmark series of
seed 8, segment [31118, 46311) has ``max |Y|`` 0.0063563, while its
threshold over 40 null seeds has mean 0.00640 and sd 0.00017.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rand import row_chunks, substream
from .series import MomentEstimate, estimate_moments, _freeze, _values_of

#: the null's stream id in its replication keys ``(seed, _STREAM_NULL, length, r)``
_STREAM_NULL = 21


@dataclass(frozen=True)
class BDTrace:
    """All split statistics ``Y(1..N-1)`` plus the location of ``max |Y|``."""

    values: np.ndarray
    abs_max_index: int
    abs_max_value: float

    def __post_init__(self) -> None:
        values = _freeze(self.values)
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


def _split_sizes(n_obs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left sizes ``n``, right sizes ``N-n`` and weights ``sqrt(n(N-n))/N``, n = 1..N-1."""
    n = np.arange(1, n_obs)
    return n.astype(float), (n_obs - n).astype(float), np.sqrt(n * (n_obs - n)) / n_obs


def _trace_into(x: np.ndarray, sizes, sums: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``Y(1..N-1)`` of ``x`` into ``out``, with ``sums`` (length N) as scratch."""
    left_n, right_n, weight = sizes
    np.cumsum(x, out=sums)
    left_sums = sums[:-1]
    total = left_sums[-1] + x[-1]
    left_mean = np.divide(left_sums, left_n, out=out)
    right_mean = np.divide(np.subtract(total, left_sums, out=left_sums), right_n, out=left_sums)
    return np.multiply(weight, np.subtract(left_mean, right_mean, out=out), out=out)


def _trace_values(x: np.ndarray) -> np.ndarray:
    return _trace_into(x, _split_sizes(x.size), np.empty(x.size), np.empty(x.size - 1))


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
    order-statistic quantile is scaled by ``sd``.  The cost is in the
    ``replications * length`` draws: ``Y`` reuses one set of weights and buffers.

    Replication ``r`` draws its series from the generator of key
    ``(seed, _STREAM_NULL, length, r)``, so its maximum depends on that key
    alone.  Generators are seeded one ``_rand._ROWS`` chunk at a time on this
    thread.  One worker thread draws and scans the first half of each chunk
    while this thread does the second half, each into its own buffers; a
    whole chunk apiece would leave ``199 = 3 * 64 + 7`` replications split
    128 to 71.  The threshold is the same for any thread count or
    scheduling.
    """
    if length < 2:
        raise ValueError("need at least two observations")
    if replications < 1:
        raise ValueError("replications must be positive")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    if not (math.isfinite(sd) and sd >= 0.0):
        raise ValueError(f"sd must be finite and non-negative, got {sd!r}")
    from concurrent.futures import ThreadPoolExecutor

    sizes = _split_sizes(length)
    maxima = np.empty(replications)

    def scan(rngs, buffers, out) -> None:
        draws, sums, values = buffers
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=draws)
            _trace_into(draws, sizes, sums, values)
            out[i] = np.max(np.abs(values, out=values))

    own, theirs = ((np.empty(length), np.empty(length), np.empty(length - 1)) for _ in range(2))
    with ThreadPoolExecutor(max_workers=1) as pool:
        handed = []
        for rows in row_chunks(replications):
            rngs = substream(seed, _STREAM_NULL, rows, (length,))
            half = (len(rngs) + 1) // 2
            mid = rows.start + half
            handed.append(pool.submit(scan, rngs[:half], theirs, maxima[rows.start : mid]))
            scan(rngs[half:], own, maxima[mid : rows.stop])
        for future in handed:
            future.result()
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
    if significance_threshold is not None and not significance_threshold > 0.0:
        raise ValueError("significance_threshold must be positive")
    change_points: list[int] = []
    decisions: list[SegmentDecision] = []

    def recurse(start: int, stop: int) -> None:
        length = stop - start
        abs_max = threshold = float("nan")
        split_at = None
        if length < 2 * min_segment:
            reason = f"segment too short to split ({length} < {2 * min_segment})"
        else:
            window = x[start:stop]
            values = _trace_values(window)
            best = int(np.argmax(np.abs(values)))
            abs_max = float(np.abs(values[best]))
            if significance_threshold is not None:
                threshold = significance_threshold
            else:
                sd = float(np.std(window, ddof=1))
                threshold = null_threshold(length, sd, seed=seed, replications=null_replications)
            split = best + 1
            if abs_max <= threshold:
                reason = "max |Y| within the null threshold"
            elif split < min_segment or length - split < min_segment:
                reason = (
                    f"split at {start + split} would leave a segment shorter than {min_segment}"
                )
            else:
                split_at = start + split
                reason = "max |Y| exceeds the null threshold"
        decisions.append(SegmentDecision(start, stop, abs_max, threshold, split_at, reason))
        if split_at is not None:
            change_points.append(split_at)
            recurse(start, split_at)
            recurse(split_at, stop)

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

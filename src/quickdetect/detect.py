"""CUSUM and Shiryaev-Roberts detectors: single-run and multi-cyclic stopping.

Both detectors consume the same per-observation log increments ``z_n``
(log-likelihood ratios or scores):

* CUSUM keeps a reflected random walk ``W_n = max(0, W_{n-1} + z_n)`` with
  ``W_0 = 0`` and alarms when ``W_n >= h``.
* Shiryaev-Roberts keeps ``R_n = (1 + R_{n-1}) * exp(z_n)`` with ``R_0 = 0``
  and alarms when ``R_n >= A``.  Before the change ``R_n - n`` is a
  zero-mean martingale, which is what drives the false-alarm guarantee
  ``ARL >= A``.

Each recursion is written once, as a kernel that evaluates a whole block of
increments from a starting value (:func:`_cusum_path`, :func:`_sr_path`),
plus one restart loop (:func:`_advance_with_resets`).  They take one row or
many: a ``(rows, n)`` block with one start value per row, evaluated along
the last axis, and a 1-D block is the same code on one row.  The runners
here and the Monte Carlo estimators in :mod:`quickdetect.calib`, which run
replications as rows, share them.

Alarms use ``>=`` at the threshold.  A stream that ends without a crossing
is a valid "no alarm" outcome, not an error.  In a multi-cyclic run the
detector restarts from zero after every alarm; a run's trace is its
per-step statistics, and its alarms are the steps whose statistic reached
the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("cusum", "sr")
MODES = ("exact", "score")

#: log increments are clamped to this magnitude before exponentiation so
#: that ratios stay finite and positive
LLR_CLAMP = 700.0
#: when block exponents stay inside this budget the Shiryaev-Roberts path is
#: evaluated in plain linear arithmetic; otherwise in log space
_LINEAR_GUARD = 300.0
_BLOCK = 256
_FLOAT_MAX = float(np.finfo(float).max)


def check_threshold(threshold: float) -> None:
    """Reject a detector threshold that is not positive and finite."""
    if not (np.isfinite(threshold) and threshold > 0.0):
        raise ValueError("threshold must be positive and finite")


def _col(state) -> np.ndarray:
    """Start values as a column, one per row of a ``(rows, n)`` block."""
    return np.asarray(state, dtype=float)[..., None]


def _cusum_path(w0, z: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """Per-step CUSUM values over a block of each row, starting from ``w0``.

    ``w0`` has shape ``(rows,)`` and ``z`` ``(rows, n)``; a float with a 1-D
    block is one row.  Columns marked in ``skip`` (a prefix of each row) are
    read as zero increments, so a row with ``w0 >= 0`` starts at its first
    unmarked column exactly as a fresh call on the rest of the row would:
    ``0.0 + x == x`` keeps the running sums' bits.
    """
    if skip is not None:
        z = np.where(skip, 0.0, z)
    cs = z.cumsum(axis=-1)
    return np.maximum(_col(w0) + cs, cs - np.minimum.accumulate(cs, axis=-1))


def _sr_path(r0, z: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """Per-step Shiryaev-Roberts values over a block of each row, from ``r0``.

    Shapes and ``skip`` are as for :func:`_cusum_path`; a skipped column
    adds no mass to the sum (``exp(-prev)`` becomes ``0.0``, its log
    ``-inf``, and ``logaddexp(-inf, x) == x``).  A row uses plain linear
    arithmetic when every intermediate exponent is small (this keeps
    integer-valued degenerate cases exact) and an equivalent log-space
    evaluation otherwise; the choice is made per row, by the same test a
    single-row call makes.  Values beyond float range saturate at the
    largest finite float, which still reaches any finite threshold.
    """
    if skip is not None:
        z = np.where(skip, 0.0, z)
    cs = z.cumsum(axis=-1)
    prev = cs - z  # z_{k-1}; prev[..., 0] == 0 exactly
    r0 = np.asarray(r0, dtype=float)
    linear = (
        (cs.max(axis=-1) <= _LINEAR_GUARD)
        & (prev.min(axis=-1) >= -_LINEAR_GUARD)
        & (r0 <= 1e150)
    )
    if linear.all():
        return _sr_linear(r0, cs, prev, skip)
    if not linear.any():
        return _sr_log(r0, cs, prev, skip)
    out = np.empty_like(cs)
    for rows, evaluate in ((linear, _sr_linear), (~linear, _sr_log)):
        out[rows] = evaluate(r0[rows], cs[rows], prev[rows], None if skip is None else skip[rows])
    return out


def _sr_linear(r0, cs, prev, skip) -> np.ndarray:
    # the guard bounds every factor by exp(300) and r0 by 1e150: no overflow
    terms = np.exp(-prev)
    if skip is not None:
        terms[skip] = 0.0
    return np.exp(cs) * (_col(r0) + terms.cumsum(axis=-1))


def _sr_log(r0, cs, prev, skip) -> np.ndarray:
    neg = -prev
    if skip is not None:
        neg[skip] = -np.inf
    # math.log, row by row: these rows are rare, and np.log may round differently
    log_r0 = np.array([math.log(r) if r > 0.0 else -math.inf for r in r0.flat])
    acc = np.logaddexp.accumulate(neg, axis=-1)
    with np.errstate(over="ignore"):
        total = cs + np.logaddexp(_col(log_r0.reshape(r0.shape)), acc)
        return np.minimum(np.exp(total), _FLOAT_MAX)


def _path(kind: str, state, z: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    return (_cusum_path if kind == "cusum" else _sr_path)(state, z, skip)


def _advance_with_resets(
    kind: str,
    state,
    z: np.ndarray,
    threshold: float,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Consume a whole block of each row, restarting a row at every alarm.

    ``state`` has shape ``(rows,)`` and ``z`` ``(rows, n)``; a float with a
    1-D block is one row.  Each pass evaluates every row that has not yet
    reached the block's end, from the earliest restart column on; a row
    that restarted later skips the columns before its restart (see
    :func:`_cusum_path`).  Returns the end states and a boolean mask of the
    steps that alarmed, shaped like ``state`` and ``z``; ``out``, when
    given, receives the per-step statistics and is shaped like ``z``.
    """
    shape = z.shape
    z = z.reshape(-1, shape[-1])
    rows, n = z.shape
    end = np.array(state, dtype=float).reshape(rows)  # a restarted row's is 0.0
    alarmed = np.zeros(z.shape, dtype=bool)
    if out is not None:
        out = out.reshape(z.shape)
    live = np.arange(rows)  # rows still inside the block, in order
    lo, skip = 0, None  # the pass starts at column lo
    while True:
        picked = slice(None) if live.size == rows else live
        path = _path(kind, end[picked], z[picked, lo:], skip)
        if out is not None:
            out[picked, lo:] = path if skip is None else np.where(skip, out[picked, lo:], path)
        end[picked] = path[:, -1]
        hit = path >= threshold  # skipped columns hold 0.0, below any threshold
        if not hit.any():
            break
        found = hit.any(axis=1)
        live, stop = live[found], lo + 1 + hit.argmax(axis=1)[found]
        alarmed[live, stop - 1] = True
        end[live] = 0.0
        going = stop < n
        live, stop = live[going], stop[going]
        if not live.size:
            break
        lo = int(stop.min())
        skip = np.arange(lo, n) < stop[:, None] if stop.max() > lo else None
    return end.reshape(np.shape(state)), alarmed.reshape(shape)


def to_ratios(log_increments) -> np.ndarray:
    """Turn log-likelihood ratios (or scores) into likelihood ratios ``exp(z)``.

    Inputs are clamped to ``+/-LLR_CLAMP`` first so the result is always
    finite and positive.
    """
    arr = np.asarray(log_increments, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("log increments must be finite")
    return np.exp(np.clip(arr, -LLR_CLAMP, LLR_CLAMP))


@dataclass(frozen=True)
class DetectionTrace:
    """Per-step statistic values of a detector run over a stream of log increments.

    A run restarts (or, run singly, stops) at a step exactly when that step's
    statistic reaches the threshold, so the alarms are the steps whose
    statistic is at or above it.
    """

    kind: str
    threshold: float
    statistics: np.ndarray

    def __post_init__(self) -> None:
        stats = np.array(self.statistics, dtype=float)  # a private, frozen copy
        stats.setflags(write=False)
        object.__setattr__(self, "statistics", stats)

    @property
    def increments_consumed(self) -> int:
        return int(self.statistics.size)

    @property
    def alarms(self) -> np.ndarray:
        """Alarm steps, counted from 1 at the start of the stream, in order."""
        return np.flatnonzero(self.statistics >= self.threshold) + 1


def _run(increments, kind: str, threshold: float, first_only: bool) -> np.ndarray:
    """Statistics of a run that restarts after every alarm.

    The stream is consumed in fixed blocks; with ``first_only`` it stops at
    the block holding the first alarm and is cut just after that alarm.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    check_threshold(threshold)
    z = np.asarray(increments, dtype=float)
    if z.ndim != 1:
        raise ValueError("increments must be a 1-D array")
    if z.size == 0:
        raise ValueError("empty increment stream")
    if not np.all(np.isfinite(z)):
        raise ValueError("increments must be finite")
    statistics = np.empty(z.size)
    state = 0.0
    for start in range(0, z.size, _BLOCK):
        stop = start + _BLOCK
        state, alarmed = _advance_with_resets(
            kind, state, z[start:stop], threshold, statistics[start:stop]
        )
        if first_only and alarmed.any():
            return statistics[: start + 1 + int(alarmed.argmax())]
    return statistics


def run_detector(increments, kind: str, threshold: float) -> DetectionTrace:
    """Run a fresh detector over log increments until the first crossing (``>=``).

    ``increments`` is a 1-D array of log-likelihood ratios or scores, for
    both kinds.  The trace stops at the alarm; a stream without a crossing
    returns a trace with no alarms.
    """
    return DetectionTrace(kind, threshold, _run(increments, kind, threshold, first_only=True))


def multi_cyclic_run(increments, kind: str, threshold: float) -> DetectionTrace:
    """Run over the whole stream of log increments, restarting after every alarm.

    The statistic value recorded immediately after an alarm is exactly what
    a fresh detector produces on that increment.
    """
    return DetectionTrace(kind, threshold, _run(increments, kind, threshold, first_only=False))

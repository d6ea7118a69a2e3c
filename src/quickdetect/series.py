"""Price and return series: CSV ingestion, moment estimation, diagnostics.

The toolkit monitors first differences of a price (or level) series,
``d[i] = x[i+1] - x[i]``, not log-returns.  This module owns the plumbing
around those differences: loading and validating raw CSV data, building the
difference series, estimating Gaussian moments over index ranges, and the
exploratory summaries (autocorrelation, histogram, Q-Q points, lag scatter
pairs) used to judge whether an independent-Gaussian working model is
reasonable before any detector is run.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from array import array
from dataclasses import dataclass, field
from itertools import islice
from operator import lt
from pathlib import Path

import numpy as np


class CsvFormatError(ValueError):
    """Input CSV violates the expected schema (bad rows are named by number)."""


def _first_unordered(timestamps: list | tuple) -> dt.date | None:
    """The first timestamp not after its predecessor, or None if they increase."""
    if all(map(lt, timestamps, islice(timestamps, 1, None))):
        return None
    return next(cur for prev, cur in zip(timestamps, timestamps[1:]) if not prev < cur)


def _freeze(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for :func:`load_csv`.

    ``date_format`` of ``None`` means ISO-8601 (``YYYY-MM-DD``); otherwise a
    single ``strptime`` pattern is accepted as the alternate format.
    """

    date_column: str = "Date"
    price_column: str = "Close"
    date_format: str | None = None


@dataclass(frozen=True)
class PriceSeries:
    """A dated level series with strictly increasing timestamps.

    Values must be finite and positive; at least two points are required so
    that a difference series exists.
    """

    timestamps: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1:
            raise ValueError("price values must be one-dimensional")
        if len(self.timestamps) != self.values.size:
            raise ValueError(
                f"{len(self.timestamps)} timestamps for {self.values.size} values"
            )
        if self.values.size < 2:
            raise ValueError("a price series needs at least two points")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("price values must be finite")
        if np.any(self.values <= 0.0):
            raise ValueError("price values must be positive")
        unordered = _first_unordered(self.timestamps)
        if unordered is not None:
            raise ValueError(f"timestamps not strictly increasing at {unordered}")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ReturnSeries:
    """First differences of a :class:`PriceSeries`.

    ``values[j] = source.values[j + 1] - source.values[j]``.
    A detached series (``source is None``) is allowed for simulated data.
    """

    values: np.ndarray
    source: PriceSeries | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1:
            raise ValueError("return values must be one-dimensional")
        if self.values.size < 1:
            raise ValueError("a return series needs at least one value")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("return values must be finite")
        if self.source is not None and self.values.size > len(self.source) - 1:
            raise ValueError("return series extends past its source")

    def __len__(self) -> int:
        return self.values.size

    @property
    def dates(self) -> tuple[dt.date, ...] | None:
        """Date on which each difference is realized (the later of its two days)."""
        if self.source is None:
            return None
        return self.source.timestamps[1 : 1 + self.values.size]


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean/sd over a half-open index range of a return series."""

    mean: float
    sd: float
    count: int
    interval: tuple[int, int]
    ddof: int = 1

    def __post_init__(self) -> None:
        if self.count != self.interval[1] - self.interval[0]:
            raise ValueError("count must equal the interval width")
        if self.sd < 0.0:
            raise ValueError("sd cannot be negative")

    @property
    def is_degenerate(self) -> bool:
        """True when the range had zero variance (sd == 0)."""
        return self.sd == 0.0


@dataclass(frozen=True)
class AcfResult:
    """Sample autocorrelations at lags ``0..max_lag`` plus a white-noise band."""

    values: np.ndarray
    band: float

    @property
    def lags(self) -> np.ndarray:
        return np.arange(self.values.size)


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram with right-closed bins ``(e[j], e[j+1]]``.

    The leftmost bin additionally includes its left edge so the sample
    minimum is counted.
    """

    counts: np.ndarray
    edges: np.ndarray


@dataclass(frozen=True)
class QQPoints:
    """Sorted standardized sample vs. normal quantiles at positions (i-0.5)/n."""

    empirical: np.ndarray
    theoretical: np.ndarray


@dataclass(frozen=True)
class DiagnosticBundle:
    histogram: Histogram
    qq: QQPoints
    lag_pairs: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def load_csv(source: str | Path | bytes, schema: CsvSchema | None = None) -> PriceSeries:
    """Load a dated price series from a CSV file, given its path or its bytes.

    Dates and prices are read into two columns, which are sorted by date
    (stably) only when the file's dates are out of order.  Any row with an
    unparsable date, a non-numeric price, or a non-finite or non-positive
    price is an error naming its line in the file; so are duplicate dates and
    files with fewer than two valid rows.  Blank lines are skipped and missing
    fields read as empty.  Identical input bytes always produce the identical
    series.
    """
    schema = schema or CsvSchema()
    if not isinstance(source, bytes):
        path = Path(source)
        if not path.is_file():
            raise FileNotFoundError(f"no such file: {path}")
        source = path.read_bytes()
    fmt = schema.date_format
    parse_date = (
        dt.date.fromisoformat if fmt is None else lambda t: dt.datetime.strptime(t, fmt).date()
    )
    dates: list[dt.date] = []
    prices = array("d")
    bad: list[str] = []
    with io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        columns = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last
        for col in (schema.date_column, schema.price_column):
            if col not in columns:
                raise CsvFormatError(f"missing column {col!r} in header {header}")
        date_at, price_at = columns[schema.date_column], columns[schema.price_column]
        width = max(date_at, price_at) + 1
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                row = row + [""] * (width - len(row))
            raw_date, raw_price = row[date_at], row[price_at]
            try:
                date = parse_date(raw_date.strip())
            except ValueError:
                bad.append(f"row {reader.line_num}: unparsable date {raw_date!r}")
                continue
            try:
                price = float(raw_price)
            except ValueError:
                bad.append(f"row {reader.line_num}: non-numeric price {raw_price!r}")
                continue
            if not 0.0 < price < math.inf:
                sign = "non-positive" if math.isfinite(price) else "non-finite"
                bad.append(f"row {reader.line_num}: {sign} price {raw_price!r}")
                continue
            dates.append(date)
            prices.append(price)
    if bad:
        raise CsvFormatError("; ".join(bad))
    if len(dates) < 2:
        raise CsvFormatError(f"need at least 2 valid rows, found {len(dates)}")
    values = np.frombuffer(prices)
    if _first_unordered(dates) is not None:
        order = sorted(range(len(dates)), key=dates.__getitem__)  # stable: ties keep file order
        dates = list(map(dates.__getitem__, order))
        values = values[order]
        repeated = _first_unordered(dates)  # sorted, so only a repeat is out of order
        if repeated is not None:
            raise CsvFormatError(f"duplicate date {repeated.isoformat()}")
    return PriceSeries(timestamps=dates, values=values)


def to_returns(series: PriceSeries) -> ReturnSeries:
    """First differences ``x[i+1] - x[i]`` of the price series (length N-1)."""
    return ReturnSeries(values=np.diff(series.values), source=series)


def _values_of(series) -> np.ndarray:
    return np.asarray(getattr(series, "values", series), dtype=float)


def estimate_moments(
    series: ReturnSeries, interval: tuple[int, int] | None = None, ddof: int = 1
) -> MomentEstimate:
    """Sample mean and sd over ``interval`` (half-open, default: everything).

    The sd uses divisor ``n - ddof`` and the divisor is recorded on the
    result.  A zero-variance range yields ``sd == 0`` and is flagged via
    :attr:`MomentEstimate.is_degenerate`, not rejected.
    """
    x = _values_of(series)
    if interval is None:
        interval = (0, x.size)
    start, stop = interval
    if not (0 <= start < stop <= x.size):
        raise ValueError(f"interval {interval} out of bounds for length {x.size}")
    window = x[start:stop]
    n = window.size
    if n <= ddof:
        raise ValueError(f"need more than {ddof} points in {interval} for sd")
    return MomentEstimate(
        mean=float(np.mean(window)),
        sd=float(np.std(window, ddof=ddof)),
        count=n,
        interval=(start, stop),
        ddof=ddof,
    )


def standardize(series: ReturnSeries, moments: MomentEstimate) -> ReturnSeries:
    """Center and scale by the supplied moment estimate.

    Standardizing by the series' own full-range moments gives sample mean 0
    and sample sd 1 (same divisor) up to rounding.
    """
    if moments.sd == 0.0:
        raise ValueError("cannot standardize by a zero sd")
    values = (_values_of(series) - moments.mean) / moments.sd
    return ReturnSeries(values=values, source=series.source)


def acf(series: ReturnSeries, max_lag: int) -> AcfResult:
    """Sample autocorrelation at lags ``0..max_lag``.

    Uses the standard biased estimator (fixed full-sample mean, denominator
    equal to the lag-0 sum of squares), so ``values[0] == 1``.  ``band`` is
    the approximate 95% white-noise threshold ``1.96/sqrt(n)``.
    """
    x = _values_of(series)
    n = x.size
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag {max_lag} must lie in [0, {n})")
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise ValueError("autocorrelation undefined for a constant series")
    values = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        values[k] = float(np.dot(centered[: n - k], centered[k:])) / denom
    return AcfResult(values=_freeze(values), band=1.96 / np.sqrt(n))


def _histogram(x: np.ndarray, bins: int) -> Histogram:
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:  # degenerate range; widen as np.histogram does
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    # side="left" sends a value equal to an interior edge into the lower bin,
    # making every bin right-closed; the clip keeps the minimum in bin 0.
    idx = np.clip(np.searchsorted(edges, x, side="left") - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return Histogram(counts=counts, edges=_freeze(edges))


def diagnostics(
    series: ReturnSeries, bins: int = 30, lags: tuple[int, ...] = (1, 2, 3)
) -> DiagnosticBundle:
    """Histogram, normal Q-Q points, and lag-k scatter pairs.

    Q-Q points standardize by the full-sample moments and use plotting
    positions ``(i - 0.5)/n``; the normal quantiles come from
    :meth:`statistics.NormalDist.inv_cdf` (Wichura's AS241).  Each lag pair
    is ``(x[:-k], x[k:])``; a lag at or beyond the series length is an error.
    """
    x = _values_of(series)
    n = x.size
    if bins < 1:
        raise ValueError("bins must be positive")
    from statistics import NormalDist  # only diagnose needs it, so not at import time

    moments = estimate_moments(series)
    if moments.sd == 0.0:
        raise ValueError("diagnostics undefined for a constant series")
    standardized = np.sort((x - moments.mean) / moments.sd)
    positions = (np.arange(1, n + 1) - 0.5) / n
    qq = QQPoints(
        empirical=_freeze(standardized),
        theoretical=_freeze(list(map(NormalDist().inv_cdf, positions.tolist()))),
    )
    lag_pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in lags:
        if not 1 <= k < n:
            raise ValueError(f"lag {k} must lie in [1, {n})")
        lag_pairs[int(k)] = (_freeze(x[:-k]), _freeze(x[k:]))
    return DiagnosticBundle(histogram=_histogram(x, bins), qq=qq, lag_pairs=lag_pairs)

"""Series ingestion, moments, and diagnostics."""

import codecs
import csv
import datetime as dt
import hashlib
import io
from datetime import date

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from quickdetect import (
    CsvFormatError,
    CsvSchema,
    PriceSeries,
    ReturnSeries,
    acf,
    diagnostics,
    estimate_moments,
    load_csv,
    standardize,
    to_returns,
)


def dictreader_load(data: bytes, schema: CsvSchema):
    """CSV ingestion row by row through ``csv.DictReader``, as load_csv once did.

    Returns ``(timestamps, values)`` or the error message.
    """

    def parse_date(text):
        if schema.date_format is None:
            return dt.date.fromisoformat(text.strip())
        return dt.datetime.strptime(text.strip(), schema.date_format).date()

    rows, bad = [], []
    with io.TextIOWrapper(io.BytesIO(data), newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for col in (schema.date_column, schema.price_column):
            if col not in header:
                return f"missing column {col!r} in header {header}"
        for number, row in enumerate(reader, start=2):
            raw_date = row.get(schema.date_column) or ""
            raw_price = row.get(schema.price_column) or ""
            try:
                day = parse_date(raw_date)
            except (ValueError, TypeError):
                bad.append(f"row {number}: unparsable date {raw_date!r}")
                continue
            try:
                price = float(raw_price)
            except (ValueError, TypeError):
                bad.append(f"row {number}: non-numeric price {raw_price!r}")
                continue
            if not np.isfinite(price) or price <= 0.0:
                bad.append(f"row {number}: non-positive price {raw_price!r}")
                continue
            rows.append((day, price))
    if bad:
        return "; ".join(bad)
    rows.sort(key=lambda item: item[0])
    for (d0, _), (d1, _) in zip(rows, rows[1:]):
        if d0 == d1:
            return f"duplicate date {d1.isoformat()}"
    if len(rows) < 2:
        return f"need at least 2 valid rows, found {len(rows)}"
    return tuple(d for d, _ in rows), [p for _, p in rows]


def assert_matches_dictreader(data: bytes, schema: CsvSchema) -> None:
    expected = dictreader_load(data, schema)
    try:
        series = load_csv(data, schema)
    except CsvFormatError as err:
        assert str(err) == expected
    else:
        assert (series.timestamps, series.values.tolist()) == expected


# Inputs with neither blank lines before a bad row, quoted line breaks, nor
# non-finite prices, where the two loaders must agree message for message.
MESSY_CSVS = {
    "quoted": '"Date","Close"\n"2021-01-05","10.5"\n"2021-01-04","1,000"\n"2021-01-06",11\n',
    "quoted-ok": '"Date","Close"\n"2021-01-05","10.5"\n2021-01-04,"9.25"\n',
    "padded": "Date,Close\n 2021-01-04 , 10 \n2021-01-05,\t11.5\n2021-01-06 ,1e1\n",
    "extra-columns": "Open,Date,Close\n1,2021-01-04,10,5,x\n2,2021-01-05,11\n3,2021-01-06,12,,\n",
    "missing-columns": "Date,Close\n2021-01-04,10\n2021-01-05\n\n2021-01-06,12\n",
    "short-rows": "Close,Date\n10,2021-01-04\n11\n12,2021-01-06\n",
    "unsorted": "Date,Close\n2021-01-07,4\n2021-01-04,1\n2021-01-06,3\n2021-01-05,2\n",
    "blank-lines-valid": "Date,Close\n\n2021-01-05,2\n\n\n2021-01-04,1\n",
    "repeated-column": "Date,Close,Close\n2021-01-04,1,10\n2021-01-05,2,11\n",
    "repeated-column-short": "Date,Close,Close\n2021-01-04,1,10\n2021-01-05,2\n",
    "all-bad": "Date,Close\nx,1\n2021-01-05,y\n2021-01-06,0\n2021-01-07,-2\n2021-13-01,3\n",
    "duplicates": "Date,Close\n2021-01-05,1\n2021-01-04,2\n2021-01-05,3\n",
    "too-few": "Date,Close\n2021-01-04,10\n",
    "header-only": "Date,Close\n",
    "empty": "",
    "blank-header": "\nDate,Close\n2021-01-04,10\n",
    "missing-header-column": "Date,Open\n2021-01-04,10\n",
    "underscored-number": "Date,Close\n2021-01-04,1_000\n2021-01-05,2\n",
    "crlf": "Date,Close\r\n2021-01-05,2\r\n2021-01-04,bad\r\n",
}


class TestLoadCsv:
    def test_roundtrip_and_determinism(self, make_csv):
        path = make_csv([100.0, 101.5, 99.25, 103.0])
        first = load_csv(path)
        second = load_csv(path)
        assert_array_equal(first.values, [100.0, 101.5, 99.25, 103.0])
        assert_array_equal(first.values, second.values)
        assert first.timestamps == second.timestamps
        assert len(first) == 4

    def test_rows_sorted_by_date(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text(
            "Date,Close\n2021-01-06,3\n2021-01-04,1\n2021-01-05,2\n"
        )
        series = load_csv(path)
        assert_array_equal(series.values, [1.0, 2.0, 3.0])
        assert series.timestamps[0] == date(2021, 1, 4)

    def test_alternate_schema_and_date_format(self, tmp_path):
        path = tmp_path / "alt.csv"
        path.write_text("day,px\n01/02/2020,10\n01/03/2020,11\n")
        schema = CsvSchema(date_column="day", price_column="px", date_format="%m/%d/%Y")
        series = load_csv(path, schema)
        assert series.timestamps == (date(2020, 1, 2), date(2020, 1, 3))

    def test_bad_rows_are_all_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "Date,Close\n"
            "2021-01-04,10\n"
            "not-a-date,11\n"
            "2021-01-06,eleven\n"
            "2021-01-07,-3\n"
            "2021-01-08,12\n"
        )
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        message = str(err.value)
        assert "row 3" in message and "unparsable date" in message
        assert "row 4" in message and "non-numeric price" in message
        assert "row 5" in message and "non-positive price" in message

    def test_many_bad_rows_name_the_first_ten_and_count_the_rest(self):
        # the error stays one short line however many rows are bad
        with pytest.raises(CsvFormatError) as err:
            load_csv(b"Date,Close\n" + b"2021-01-04,n/a\n" * 60_000)
        message = str(err.value)
        assert len(message) < 1024
        named = [f"row {row}: non-numeric price 'n/a'" for row in range(2, 12)]
        assert message == "; ".join([*named, "and 59990 more bad rows"])

    @pytest.mark.parametrize("name", sorted(MESSY_CSVS))
    def test_matches_the_dictreader_loop(self, name):
        assert_matches_dictreader(MESSY_CSVS[name].encode(), CsvSchema())

    @pytest.mark.parametrize(
        "text, date_format",
        [
            ("day,px\n03/02/2020,10\n 01/02/2020 ,11\n02/02/2020,12\n", "%d/%m/%Y"),
            ("day,px\n03/02/2020,10\n2020-02-01,11\n02/02/2020,zero\n", "%d/%m/%Y"),
            ("px,day\n10,20200103\n11,20200102\n", "%Y%m%d"),
        ],
    )
    def test_date_format_matches_the_dictreader_loop(self, text, date_format):
        schema = CsvSchema(date_column="day", price_column="px", date_format=date_format)
        assert_matches_dictreader(text.encode(), schema)

    def test_bad_row_named_by_its_line_in_the_file(self):
        data = b"Date,Close\n2021-01-01,1\n\n2021-01-02,x\n"
        with pytest.raises(CsvFormatError, match=r"^row 4: non-numeric price 'x'$"):
            load_csv(data)

    def test_non_finite_and_non_positive_prices_told_apart(self):
        data = (
            b"Date,Close\n2021-01-01,nan\n2021-01-02,inf\n2021-01-03,-inf\n"
            b"2021-01-04,0\n2021-01-05,-2.5\n2021-01-06,1\n"
        )
        with pytest.raises(CsvFormatError) as err:
            load_csv(data)
        assert str(err.value).split("; ") == [
            "row 2: non-finite price 'nan'",
            "row 3: non-finite price 'inf'",
            "row 4: non-finite price '-inf'",
            "row 5: non-positive price '0'",
            "row 6: non-positive price '-2.5'",
        ]

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("Date,Close\n2021-01-04,10\n2021-01-04,11\n2021-01-05,12\n")
        with pytest.raises(CsvFormatError, match="duplicate date 2021-01-04"):
            load_csv(path)

    def test_first_duplicate_after_sorting_named(self):
        data = (
            b"Date,Close\n2021-01-07,1\n2021-01-06,2\n2021-01-05,3\n"
            b"2021-01-07,4\n2021-01-06,5\n"
        )
        with pytest.raises(CsvFormatError, match="^duplicate date 2021-01-06$"):
            load_csv(data)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("Date,Close\n2021-01-04,10\n")
        with pytest.raises(CsvFormatError, match="at least 2"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("Date,Price\n2021-01-04,10\n2021-01-05,11\n")
        with pytest.raises(CsvFormatError, match="missing column 'Close'"):
            load_csv(path)

    def test_byte_order_mark_is_not_part_of_the_header(self):
        # spreadsheets export UTF-8 CSVs with a leading byte-order mark
        data = "Date,Clôse\n2021-01-05,11.5\n2021-01-04,10\n".encode()
        schema = CsvSchema(price_column="Clôse")
        plain, marked = load_csv(data, schema), load_csv(codecs.BOM_UTF8 + data, schema)
        assert marked.timestamps == plain.timestamps == (date(2021, 1, 4), date(2021, 1, 5))
        assert_array_equal(marked.values, plain.values)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    LONG = "Date,Close\n" + "".join(f"{date(2000, 1, 1) + dt.timedelta(i)},{i + 1}\n" for i in range(900))

    @pytest.mark.parametrize(
        "data, line, byte",
        [
            (b"Date,Cl\xf4se\n2021-01-04,10\n2021-01-05,11\n", 1, 0xF4),  # header
            (b"Date,Close\n2021-01-04,10\n\n2021-01-05,1\xe91\r\n2021-01-06,12\n", 4, 0xE9),
            (LONG.encode()[:-3] + b"\xc3(\n", 901, 0xC3),  # past the first chunk read
            (codecs.BOM_UTF8 + b"Date,Close\n2021-01-04,10\n2021-01-05,11\xc3", 3, 0xC3),  # cut short
        ],
    )
    @pytest.mark.parametrize("from_path", [False, True], ids=["bytes", "path"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, data, line, byte, from_path):
        source = data
        if from_path:
            source = tmp_path / "latin.csv"
            source.write_bytes(data)
        with pytest.raises(CsvFormatError, match=f"^line {line}: byte 0x{byte:02x} is not UTF-8$"):
            load_csv(source)

    @pytest.mark.parametrize("from_path", [False, True], ids=["bytes", "path"])
    def test_digest_covers_the_bytes_parsed(self, tmp_path, from_path):
        data = codecs.BOM_UTF8 + self.LONG.encode()
        source = data
        if from_path:
            source = tmp_path / "long.csv"
            source.write_bytes(data)
        digest = hashlib.sha256()
        series = load_csv(source, digest=digest)
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
        assert len(series) == 900 and series.values[-1] == 900.0


class TestPriceSeries:
    def test_validation(self):
        days = (date(2021, 1, 4), date(2021, 1, 5))
        with pytest.raises(ValueError, match="positive"):
            PriceSeries(days, [1.0, 0.0])
        with pytest.raises(ValueError, match="at least two"):
            PriceSeries(days[:1], [1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries((days[1], days[0]), [1.0, 2.0])
        with pytest.raises(ValueError, match="timestamps"):
            PriceSeries(days, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "days, named",
        [
            ((4, 5, 7, 6, 8), "2021-01-06"),  # unsorted
            ((4, 5, 5, 6, 6), "2021-01-05"),  # repeated
            ((5, 4, 4, 6, 7), "2021-01-04"),  # both, from the second day on
        ],
    )
    def test_first_date_out_of_order_named(self, days, named):
        timestamps = tuple(date(2021, 1, d) for d in days)
        with pytest.raises(ValueError, match=f"^timestamps not strictly increasing at {named}$"):
            PriceSeries(timestamps, np.arange(1.0, len(days) + 1.0))

    def test_values_frozen(self):
        series = PriceSeries((date(2021, 1, 4), date(2021, 1, 5)), [1.0, 2.0])
        with pytest.raises(ValueError):
            series.values[0] = 5.0


class TestReturns:
    def test_differences(self, make_csv):
        prices = load_csv(make_csv([100.0, 102.0, 101.0, 105.5]))
        returns = to_returns(prices)
        assert_array_equal(returns.values, [2.0, -1.0, 4.5])
        # each difference is dated on the later of its two days
        assert returns.dates == prices.timestamps[1:]
        # and the prices can be reconstructed from the first price
        assert_allclose(
            prices.values[0] + np.cumsum(returns.values), prices.values[1:]
        )

    def test_detached_series(self):
        detached = ReturnSeries(values=[0.5, -0.5])
        assert detached.dates is None
        assert len(detached) == 2

    def test_offset_bounds(self, make_csv):
        prices = load_csv(make_csv([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="past its source"):
            ReturnSeries(values=[1.0, 1.0, 1.0], source=prices)


class TestMoments:
    def test_matches_numpy(self, rng):
        x = rng.normal(0.3, 1.7, size=400)
        series = ReturnSeries(values=x)
        m = estimate_moments(series, (50, 250))
        window = x[50:250]
        assert m.mean == pytest.approx(np.mean(window), abs=0.0)
        assert m.sd == pytest.approx(np.std(window, ddof=1), abs=0.0)
        assert m.count == 200
        assert m.interval == (50, 250)
        assert not m.is_degenerate

    def test_half_open_interval(self):
        series = ReturnSeries(values=[1.0, 2.0, 3.0, 4.0])
        m = estimate_moments(series, (1, 3))  # picks out exactly {2, 3}
        assert m.mean == 2.5
        assert m.count == 2

    def test_bad_intervals(self):
        series = ReturnSeries(values=[1.0, 2.0, 3.0])
        for interval in [(-1, 2), (0, 4), (2, 2), (2, 1)]:
            with pytest.raises(ValueError, match="interval"):
                estimate_moments(series, interval)

    def test_degenerate_range_flagged(self):
        series = ReturnSeries(values=[5.0, 5.0, 5.0])
        assert estimate_moments(series).is_degenerate

    def test_ddof_respected(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        series = ReturnSeries(values=x)
        assert estimate_moments(series, ddof=0).sd == pytest.approx(np.std(x))

    def test_standardize_exact(self, rng):
        x = rng.normal(2.0, 3.0, size=500)
        series = ReturnSeries(values=x)
        z = standardize(series, estimate_moments(series))
        assert abs(np.mean(z.values)) < 1e-12
        assert abs(np.std(z.values, ddof=1) - 1.0) < 1e-12

    def test_standardize_zero_sd_rejected(self):
        series = ReturnSeries(values=[1.0, 1.0])
        with pytest.raises(ValueError, match="zero sd"):
            standardize(series, estimate_moments(series))


class TestAcf:
    def test_lag_zero_is_one_and_brute_force_agrees(self, rng):
        x = rng.normal(size=60)
        result = acf(ReturnSeries(values=x), max_lag=5)
        assert result.values[0] == 1.0
        # independent O(n^2) evaluation of the biased estimator
        mean = x.mean()
        denom = sum((v - mean) ** 2 for v in x)
        for k in range(6):
            direct = (
                sum((x[i] - mean) * (x[i + k] - mean) for i in range(len(x) - k))
                / denom
            )
            assert result.values[k] == pytest.approx(direct, abs=1e-12)
        assert_array_equal(result.lags, np.arange(6))

    def test_white_noise_band(self, rng):
        n = 4000
        x = rng.normal(size=n)
        result = acf(ReturnSeries(values=x), max_lag=40)
        assert result.band == pytest.approx(1.96 / np.sqrt(n))
        outside = np.sum(np.abs(result.values[1:]) > result.band)
        # 95% band: expect ~2 of 40 outside; 6+ would be suspicious
        assert outside <= 5

    def test_persistent_series_detected(self):
        x = np.sin(np.arange(200) * 0.1)
        result = acf(ReturnSeries(values=x), max_lag=3)
        assert np.all(result.values[1:] > result.band)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            acf(ReturnSeries(values=[2.0, 2.0, 2.0]), max_lag=1)

    def test_max_lag_bounds(self):
        series = ReturnSeries(values=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            acf(series, max_lag=3)


class TestDiagnostics:
    def test_histogram_right_closed(self):
        # values landing exactly on an interior edge go to the bin on its left
        x = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0])
        bundle = diagnostics(ReturnSeries(values=x), bins=4, lags=(1,))
        hist = bundle.histogram
        assert_array_equal(hist.edges, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert_array_equal(hist.counts, [3, 1, 1, 1])
        assert hist.counts.sum() == x.size

    def test_histogram_counts_everything(self, rng):
        x = rng.normal(size=1000)
        bundle = diagnostics(ReturnSeries(values=x), bins=17, lags=(1,))
        assert bundle.histogram.counts.sum() == 1000

    def test_qq_positions_and_against_normal_sample(self, rng):
        n = 10_000
        x = rng.normal(1.0, 2.0, size=n)
        bundle = diagnostics(ReturnSeries(values=x), lags=(1,))
        stats = pytest.importorskip("scipy.stats")
        positions = (np.arange(1, n + 1) - 0.5) / n
        assert_allclose(bundle.qq.theoretical, stats.norm.ppf(positions))
        assert_array_equal(bundle.qq.empirical, np.sort(bundle.qq.empirical))
        # a genuinely normal sample should hug the diagonal away from the tails
        middle = slice(n // 20, -n // 20)
        gap = np.max(
            np.abs(bundle.qq.empirical[middle] - bundle.qq.theoretical[middle])
        )
        assert gap < 0.1

    @pytest.mark.parametrize("n", [10, 1811, 60_000])
    def test_qq_quantiles_match_ndtri(self, n):
        ndtri = pytest.importorskip("scipy.special").ndtri
        x = np.random.default_rng(n).normal(size=n)
        theoretical = diagnostics(ReturnSeries(values=x), lags=(1,)).qq.theoretical
        positions = (np.arange(1, n + 1) - 0.5) / n
        assert_allclose(theoretical, ndtri(positions), rtol=1e-14, atol=0.0)
        if n % 2:  # the middle plotting position is exactly 1/2
            assert positions[n // 2] == 0.5
            assert theoretical[n // 2] == 0.0

    def test_lag_pairs(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        bundle = diagnostics(ReturnSeries(values=x), bins=2, lags=(1, 3))
        x1, y1 = bundle.lag_pairs[1]
        assert_array_equal(x1, [1.0, 2.0, 3.0, 4.0])
        assert_array_equal(y1, [2.0, 3.0, 4.0, 5.0])
        x3, y3 = bundle.lag_pairs[3]
        assert_array_equal(x3, [1.0, 2.0])
        assert_array_equal(y3, [4.0, 5.0])

    def test_bad_lag_rejected(self):
        series = ReturnSeries(values=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="lag"):
            diagnostics(series, lags=(3,))
        with pytest.raises(ValueError, match="lag"):
            diagnostics(series, lags=(0,))

import csv
import datetime as dt

import numpy as np
import pytest

from portopt import market_data
from portopt.market_data import (
    DataError,
    PriceTable,
    ReturnMatrix,
    daily_returns,
    iso_texts,
    load_price_table,
    split_train_test,
    write_wide_csv,
)
from reference_impls import naive_align


def _write_csv(path, rows, header="Date,Close"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _table(dates, tickers, closes):
    return PriceTable(tuple(dates), tuple(tickers), np.asarray(closes, dtype=float))


D = [dt.date(2021, 1, i) for i in range(1, 10)]


class TestLoadPriceTable:
    def test_intersect_keeps_common_dates_only(self, tmp_path):
        # A has {d1,d2,d3}, B has {d2,d3,d4} -> 2x2 table on {d2,d3}
        _write_csv(tmp_path / "A.csv", ["2021-01-01,10", "2021-01-02,11", "2021-01-03,12"])
        _write_csv(tmp_path / "B.csv", ["2021-01-02,20", "2021-01-03,21", "2021-01-04,22"])
        table = load_price_table({"A": tmp_path / "A.csv", "B": tmp_path / "B.csv"})
        assert table.dates.tolist() == [D[1], D[2]]
        assert table.tickers == ("A", "B")
        assert table.closes.tolist() == [[11.0, 20.0], [12.0, 21.0]]

    def test_ffill_carries_last_price_forward(self, tmp_path):
        _write_csv(tmp_path / "A.csv", ["2021-01-01,10", "2021-01-02,11", "2021-01-03,12"])
        _write_csv(tmp_path / "B.csv", ["2021-01-01,20", "2021-01-03,21"])
        table = load_price_table(
            {"A": tmp_path / "A.csv", "B": tmp_path / "B.csv"}, align="ffill"
        )
        assert table.dates.tolist() == [D[0], D[1], D[2]]
        assert table.closes[:, 1].tolist() == [20.0, 20.0, 21.0]

    def test_ffill_equals_intersect_on_gap_free_data(self, tmp_path):
        rng = np.random.default_rng(12)
        for trial in range(10):
            days = np.flatnonzero(rng.random(60) < 0.7)
            dates = [dt.date(2021, 1, 1) + dt.timedelta(days=int(d)) for d in days]
            sources = {}
            for j in range(int(rng.integers(1, 6))):
                closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, len(dates))))
                path = tmp_path / f"T{trial}_{j}.csv"
                _write_csv(path, [f"{d.isoformat()},{c!r}" for d, c in zip(dates, closes.tolist())])
                sources[f"T{j}"] = path
            intersect = load_price_table(sources)
            ffill = load_price_table(sources, align="ffill")
            assert ffill.dates.tolist() == intersect.dates.tolist() == dates
            assert ffill.tickers == intersect.tickers
            np.testing.assert_array_equal(ffill.closes, intersect.closes)

    def test_alignment_matches_naive_reference(self, tmp_path):
        # gapped series sharing a first day (so ffill accepts them), rows
        # written in shuffled order; both modes must agree bit for bit
        rng = np.random.default_rng(5)
        for trial in range(40):
            sources, per_ticker = {}, {}
            for j in range(int(rng.integers(1, 7))):
                keep = rng.random(80) < rng.uniform(0.3, 0.95)
                keep[0] = True
                days = np.flatnonzero(keep)
                closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, len(days))))
                series = {
                    dt.date(2021, 1, 1) + dt.timedelta(days=int(d)): c
                    for d, c in zip(days, closes.tolist())
                }
                rows = [f"{d.isoformat()},{c!r}" for d, c in series.items()]
                path = tmp_path / f"T{trial}_{j}.csv"
                _write_csv(path, [rows[i] for i in rng.permutation(len(rows))])
                sources[f"T{j}"] = path
                per_ticker[f"T{j}"] = series
            for align in ("intersect", "ffill"):
                dates, closes = naive_align(per_ticker, align)
                table = load_price_table(sources, align=align)
                assert table.dates.tolist() == list(dates)
                assert table.tickers == tuple(per_ticker)
                assert table.closes.shape == closes.shape
                assert np.array_equal(table.closes.view(np.uint64), closes.view(np.uint64))

    def test_ffill_rejects_ticker_starting_late(self, tmp_path):
        _write_csv(tmp_path / "A.csv", ["2021-01-01,10", "2021-01-02,11"])
        _write_csv(tmp_path / "B.csv", ["2021-01-02,20"])
        with pytest.raises(DataError, match="'B'"):
            load_price_table(
                {"A": tmp_path / "A.csv", "B": tmp_path / "B.csv"}, align="ffill"
            )

    def test_require_start_rejects_short_history_by_name(self, tmp_path):
        _write_csv(tmp_path / "A.csv", ["2021-01-01,10", "2021-01-02,11"])
        _write_csv(tmp_path / "LATE.csv", ["2021-01-02,20", "2021-01-03,21"])
        with pytest.raises(DataError, match="'LATE'"):
            load_price_table(
                {"A": tmp_path / "A.csv", "LATE": tmp_path / "LATE.csv"},
                require_start=dt.date(2021, 1, 1),
            )

    def test_staggered_starts_load_under_ffill(self, tmp_path):
        # first dates differ but none is after require_start: ffill loads them,
        # and equals the naive union alignment with the rows before
        # require_start cut off, bit for bit
        rng = np.random.default_rng(9)
        day0 = dt.date(2021, 1, 1)
        for trial in range(30):
            require_start = day0 + dt.timedelta(days=int(rng.integers(0, 15)))
            sources, per_ticker = {}, {}
            for j in range(int(rng.integers(1, 7))):
                keep = rng.random(60) < rng.uniform(0.3, 0.95)
                first = int(rng.integers(0, (require_start - day0).days + 1))
                keep[:first], keep[first] = False, True
                days = np.flatnonzero(keep)
                closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, len(days))))
                series = {
                    day0 + dt.timedelta(days=int(d)): c for d, c in zip(days, closes.tolist())
                }
                path = tmp_path / f"T{trial}_{j}.csv"
                _write_csv(path, [f"{d.isoformat()},{c!r}" for d, c in series.items()])
                sources[f"T{j}"] = path
                per_ticker[f"T{j}"] = series
            dates, closes = naive_align(per_ticker, "ffill")
            rows = [i for i, d in enumerate(dates) if d >= require_start]
            table = load_price_table(sources, align="ffill", require_start=require_start)
            assert table.dates.tolist() == [dates[i] for i in rows]
            assert np.array_equal(table.closes.view(np.uint64), closes[rows].view(np.uint64))

    @pytest.mark.parametrize("align", ["intersect", "ffill"])
    def test_ticker_starting_after_require_start_is_named(self, tmp_path, align):
        _write_csv(tmp_path / "A.csv", ["2021-01-01,10", "2021-01-02,11", "2021-01-03,12"])
        _write_csv(tmp_path / "LATE.csv", ["2021-01-03,20", "2021-01-04,21"])
        with pytest.raises(DataError, match="'LATE' .* on or before 2021-01-02"):
            load_price_table(
                {"A": tmp_path / "A.csv", "LATE": tmp_path / "LATE.csv"},
                align=align,
                require_start=dt.date(2021, 1, 2),
            )

    @pytest.mark.parametrize("align", ["intersect", "ffill"])
    def test_calendar_emptied_by_require_start_is_an_error(self, tmp_path, align):
        _write_csv(tmp_path / "A.csv", ["2021-01-01,10", "2021-01-02,11"])
        _write_csv(tmp_path / "B.csv", ["2021-01-01,20", "2021-01-02,21"])
        with pytest.raises(DataError, match="no common dates .* on or after 2021-01-05"):
            load_price_table(
                {"A": tmp_path / "A.csv", "B": tmp_path / "B.csv"},
                align=align,
                require_start=dt.date(2021, 1, 5),
            )

    @pytest.mark.parametrize(
        "sources, align, match",
        [
            ({}, "intersect", "^no price sources given$"),
            ({"A": "A.csv"}, "sideways", "^unknown alignment policy 'sideways'$"),
        ],
    )
    def test_bad_arguments_rejected_before_any_parse(self, sources, align, match):
        with pytest.raises(DataError, match=match):
            load_price_table(sources, align=align)

    def test_empty_intersection_is_an_error(self, tmp_path):
        _write_csv(tmp_path / "A.csv", ["2021-01-01,10"])
        _write_csv(tmp_path / "B.csv", ["2021-01-02,20"])
        with pytest.raises(DataError, match="no common dates"):
            load_price_table({"A": tmp_path / "A.csv", "B": tmp_path / "B.csv"})

    def test_duplicate_date_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,10", "2021-01-01,11"])
        with pytest.raises(DataError, match=r"A\.csv: line 3"):
            load_price_table({"A": path})

    def test_duplicate_date_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-03,10", "", "2021-01-01,11", "2021-01-03,12", "2021-01-01,13"])
        with pytest.raises(DataError, match=r"A\.csv: line 5: duplicate date 2021-01-03"):
            load_price_table({"A": path})

    def test_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,10", "", "2021-01-02,11"])
        table = load_price_table({"A": path})
        assert table.dates.tolist() == [D[0], D[1]]
        assert table.closes[:, 0].tolist() == [10.0, 11.0]

    def test_short_row_reads_missing_price_as_none(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,10", "2021-01-02"])
        with pytest.raises(
            DataError, match=r"A\.csv: line 3, column 'Close': unparsable price None$"
        ):
            load_price_table({"A": path})

    def test_repeated_header_column_uses_the_last(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,10,20", "2021-01-02,11,21"], header="Date,Close,Close")
        table = load_price_table({"A": path})
        assert table.closes[:, 0].tolist() == [20.0, 21.0]

    def test_rows_out_of_date_order_load_sorted(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-03,12", "2021-01-01,10", "2021-01-02,11"])
        table = load_price_table({"A": path})
        assert table.dates.tolist() == [D[0], D[1], D[2]]
        assert table.closes[:, 0].tolist() == [10.0, 11.0, 12.0]

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, [])
        with pytest.raises(DataError, match=r"A\.csv: no data rows"):
            load_price_table({"A": path})

    def test_bad_price_error_names_column(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,oops"])
        with pytest.raises(DataError, match="'Close'.*'oops'"):
            load_price_table({"A": path})

    def test_nonpositive_price_rejected(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,-5"])
        with pytest.raises(DataError, match="positive"):
            load_price_table({"A": path})

    def test_bad_date_error_names_value(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["01/02/2021,10"])
        with pytest.raises(DataError, match="'01/02/2021'"):
            load_price_table({"A": path})

    @pytest.mark.parametrize("raw", ["20210102", "2021-W01-6", "2021-1-02", " 2021-01-2"])
    def test_date_must_be_yyyy_mm_dd_on_every_python(self, tmp_path, raw):
        # date.fromisoformat takes the first two on python >= 3.11 only
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,10", f"{raw},11"])
        with pytest.raises(DataError, match=rf"A\.csv: line 3, column 'Date': unparsable date '{raw}'"):
            load_price_table({"A": path})

    def test_missing_column_is_an_error(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,10"], header="Date,Px")
        with pytest.raises(DataError, match="'Close'"):
            load_price_table({"A": path})

    def test_custom_column_names(self, tmp_path):
        path = tmp_path / "A.csv"
        _write_csv(path, ["2021-01-01,10,99"], header="day,Close,Adj")
        table = load_price_table(
            {"A": path}, date_column="day", close_column="Adj"
        )
        assert table.closes[0, 0] == 99.0

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_price_table({"A": tmp_path / "nope.csv"})

    def test_bom_crlf_copy_loads_like_the_original(self, synthetic_fixture, tmp_path):
        # spreadsheet exports: UTF-8 byte-order mark, CRLF line ends, a
        # trailing blank line
        originals = {t: synthetic_fixture / "data" / f"{t}.csv" for t in ("AAA", "AAB")}
        copies = {}
        for ticker, path in originals.items():
            text = path.read_text(encoding="utf-8")
            copies[ticker] = tmp_path / f"{ticker}.csv"
            copies[ticker].write_bytes(
                b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode() + b"\r\n"
            )
        assert copies["AAA"].read_bytes().startswith(b"\xef\xbb\xbfDate,Close\r\n")
        expected = load_price_table(originals)
        loaded = load_price_table(copies)
        assert loaded.dates.tolist() == expected.dates.tolist()
        assert loaded.tickers == expected.tickers
        np.testing.assert_array_equal(loaded.closes, expected.closes)

    def test_non_utf8_byte_is_a_data_error_naming_its_line(self, tmp_path):
        path = tmp_path / "A.csv"
        path.write_bytes(b"Date,Close\n2021-01-01,10\n2021-01-02,11 caf\xe9\n")
        with pytest.raises(DataError, match=r"A\.csv: line 3: not UTF-8 text \(byte 0xe9\)$"):
            load_price_table({"A": path})

    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path):
        path = tmp_path / "A.csv"
        path.write_text(f"Date,Close\n2021-01-01,1.{'0' * 200_000}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"A\.csv: line 2: field larger than field limit"):
            load_price_table({"A": path})

    def test_csv_error_after_a_good_row_names_its_own_line(self, tmp_path):
        # DictReader's own line_num still names the good row when the next one raises
        path = tmp_path / "A.csv"
        path.write_text(f"Date,Close\n2021-01-01,10\n2021-01-02,1.{'0' * 200_000}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"A\.csv: line 3: field larger than field limit"):
            load_price_table({"A": path})


LIMIT = csv.field_size_limit()
PLAIN = b"Date,Close\n2020-01-02,10.5\n2020-01-03,11\n2020-01-06,12.25\n"

# each case is read as _read_close_series reads it and as the row loop alone
# reads it; both must agree
CORPUS = {
    "plain": PLAIN,
    "bom": b"\xef\xbb\xbf" + PLAIN,
    "crlf": PLAIN.replace(b"\n", b"\r\n"),
    "bom_crlf_trailing_blank": b"\xef\xbb\xbf" + PLAIN.replace(b"\n", b"\r\n") + b"\r\n",
    "bare_cr": PLAIN.replace(b"\n", b"\r"),
    "cr_inside_a_line": b"Date,Close\n2020-01-02,10\r2020-01-03,11\n",
    "no_trailing_newline": PLAIN[:-1],
    "blank_lines": b"Date,Close\n\n2020-01-02,10\n\n\n2020-01-03,11\n\n",
    "short_row": b"Date,Close\n2020-01-02,10\n2020-01-03\n",
    "short_header": b"Date\n2020-01-02,10\n",
    "extra_columns": b"Date,Open,High,Low,Close,Volume\n2020-01-02,1,2,0.5,1.5,100\n",
    "extra_field_in_a_row": b"Date,Close\n2020-01-02,10,99\n2020-01-03,11\n",
    "close_before_date": b"Close,Date\n11,2020-01-03\n10,2020-01-02\n",
    "date_is_the_last_column": b"Open,Close,Date\n1,10,2020-01-02\n2,11,2020-01-03\n",
    "repeated_header_name": b"Date,Close,Close\n2020-01-02,1,2\n2020-01-03,3,4\n",
    "missing_column": b"Date,Px\n2020-01-02,1\n",
    "quoted_fields": b'Date,Close\n"2020-01-02","10.5"\n2020-01-03,"11"\n',
    "quoted_comma": b'Date,Close\n2020-01-02,"1,5"\n',
    "quoted_newline": b'Date,Close,Note\n2020-01-02,10,"a\n2020-01-03,11,b"\n2020-01-06,12,c\n',
    "padded_date": b"Date,Close\n 2020-01-02 ,10\n",
    "padded_closes": b"Date,Close\n2020-01-02, 10 \n2020-01-03,\t11\n2020-01-06,\x1c12\n",
    "padded_header": b"Date, Close\n2020-01-02,10\n",
    "basic_date": b"Date,Close\n20200102,10\n",
    "week_date": b"Date,Close\n2020-W01-4,10\n",
    "slash_date": b"Date,Close\n2020/01/02,10\n",
    "letter_in_year": b"Date,Close\n2O20-01-02,10\n",
    "slash_in_year": b"Date,Close\n20/0-01-02,10\n",
    "date_with_an_extra_digit": b"Date,Close\n2020-01-021,10\n",
    "short_row_then_ragged_row": b"Date,Close,Note\n2020-01-02,10\n2020-01-03\n",
    "year_0001_and_9999": b"Date,Close\n9999-12-31,11\n0001-01-01,10\n",
    "year_0000": b"Date,Close\n0000-01-01,10\n",
    "feb_29_1900": b"Date,Close\n1900-02-29,10\n",
    "feb_29_2000": b"Date,Close\n2000-02-28,9\n2000-02-29,10\n2000-03-01,11\n",
    "feb_29_2024": b"Date,Close\n2024-02-29,10\n2024-12-31,11\n",
    "feb_29_2023": b"Date,Close\n2023-02-29,10\n",
    "day_31_of_april": b"Date,Close\n2020-04-31,10\n",
    "day_32_of_march_in_a_leap_year": b"Date,Close\n2024-03-32,10\n",
    "month_13": b"Date,Close\n2020-13-01,10\n",
    "day_00": b"Date,Close\n2020-01-00,10\n",
    "unsorted_rows": b"Date,Close\n2020-01-06,3\n2019-12-31,1\n2020-01-02,2\n",
    "duplicate_date": b"Date,Close\n2020-01-02,1\n2020-01-03,2\n2020-01-02,3\n",
    "nan_close": b"Date,Close\n2020-01-02,nan\n",
    "inf_close": b"Date,Close\n2020-01-02,inf\n",
    "zero_close": b"Date,Close\n2020-01-02,0\n",
    "negative_close": b"Date,Close\n2020-01-02,-1\n",
    "empty_close": b"Date,Close\n2020-01-02,\n",
    "word_close": b"Date,Close\n2020-01-02,oops\n",
    "underscore_close": b"Date,Close\n2020-01-02,1_000\n2020-01-03,1__0\n",
    "exponent_close": b"Date,Close\n2020-01-02,1e2\n2020-01-03,.5\n2020-01-06,7.\n",
    "unicode_digit_close": "Date,Close\n2020-01-02,\u0661\u0662\n".encode(),
    "unicode_digit_date": "Date,Close\n\u0662020-01-02,1\n".encode(),
    "latin1_byte": b"Date,Close\n2020-01-02,10\xe9\n",
    # csv.reader refuses NUL before python 3.11
    "nul_byte": b"Date,Close,Note\n2020-01-02,10,a\x00b\n",
    "header_only": b"Date,Close\n",
    "header_only_no_newline": b"Date,Close",
    "bom_only": b"\xef\xbb\xbf",
    "empty": b"",
    # a close field of exactly csv.reader's size limit, and one byte more
    "field_at_the_csv_limit": b"Date,Close\n2020-01-02,1." + b"0" * (LIMIT - 2) + b"\n",
    "field_over_the_csv_limit": b"Date,Close\n2020-01-02,1." + b"0" * (LIMIT - 1) + b"\n",
}


def _outcome(path):
    try:
        series = market_data._read_close_series(path, "Date", "Close")
    except DataError as exc:
        return str(exc)
    return [(a.dtype.str, a.flags.writeable, a.tobytes()) for a in series]


def _row_loop_outcome(path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market_data, "_bulk_series", lambda *args: None)
        return _outcome(path)


class TestBulkParse:
    @pytest.mark.parametrize("name", CORPUS)
    def test_matches_the_row_loop(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(CORPUS[name])
        assert _outcome(path) == _row_loop_outcome(path)

    def test_plain_results_are_read_only_int32_days_and_float64_closes(self, tmp_path):
        path = tmp_path / "A.csv"
        path.write_bytes(CORPUS["unsorted_rows"])
        assert market_data._bulk_series(path.read_bytes(), "Date", "Close") is not None
        days, closes = market_data._read_close_series(path, "Date", "Close")
        assert days.dtype == np.int32 and closes.dtype == np.float64
        assert not days.flags.writeable and not closes.flags.writeable
        expected = [dt.date(2019, 12, 31), dt.date(2020, 1, 2), dt.date(2020, 1, 6)]
        assert days.astype("datetime64[D]").tolist() == expected
        assert closes.tolist() == [1.0, 2.0, 3.0]

    def test_every_month_and_day_of_sample_years_matches_the_row_loop(self):
        # every month length and leap rule, with the field values just outside them
        loads = 0
        for year in (0, 1, 4, 100, 400, 1582, 1900, 2000, 2023, 2024, 9999):
            for month in range(14):
                for day in range(33):
                    data = b"Date,Close\n%04d-%02d-%02d,1\n" % (year, month, day)
                    bulk = market_data._bulk_series(data, "Date", "Close")
                    try:
                        rows = market_data._row_series(data, "A.csv", "Date", "Close")
                    except DataError:
                        assert bulk is None, data
                        continue
                    assert bulk is not None, data  # never declines a date the row loop reads
                    assert [(a.dtype.str, a.tobytes()) for a in bulk] == [
                        (a.dtype.str, a.tobytes()) for a in rows
                    ], data
                    loads += 1
        assert loads == 4 * 366 + 6 * 365  # years 4, 400, 2000 and 2024 leap; 0 refused

    def test_matches_the_row_loop_on_mutated_fixture_lines(self, synthetic_fixture, tmp_path):
        text = (synthetic_fixture / "data" / "AAA.csv").read_bytes()
        lines = text.splitlines(keepends=True)[:12]
        pieces = [b",", b"\n", b"\r", b"\r\n", b'"', b" ", b"-", b".", b"0", b"9", b"e",
                  b"_", b"\x00", b"\xe9", b"\xc3\xa9", b"\xef\xbb\xbf", b"nan", b"-1"]
        rng = np.random.default_rng(2024)
        paths = {"bulk": 0, "row loop": 0}
        errors = 0
        for variant in range(200):
            rows = list(lines)
            for _ in range(int(rng.integers(1, 4))):
                i = int(rng.integers(0, len(rows)))
                op = int(rng.integers(0, 5))
                if op == 0:  # insert a piece
                    at = int(rng.integers(0, len(rows[i]) + 1))
                    piece = pieces[int(rng.integers(0, len(pieces)))]
                    rows[i] = rows[i][:at] + piece + rows[i][at:]
                elif op == 1 and rows[i]:  # delete a byte
                    at = int(rng.integers(0, len(rows[i])))
                    rows[i] = rows[i][:at] + rows[i][at + 1 :]
                elif op == 2:  # repeat a line
                    rows.insert(i, rows[i])
                elif op == 3:  # swap two lines
                    j = int(rng.integers(0, len(rows)))
                    rows[i], rows[j] = rows[j], rows[i]
                else:  # replace a digit
                    digits = [k for k, c in enumerate(rows[i]) if 48 <= c <= 57]
                    if digits:
                        at = digits[int(rng.integers(0, len(digits)))]
                        new = b"%d" % rng.integers(0, 10)
                        rows[i] = rows[i][:at] + new + rows[i][at + 1 :]
            data = b"".join(rows)
            path = tmp_path / f"V{variant}.csv"
            path.write_bytes(data)
            outcome = _outcome(path)
            assert outcome == _row_loop_outcome(path), data
            bulk = market_data._bulk_series(data, "Date", "Close") is not None
            paths["bulk" if bulk else "row loop"] += 1
            errors += isinstance(outcome, str)
        # the variants exercise both paths, and loads as well as errors
        assert min(paths.values()) >= 20, paths
        assert 20 <= errors <= 180

    def test_ordinary_files_never_take_the_row_loop(
        self, synthetic_fixture, tmp_path, monkeypatch
    ):
        def row_loop(*args):
            raise AssertionError("row loop used")

        originals = sorted((synthetic_fixture / "data").glob("*.csv"))
        expected = [market_data._row_series(p.read_bytes(), p, "Date", "Close") for p in originals]
        monkeypatch.setattr(market_data, "_row_series", row_loop)
        for path, (days, closes) in zip(originals, expected):
            copy = tmp_path / path.name
            copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
            for source in (path, copy):
                loaded = market_data._read_close_series(source, "Date", "Close")
                assert loaded[0].tobytes() == days.tobytes()
                assert loaded[1].tobytes() == closes.tobytes()
        wide = tmp_path / "WIDE.csv"
        wide.write_text(
            "Date,Open,High,Low,Close,Volume\n"
            "2021-01-04,9.5,10.5,9,10.25,1200\n"
            "2021-01-01,8,9,7.5,8.75,900\n",
            encoding="utf-8",
        )
        table = load_price_table({"W": wide})
        assert table.dates.tolist() == [D[0], D[3]]
        assert table.closes[:, 0].tolist() == [8.75, 10.25]


class TestPriceTable:
    def test_restrict_is_inclusive_on_both_ends(self):
        table = _table(D[:4], ["A"], [[1], [2], [3], [4]])
        sub = table.restrict(D[1], D[2])
        assert sub.dates.tolist() == [D[1], D[2]]

    def test_restrict_empty_range_errors(self):
        table = _table(D[:2], ["A"], [[1], [2]])
        message = r"^no dates remain in range \[2021-01-06, 2021-01-07\]$"
        with pytest.raises(DataError, match=message):
            table.restrict(D[5], D[6])

    def test_dates_must_increase(self):
        for dates, at in [([D[1], D[0]], 0), ([D[0], D[2], D[2]], 1)]:
            message = f"^dates not strictly increasing at {dates[at]} -> {dates[at + 1]}$"
            with pytest.raises(DataError, match=message):
                _table(dates, ["A"], [[1]] * len(dates))

    def test_dates_are_one_read_only_day_array(self):
        table = _table(D[:3], ["A"], [[1], [2], [3]])
        r = daily_returns(table)
        for dates in (table.dates, table.restrict(D[1]).dates, r.dates):
            assert dates.dtype == np.dtype("datetime64[D]")
            assert not dates.flags.writeable
        assert np.shares_memory(r.dates, table.dates)

    def test_duplicate_tickers_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            _table(D[:1], ["A", "A"], [[1, 2]])

    @pytest.mark.parametrize(
        "panel, values, match",
        [
            (PriceTable, [[1.0, 0.0]], "^all prices must be strictly positive and finite$"),
            (ReturnMatrix, [[0.1, -1.0]], "^all returns must be finite and greater than -1$"),
            (PriceTable, [[1.0, 2.0, 3.0]], r"^close matrix shape \(1, 3\) does not match 1 dates x 2 "),
            (ReturnMatrix, [[0.1], [0.2]], r"^return matrix shape \(2, 1\) does not match 1 dates x 2 "),
        ],
    )
    def test_bad_panel_rejected(self, panel, values, match):
        with pytest.raises(DataError, match=match):
            panel((D[0],), ("A", "B"), np.array(values))


class TestSplitTrainTest:
    def test_boundary_date_goes_to_train(self):
        table = _table(D[:4], ["A"], [[1], [2], [3], [4]])
        train, test = split_train_test(table, D[1])
        assert train.dates.tolist() == [D[0], D[1]]
        assert test.dates.tolist() == [D[2], D[3]]

    def test_boundary_between_dates_splits_on_le(self):
        table = _table([D[0], D[2], D[4]], ["A"], [[1], [2], [3]])
        train, test = split_train_test(table, D[1])
        assert train.dates.tolist() == [D[0]]
        assert test.dates.tolist() == [D[2], D[4]]

    def test_one_date_table_is_too_short(self):
        with pytest.raises(DataError, match="^price table too short to split$"):
            split_train_test(_table(D[:1], ["A"], [[1]]), D[0])

    def test_boundary_outside_range_errors(self):
        table = _table(D[:3], ["A"], [[1], [2], [3]])
        inside = r"must lie strictly inside \[2021-01-01, 2021-01-03\]$"
        with pytest.raises(DataError, match="^boundary 2021-01-06 " + inside):
            split_train_test(table, D[5])
        with pytest.raises(DataError, match="^boundary 2021-01-03 " + inside):
            split_train_test(table, D[2])  # boundary at last date: empty test
        with pytest.raises(DataError, match="^boundary 2020-12-31 " + inside):
            split_train_test(table, dt.date(2020, 12, 31))


class TestDailyReturns:
    def test_hand_fixture(self):
        table = _table(D[:3], ["A"], [[100], [90], [99]])
        r = daily_returns(table)
        assert r.dates.tolist() == [D[1], D[2]]
        np.testing.assert_allclose(r.returns[:, 0], [-0.10, 0.10], atol=1e-15)

    def test_needs_two_dates(self):
        with pytest.raises(DataError, match="at least 2"):
            daily_returns(_table(D[:1], ["A"], [[100]]))


class TestWideCsv:
    def test_exact_bytes_and_rewrite_stability(self, tmp_path):
        table = _table(D[:3], ["A", "B"], [[1.5, 2.25], [1.625, 2.5], [1 / 3, 2.75]])
        path = tmp_path / "wide.csv"
        write_wide_csv(table, path)
        first = path.read_bytes()
        assert first == (
            b"Date,A,B\n"
            b"2021-01-01,1.5,2.25\n"
            b"2021-01-02,1.625,2.5\n"
            b"2021-01-03,0.333333333333,2.75\n"
        )
        write_wide_csv(table, path)
        assert path.read_bytes() == first
        assert not list(tmp_path.glob("*.tmp"))

    def _joined(self, table, date_column="Date"):
        # the one-string join that the streamed writer replaced
        lines = [",".join([date_column, *table.tickers])]
        for date, row in zip(table.dates.tolist(), table.closes):
            lines.append(",".join([date.isoformat(), *(format(x, ".12g") for x in row)]))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def test_fixture_bytes_match_the_join(self, synthetic_fixture, tmp_path):
        paths = sorted((synthetic_fixture / "data").glob("*.csv"))
        table = load_price_table({p.stem: p for p in paths})
        path = tmp_path / "wide.csv"
        write_wide_csv(table, path, date_column="Day")
        assert path.read_bytes() == self._joined(table, "Day")

    def test_seeded_49_ticker_bytes_match_the_join(self, tmp_path):
        rng = np.random.default_rng(49)
        dates = [dt.date(1, 1, 1), dt.date(999, 12, 31), dt.date(1000, 1, 1)]
        dates += [dt.date(2019, 1, 1) + dt.timedelta(days=i) for i in range(296)]
        dates.append(dt.date(9999, 12, 31))
        closes = 100.0 * np.cumprod(1.0 + rng.normal(0.0, 0.02, size=(300, 49)), axis=0)
        closes[::37, ::5] = [1 / 3, 1e16, 5e-324, 2.5e-7, 123456789012.5, 1.0, 0.1, 7.0, 1e-300, 42.0]
        table = _table(dates, [f"T{j:02d}" for j in range(49)], closes)
        path = tmp_path / "wide.csv"
        write_wide_csv(table, path)
        assert path.read_bytes() == self._joined(table)


class TestIsoTexts:
    def test_equals_datetime_as_string(self):
        dates = market_data.as_dates(["0001-01-01", "1000-01-01", "2021-01-04", "9999-12-31"])
        assert iso_texts(dates) == tuple(np.datetime_as_string(dates).tolist())
        assert iso_texts([]) == ()

    def test_equal_calendars_share_one_conversion_and_the_memo_is_bounded(self):
        market_data._iso_texts.cache_clear()
        days = market_data.as_dates(D)
        assert iso_texts(days) is iso_texts(np.array(days)) is iso_texts(D)
        assert market_data._iso_texts.cache_info().misses == 1
        for shift in range(20):
            assert iso_texts(days + shift)[0] == (D[0] + dt.timedelta(days=shift)).isoformat()
        assert market_data._iso_texts.cache_info().currsize <= 8

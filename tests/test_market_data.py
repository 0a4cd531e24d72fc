import datetime as dt

import numpy as np
import pytest

from portopt.market_data import (
    DataError,
    PriceTable,
    daily_returns,
    load_price_table,
    split_train_test,
    write_wide_csv,
)


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
        assert table.dates == (D[1], D[2])
        assert table.tickers == ("A", "B")
        assert table.closes.tolist() == [[11.0, 20.0], [12.0, 21.0]]

    def test_ffill_carries_last_price_forward(self, tmp_path):
        _write_csv(tmp_path / "A.csv", ["2021-01-01,10", "2021-01-02,11", "2021-01-03,12"])
        _write_csv(tmp_path / "B.csv", ["2021-01-01,20", "2021-01-03,21"])
        table = load_price_table(
            {"A": tmp_path / "A.csv", "B": tmp_path / "B.csv"}, align="ffill"
        )
        assert table.dates == (D[0], D[1], D[2])
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
            assert ffill.dates == intersect.dates == tuple(dates)
            assert ffill.tickers == intersect.tickers
            np.testing.assert_array_equal(ffill.closes, intersect.closes)

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
        assert loaded.dates == expected.dates
        assert loaded.tickers == expected.tickers
        np.testing.assert_array_equal(loaded.closes, expected.closes)


class TestPriceTable:
    def test_restrict_is_inclusive_on_both_ends(self):
        table = _table(D[:4], ["A"], [[1], [2], [3], [4]])
        sub = table.restrict(D[1], D[2])
        assert sub.dates == (D[1], D[2])

    def test_restrict_empty_range_errors(self):
        table = _table(D[:2], ["A"], [[1], [2]])
        with pytest.raises(DataError, match="no dates remain"):
            table.restrict(D[5], D[6])

    def test_dates_must_increase(self):
        with pytest.raises(DataError, match="strictly increasing"):
            _table([D[1], D[0]], ["A"], [[1], [2]])

    def test_duplicate_tickers_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            _table(D[:1], ["A", "A"], [[1, 2]])


class TestSplitTrainTest:
    def test_boundary_date_goes_to_train(self):
        table = _table(D[:4], ["A"], [[1], [2], [3], [4]])
        train, test = split_train_test(table, D[1])
        assert train.dates == (D[0], D[1])
        assert test.dates == (D[2], D[3])

    def test_boundary_between_dates_splits_on_le(self):
        table = _table([D[0], D[2], D[4]], ["A"], [[1], [2], [3]])
        train, test = split_train_test(table, D[1])
        assert train.dates == (D[0],)
        assert test.dates == (D[2], D[4])

    def test_boundary_outside_range_errors(self):
        table = _table(D[:3], ["A"], [[1], [2], [3]])
        with pytest.raises(DataError, match="strictly inside"):
            split_train_test(table, D[5])
        with pytest.raises(DataError, match="strictly inside"):
            split_train_test(table, D[2])  # boundary at last date: empty test


class TestDailyReturns:
    def test_hand_fixture(self):
        table = _table(D[:3], ["A"], [[100], [90], [99]])
        r = daily_returns(table)
        assert r.dates == (D[1], D[2])
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

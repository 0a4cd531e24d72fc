import datetime as dt
import json
import math

import numpy as np
import pytest

from portopt._io import render_json
from portopt.allocators import WeightVector
from portopt.backtest import (
    BacktestError,
    BacktestReport,
    cumulative_series,
    evaluate,
    portfolio_return_series,
    read_report_metrics,
    report_to_dict,
    summarize,
    summary_to_csv,
    summary_winners_dict,
    write_report_json,
)
from portopt.riskstats import PerfMetrics
from reference_impls import make_returns


class TestPortfolioReturnSeries:
    def test_hand_dot_product(self):
        r = make_returns([[0.04, 0.00]])
        w = WeightVector(("T0", "T1"), np.array([0.25, 0.75]))
        series = portfolio_return_series(w, r)
        assert series[0] == pytest.approx(0.01, abs=1e-15)

    def test_ticker_mismatch(self):
        r = make_returns([[0.01, 0.02]])
        w = WeightVector(("A", "B"), np.array([0.5, 0.5]))
        with pytest.raises(BacktestError, match="do not match"):
            portfolio_return_series(w, r)


class TestCumulativeSeries:
    def test_hand_compounding(self):
        out = cumulative_series([0.01, -0.01])
        np.testing.assert_allclose(out, [0.01, -0.0001], atol=1e-15)

    def test_matches_loop_compounding(self):
        rng = np.random.default_rng(1)
        daily = rng.normal(0, 0.01, size=50)
        out = cumulative_series(daily)
        acc, expect = 1.0, []
        for d in daily:
            acc *= 1.0 + d
            expect.append(acc - 1.0)
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(BacktestError, match="empty"):
            cumulative_series([])


class TestEvaluate:
    def test_report_shape_and_metrics(self):
        r = make_returns([[0.01, 0.03], [-0.01, 0.01], [0.02, -0.02]])
        w = WeightVector(("T0", "T1"), np.array([0.5, 0.5]))
        report = evaluate(w, r, portfolio="demo", period="train")
        assert report.portfolio == "demo"
        assert report.dates.tolist() == r.dates.tolist()
        # one read-only datetime64[D] calendar, shared by the report as a view
        for dates in (r.dates, report.dates):
            assert dates.dtype == np.dtype("datetime64[D]")
            assert not dates.flags.writeable
        assert np.shares_memory(report.dates, r.dates)
        assert len(report.cumulative_series) == 3
        daily = portfolio_return_series(w, r)
        assert report.metrics.annual_return == pytest.approx(252 * daily.mean(), abs=1e-12)
        assert report.metrics.annual_volatility == pytest.approx(
            daily.std(ddof=1) * math.sqrt(252), abs=1e-12
        )


def test_report_series_must_match_its_dates():
    with pytest.raises(BacktestError, match="^cumulative series length must match the period$"):
        BacktestReport("demo", "train", (dt.date(2021, 1, 4),), [1.0, 1.1], PerfMetrics(0, 0, 0))


def _metrics_table():
    # hand-built 2-sector table with known winners
    return {
        "S1": {
            "MVP": PerfMetrics(0.20, 0.25, 0.8),
            "HRP": PerfMetrics(0.18, 0.20, 0.9),
            "HERC": PerfMetrics(0.22, 0.30, 0.7333),
        },
        "S2": {
            "MVP": PerfMetrics(0.10, 0.15, 0.6667),
            "HRP": PerfMetrics(0.10, 0.16, 0.625),
            "HERC": PerfMetrics(0.12, 0.14, 0.8571),
        },
    }


class TestSummarize:
    def test_winners_per_metric(self):
        table = summarize(_metrics_table())
        assert table.winners["S1"]["annual_return"].method == "HERC"
        assert table.winners["S1"]["annual_volatility"].method == "HRP"
        assert table.winners["S1"]["sharpe"].method == "HRP"
        assert table.winners["S2"]["annual_volatility"].method == "HERC"

    def test_overall_counts(self):
        table = summarize(_metrics_table())
        assert table.overall["HERC"]["annual_return"] == 2
        assert table.overall["HRP"]["annual_volatility"] == 1
        assert table.overall["MVP"]["annual_return"] == 0

    def test_exact_tie_goes_to_earliest_method_and_is_flagged(self):
        tied = {
            "S": {
                "MVP": PerfMetrics(0.10, 0.15, 0.5),
                "HRP": PerfMetrics(0.10, 0.16, 0.4),
                "HERC": PerfMetrics(0.05, 0.17, 0.3),
            }
        }
        w = summarize(tied).winners["S"]["annual_return"]
        assert w.method == "MVP" and w.tie is True

    def test_undefined_sharpe_never_wins(self):
        table = {
            "S": {
                "MVP": PerfMetrics(0.1, 0.0, None),
                "HRP": PerfMetrics(0.1, 0.2, 0.5),
                "HERC": PerfMetrics(0.1, 0.3, 0.3333),
            }
        }
        assert summarize(table).winners["S"]["sharpe"].method == "HRP"

    def test_missing_method_names_the_hole(self):
        table = {"S": {"MVP": PerfMetrics(0.1, 0.2, 0.5)}}
        with pytest.raises(BacktestError, match="'S'.*'HRP'"):
            summarize(table)

    def test_empty_table_rejected(self):
        with pytest.raises(BacktestError, match="no sectors"):
            summarize({})


def _bytes_table():
    """Two sectors: an undefined Sharpe (HRP in S1), an exact tie (S1's
    volatility) and values whose 12-digit rounding shows (1/3, 0.1 + 0.2)."""
    return summarize(
        {
            "S1": {"HRP": PerfMetrics(1 / 3, 0.15, None), "HERC": PerfMetrics(0.1 + 0.2, 0.15, -0.25)},
            "S2": {"HRP": PerfMetrics(-0.02, 0.12, -0.1 / 0.6), "HERC": PerfMetrics(0.07, 0.3, 0.25)},
        },
        ("HRP", "HERC"),
    )


class TestSummaryCsv:
    def test_bytes(self):
        assert summary_to_csv(_bytes_table()) == (
            "sector,HRP_return,HRP_volatility,HRP_sharpe,HERC_return,HERC_volatility,HERC_sharpe\n"
            "S1,0.333333333333,0.15,,0.3,0.15,-0.25\n"
            "S2,-0.02,0.12,-0.166666666667,0.07,0.3,0.25\n"
            "Overall,1,2,0,1,0,2\n"
        )

    def test_winners_bytes(self):
        # the undefined Sharpe never wins, and the tie goes to HRP, flagged
        assert render_json(summary_winners_dict(_bytes_table())) == """\
{
  "overall": {
    "HERC": {
      "annual_return": 1,
      "annual_volatility": 0,
      "sharpe": 2
    },
    "HRP": {
      "annual_return": 1,
      "annual_volatility": 2,
      "sharpe": 0
    }
  },
  "winners": {
    "S1": {
      "annual_return": {
        "method": "HRP",
        "tie": false
      },
      "annual_volatility": {
        "method": "HRP",
        "tie": true
      },
      "sharpe": {
        "method": "HERC",
        "tie": false
      }
    },
    "S2": {
      "annual_return": {
        "method": "HERC",
        "tie": false
      },
      "annual_volatility": {
        "method": "HRP",
        "tie": false
      },
      "sharpe": {
        "method": "HERC",
        "tie": false
      }
    }
  }
}
"""

    def test_layout(self):
        text = summary_to_csv(summarize(_metrics_table()))
        lines = text.splitlines()
        assert lines[0].startswith("sector,MVP_return,MVP_volatility,MVP_sharpe,HRP_return")
        assert lines[1].split(",")[0] == "S1"
        assert lines[-1].split(",")[0] == "Overall"
        # overall row: 3 counts per method
        assert len(lines[-1].split(",")) == 10

    def test_winners_dict_is_json_ready(self):
        payload = summary_winners_dict(summarize(_metrics_table()))
        payload = json.loads(json.dumps(payload))
        assert payload["winners"]["S1"]["annual_volatility"]["method"] == "HRP"
        assert set(payload["overall"]) == {"MVP", "HRP", "HERC"}


class TestReportJson:
    def test_round_trip(self, tmp_path):
        r = make_returns([[0.01], [-0.01]])
        w = WeightVector(("T0",), np.array([1.0]))
        report = evaluate(w, r, portfolio="p", period="test")
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["portfolio"] == "p"
        assert payload["period"] == "test"
        assert payload["dates"] == [d.isoformat() for d in r.dates.tolist()]
        assert payload["metrics"]["annual_return"] == report.metrics.annual_return
        assert payload["cumulative_series"] == pytest.approx([0.01, -0.0001], abs=1e-12)

    @pytest.mark.parametrize(
        "metrics",
        [PerfMetrics(-0.0, 1e-300, 1e16, 5e-324), PerfMetrics(1e16, 5e-324, None, -0.0)],
        ids=["extremes", "undefined_sharpe"],
    )
    def test_read_back_bit_equal(self, tmp_path, metrics):
        base = _seeded_report(0, 2)
        report = BacktestReport("p", "test", base.dates, base.cumulative_series, metrics)
        path = tmp_path / "report.json"
        write_report_json(report, path)
        # repr tells -0.0 from 0.0 and is the shortest text that gives the same bits
        assert repr(read_report_metrics(path)) == repr(metrics)

    def test_none_sharpe_serializes_as_null(self):
        r = make_returns([[0.01], [0.01]])
        w = WeightVector(("T0",), np.array([1.0]))
        payload = report_to_dict(evaluate(w, r))
        assert payload["metrics"]["sharpe"] is None


def _dumps(report):
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def _seeded_report(seed, rows, portfolio="sector/HRP"):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    r = make_returns(0.01 * rng.standard_normal((rows, n)))
    w = WeightVector(r.tickers, np.full(n, 1.0 / n))
    return evaluate(w, r, risk_free_rate=0.01 * seed, portfolio=portfolio, period="train")


def _written(report, tmp_path):
    """The text write_report_json writes for report."""
    path = tmp_path / "report.json"
    write_report_json(report, path)
    return path.read_bytes().decode("utf-8")


class TestRenderReportJson:
    """The report JSON write_report_json writes against json.dumps, byte for byte."""

    @pytest.mark.parametrize("seed, rows", [(1, 2), (2, 250), (3, 1000)])
    def test_seeded_reports(self, tmp_path, seed, rows):
        report = _seeded_report(seed, rows)
        assert _written(report, tmp_path) == _dumps(report)

    def test_one_row_period(self, tmp_path):
        base = _seeded_report(0, 2)
        report = BacktestReport(
            "p", "test", base.dates[:1], base.cumulative_series[:1], base.metrics
        )
        assert _written(report, tmp_path) == _dumps(report)

    def test_none_sharpe(self, tmp_path):
        r = make_returns([[0.01], [0.01]])
        report = evaluate(WeightVector(("T0",), np.array([1.0])), r)
        assert report.metrics.sharpe is None
        assert _written(report, tmp_path) == _dumps(report)

    def test_extreme_finite_values(self, tmp_path):
        years = [dt.date(1, 1, 1), dt.date(999, 12, 31), dt.date(1000, 1, 1)]
        years += [dt.date(2021, 1, 4), dt.date(9999, 12, 30), dt.date(9999, 12, 31)]
        report = BacktestReport(
            "p",
            "test",
            years,
            np.array([-0.0, 1e-300, 1e16, 5e-324, -1e16, 0.1]),
            PerfMetrics(-0.0, 1e-300, 1e16, -0.0),
        )
        assert report_to_dict(report)["dates"] == [d.isoformat() for d in years]
        assert _written(report, tmp_path) == _dumps(report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_series(self, tmp_path, bad):
        base = _seeded_report(5, 3)
        series = np.array(base.cumulative_series)
        series[1] = bad
        report = BacktestReport("p", "train", base.dates, series, base.metrics)
        assert _written(report, tmp_path) == _dumps(report)

    def test_label_with_quote_backslash_and_non_ascii(self, tmp_path):
        report = _seeded_report(6, 20, portfolio='s\u00e9c"t\\or/HRP \u2013 \U0001f4c8')
        assert _written(report, tmp_path) == _dumps(report)

    def test_empty_series(self, tmp_path):
        # an empty container is json's one-line [] inside the indented report
        report = BacktestReport("p", "test", [], [], PerfMetrics(0.0, 0.0, None))
        assert _written(report, tmp_path) == _dumps(report)

"""Fixed-weight portfolio evaluation, its report JSON (written and read back
here only), and cross-method comparison tables.

The portfolio is a daily-rebalanced constant mix: every day's return is the
weighted sum of that day's asset returns at the original weights, as if the
holdings were reset to those weights each day.  Buy-and-hold drift (weights
moving with relative prices) is not modeled.  A report's dates are a view of
its returns' read-only datetime64[D] array (market_data.as_dates).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from portopt._io import csv_line, write_json
from portopt.market_data import DataError, as_dates, iso_texts
from portopt.riskstats import (
    DEFAULT_ANNUALIZATION_DAYS,
    PerfMetrics,
    best,
    check_tickers,
    portfolio_metrics,
)

METRIC_NAMES = ("annual_return", "annual_volatility", "sharpe")
DEFAULT_METHOD_ORDER = ("MVP", "HRP", "HERC")


class BacktestError(Exception):
    """Backtest inputs are inconsistent or incomplete."""


@dataclass(frozen=True)
class BacktestReport:
    """Cumulative-return series and annualized metrics for one portfolio/period."""

    portfolio: str
    period: str
    dates: np.ndarray
    cumulative_series: np.ndarray
    metrics: PerfMetrics

    def __post_init__(self):
        dates = as_dates(self.dates)
        series = np.asarray(self.cumulative_series, dtype=float)
        if series.shape != dates.shape:
            raise BacktestError("cumulative series length must match the period")
        series.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "cumulative_series", series)


@dataclass(frozen=True)
class Winner:
    """Winning method for one metric in one sector; tie=True when broken by order."""

    method: str
    tie: bool


@dataclass(frozen=True)
class SummaryTable:
    """Per sector x method metrics, per-sector winners, and overall win counts."""

    sectors: tuple
    methods: tuple
    rows: Mapping
    winners: Mapping
    overall: Mapping


def portfolio_return_series(weights, r):
    """Daily portfolio returns p[t] = sum_i w_i * r[t][i]."""
    check_tickers(weights, "weight", r, "return", BacktestError)
    return r.returns @ weights.weights


def cumulative_series(daily):
    """Compounded cumulative returns cum[t] = prod_{u<=t}(1 + daily[u]) - 1."""
    daily = np.asarray(daily, dtype=float)
    if daily.size == 0:
        raise BacktestError("daily return series is empty")
    return np.cumprod(1.0 + daily) - 1.0


def evaluate(
    weights,
    r,
    risk_free_rate=0.0,
    portfolio="portfolio",
    period="period",
    annualization_days=DEFAULT_ANNUALIZATION_DAYS,
):
    """Bundle the cumulative-return series and annualized metrics for one period."""
    daily = portfolio_return_series(weights, r)
    metrics = portfolio_metrics(weights, r, risk_free_rate, annualization_days)
    return BacktestReport(portfolio, period, r.dates, cumulative_series(daily), metrics)


def summarize(metrics_by_sector, method_order=DEFAULT_METHOD_ORDER):
    """Pick per-sector winners and tally overall win counts per method.

    metrics_by_sector maps sector -> method -> PerfMetrics and must contain
    every method for every sector.  The winner is riskstats.best: the highest
    annual return or Sharpe ratio, or the lowest annual volatility; exact ties
    go to the earliest method in method_order with the tie flagged.
    """
    sectors = tuple(metrics_by_sector)
    methods = tuple(method_order)
    if not sectors:
        raise BacktestError("no sectors to summarize")
    for sector in sectors:
        for method in methods:
            if method not in metrics_by_sector[sector]:
                raise BacktestError(f"missing metrics for ({sector!r}, {method!r})")

    winners = {}
    overall = {method: {name: 0 for name in METRIC_NAMES} for method in methods}
    for sector in sectors:
        row = metrics_by_sector[sector]
        winners[sector] = {}
        for name in METRIC_NAMES:
            i, tie = best([getattr(row[m], name) for m in methods], name == "annual_volatility")
            winners[sector][name] = Winner(methods[i], tie)
            overall[methods[i]][name] += 1

    rows = {sector: dict(metrics_by_sector[sector]) for sector in sectors}
    return SummaryTable(sectors, methods, rows, winners, overall)


def summary_to_csv(table):
    """Render a SummaryTable as CSV: sector rows, method-metric columns, and a
    final Overall row of win counts per method per metric."""
    columns = [(method, name) for method in table.methods for name in METRIC_NAMES]
    rows = [["sector"] + [f"{m}_{n.removeprefix('annual_')}" for m, n in columns]]
    rows += [[s] + [getattr(table.rows[s][m], n) for m, n in columns] for s in table.sectors]
    return "".join(map(csv_line, rows + [["Overall"] + [table.overall[m][n] for m, n in columns]]))


def summary_winners_dict(table):
    """JSON-ready winners and overall counts (includes tie flags)."""
    return {
        "winners": {s: {n: asdict(w) for n, w in table.winners[s].items()} for s in table.sectors},
        "overall": {m: dict(table.overall[m]) for m in table.methods},
    }


def report_to_dict(report):
    """JSON-ready representation of a BacktestReport (full series included)."""
    return {
        "portfolio": report.portfolio,
        "period": report.period,
        "dates": list(iso_texts(report.dates)),
        "cumulative_series": report.cumulative_series.tolist(),
        "metrics": asdict(report.metrics),
    }


def write_report_json(report, path):
    """Write report_to_dict(report) to path atomically as JSON."""
    write_json(path, report_to_dict(report))


def read_report_metrics(path):
    """The PerfMetrics of a report JSON that write_report_json wrote; a missing
    file or one that is not a report is a DataError naming it."""
    path = Path(path)
    try:
        # every number a float, so a 400-digit int is inf, not a later OverflowError
        payload = json.loads(path.read_text(encoding="utf-8"), parse_int=float)
    except FileNotFoundError:
        raise DataError(f"missing report file: {path}") from None
    except OSError as exc:  # a directory at the path, say
        raise DataError(f"{path}: cannot read report file: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or nesting depth
        raise DataError(f"{path}: not a report JSON: {exc}") from None
    m = payload.get("metrics") if isinstance(payload, dict) else None
    if not isinstance(m, dict):
        raise DataError(f"{path}: no 'metrics' object")
    values = []
    for f in fields(PerfMetrics):
        if f.name not in m and f.default is MISSING:
            raise DataError(f"{path}: metrics has no {f.name!r}")
        value = m.get(f.name, f.default)
        finite = isinstance(value, float) and math.isfinite(value)  # json reads NaN, Infinity
        if not (finite or f.name == "sharpe" and value is None):  # undefined Sharpe: null
            raise DataError(f"{path}: metrics {f.name!r} is not a finite number: {value!r}")
        values.append(value)
    return PerfMetrics(*values)

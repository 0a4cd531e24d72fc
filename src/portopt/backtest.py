"""Fixed-weight portfolio evaluation and cross-method comparison tables.

The portfolio is a daily-rebalanced constant mix: every day's return is the
weighted sum of that day's asset returns at the original weights, as if the
holdings were reset to those weights each day.  Buy-and-hold drift (weights
moving with relative prices) is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from portopt._io import write_json
from portopt.riskstats import (
    DEFAULT_ANNUALIZATION_DAYS,
    PerfMetrics,
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
    dates: tuple
    cumulative_series: np.ndarray
    metrics: PerfMetrics

    def __post_init__(self):
        series = np.asarray(self.cumulative_series, dtype=float)
        if series.shape != (len(self.dates),):
            raise BacktestError("cumulative series length must match the period")
        series.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
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
    if tuple(weights.tickers) != tuple(r.tickers):
        raise BacktestError(
            f"weight tickers {weights.tickers} do not match return tickers {r.tickers}"
        )
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


def _metric_key(metrics, name):
    value = getattr(metrics, name)
    if name == "sharpe" and value is None:
        return -np.inf
    return value


def summarize(metrics_by_sector, method_order=DEFAULT_METHOD_ORDER):
    """Pick per-sector winners and tally overall win counts per method.

    metrics_by_sector maps sector -> method -> PerfMetrics and must contain
    every method for every sector.  The winner is the argmax of annual return
    and Sharpe ratio and the argmin of annual volatility; exact ties go to the
    earliest method in method_order with the tie flagged.
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
            values = [_metric_key(row[method], name) for method in methods]
            best = min(values) if name == "annual_volatility" else max(values)
            hits = [m for m, v in zip(methods, values) if v == best]
            winner = Winner(hits[0], len(hits) > 1)
            winners[sector][name] = winner
            overall[winner.method][name] += 1

    rows = {sector: dict(metrics_by_sector[sector]) for sector in sectors}
    return SummaryTable(sectors, methods, rows, winners, overall)


def _fmt(value):
    return "" if value is None else format(value, ".12g")


def summary_to_csv(table):
    """Render a SummaryTable as CSV: sector rows, method-metric columns, and a
    final Overall row of win counts per method per metric."""
    header = ["sector"]
    for method in table.methods:
        header += [f"{method}_return", f"{method}_volatility", f"{method}_sharpe"]
    lines = [",".join(header)]
    for sector in table.sectors:
        cells = [sector]
        for method in table.methods:
            m = table.rows[sector][method]
            cells += [_fmt(m.annual_return), _fmt(m.annual_volatility), _fmt(m.sharpe)]
        lines.append(",".join(cells))
    overall = ["Overall"]
    for method in table.methods:
        overall += [str(table.overall[method][name]) for name in METRIC_NAMES]
    lines.append(",".join(overall))
    return "\n".join(lines) + "\n"


def summary_winners_dict(table):
    """JSON-ready winners and overall counts (includes tie flags)."""
    return {
        "winners": {
            sector: {
                name: {"method": w.method, "tie": w.tie}
                for name, w in table.winners[sector].items()
            }
            for sector in table.sectors
        },
        "overall": {m: dict(table.overall[m]) for m in table.methods},
    }


def report_to_dict(report):
    """JSON-ready representation of a BacktestReport (full series included)."""
    return {
        "portfolio": report.portfolio,
        "period": report.period,
        "dates": [d.isoformat() for d in report.dates],
        "cumulative_series": [float(x) for x in report.cumulative_series],
        "metrics": {
            "annual_return": report.metrics.annual_return,
            "annual_volatility": report.metrics.annual_volatility,
            "sharpe": report.metrics.sharpe,
            "risk_free_rate": report.metrics.risk_free_rate,
        },
    }


def write_report_json(report, path):
    write_json(path, report_to_dict(report))

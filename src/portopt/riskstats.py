"""Return statistics: expected returns, covariance/correlation, correlation
distance, and annualized portfolio performance metrics.

Annualization uses a configurable trading-day count (default 252): mean daily
returns scale linearly, daily volatility scales by the square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ANNUALIZATION_DAYS = 252

_SYM_TOL = 1e-12
_PSD_TOL = -1e-10


class StatsError(Exception):
    """Invalid input to a statistics routine."""


def _as_symmetric(matrix, what):
    """Check that matrix.values is finite, symmetric and square with one row
    per ticker; freeze matrix's tickers and values and return the values."""
    values = np.asarray(matrix.values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise StatsError(f"{what} must be square, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise StatsError(f"{what} contains non-finite entries")
    if values.size and np.max(np.abs(values - values.T)) > _SYM_TOL:
        raise StatsError(f"{what} is not symmetric to {_SYM_TOL}")
    if values.shape[0] != len(matrix.tickers):
        raise StatsError(f"{what} does not match ticker count")
    values.setflags(write=False)
    object.__setattr__(matrix, "tickers", tuple(matrix.tickers))
    object.__setattr__(matrix, "values", values)
    return values


@dataclass(frozen=True)
class ExpectedReturns:
    """Per-asset mean daily return and its annualized counterpart."""

    tickers: tuple
    mu_daily: np.ndarray
    mu_annual: np.ndarray
    annualization_days: int = DEFAULT_ANNUALIZATION_DAYS

    def __post_init__(self):
        mu_daily = np.asarray(self.mu_daily, dtype=float)
        mu_annual = np.asarray(self.mu_annual, dtype=float)
        if mu_daily.shape != (len(self.tickers),) or mu_annual.shape != mu_daily.shape:
            raise StatsError("expected-return vectors do not match ticker count")
        if np.max(np.abs(mu_annual - mu_daily * self.annualization_days), initial=0.0) > 1e-9:
            raise StatsError("mu_annual must equal mu_daily * annualization_days")
        mu_daily.setflags(write=False)
        mu_annual.setflags(write=False)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "mu_daily", mu_daily)
        object.__setattr__(self, "mu_annual", mu_annual)


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric positive-semidefinite matrix of daily return covariances."""

    tickers: tuple
    values: np.ndarray

    def __post_init__(self):
        values = _as_symmetric(self, "covariance matrix")
        if np.any(np.diag(values) < 0.0):
            raise StatsError("covariance diagonal must be non-negative")
        if values.size and np.min(np.linalg.eigvalsh(values)) < _PSD_TOL:
            raise StatsError("covariance matrix is not positive semidefinite")


@dataclass(frozen=True)
class CorrMatrix:
    """Symmetric Pearson correlation matrix with unit diagonal."""

    tickers: tuple
    values: np.ndarray

    def __post_init__(self):
        values = _as_symmetric(self, "correlation matrix")
        if values.size:
            if np.max(np.abs(np.diag(values) - 1.0)) > _SYM_TOL:
                raise StatsError("correlation diagonal must be 1")
            if np.max(np.abs(values)) > 1.0 + _SYM_TOL:
                raise StatsError("correlations must lie in [-1, 1]")


def check_distances(values):
    """Raise StatsError unless values, one (n, n) matrix or a stack of them
    along the leading axes, is finite and symmetric with a zero diagonal and
    entries in [0, 1]."""
    if not np.all(np.isfinite(values)):
        raise StatsError("distance matrix contains non-finite entries")
    if values.size:
        if np.max(np.abs(values - np.swapaxes(values, -1, -2))) > _SYM_TOL:
            raise StatsError(f"distance matrix is not symmetric to {_SYM_TOL}")
        if np.max(np.abs(np.diagonal(values, axis1=-2, axis2=-1))) > _SYM_TOL:
            raise StatsError("distance diagonal must be 0")
        if np.min(values) < -_SYM_TOL or np.max(values) > 1.0 + _SYM_TOL:
            raise StatsError("distances must lie in [0, 1]")


@dataclass(frozen=True)
class DistanceMatrix:
    """Correlation-distance matrix: zero diagonal, entries in [0, 1]."""

    tickers: tuple
    values: np.ndarray

    def __post_init__(self):
        check_distances(_as_symmetric(self, "distance matrix"))


@dataclass(frozen=True)
class PerfMetrics:
    """Annualized return, annualized volatility, and Sharpe ratio.

    sharpe is None when the ratio is undefined (zero volatility with nonzero
    excess return); zero excess return over zero volatility reports 0.0.
    """

    annual_return: float
    annual_volatility: float
    sharpe: float | None
    risk_free_rate: float = 0.0


def expected_returns(r, annualization_days=DEFAULT_ANNUALIZATION_DAYS):
    """Mean daily returns and their annualized values R_i."""
    if r.returns.shape[0] < 1:
        raise StatsError("need at least 1 return row")
    mu_daily = r.returns.mean(axis=0)
    return ExpectedReturns(
        r.tickers, mu_daily, mu_daily * annualization_days, annualization_days
    )


def covariance(r):
    """Unbiased sample covariance (divisor T-1) of daily returns."""
    t = r.returns.shape[0]
    if t < 2:
        raise StatsError(f"need at least 2 return rows, got {t}")
    centered = r.returns - r.returns.mean(axis=0)
    values = centered.T @ centered / (t - 1)
    values = (values + values.T) / 2.0
    return CovMatrix(r.tickers, values)


def correlation(r):
    """Pearson correlation matrix corr(i,j) = cov(i,j) / (s_i * s_j)."""
    cov = covariance(r)
    stds = np.sqrt(np.diag(cov.values))
    for ticker, s in zip(r.tickers, stds):
        if s == 0.0:
            raise StatsError(f"ticker {ticker!r} has zero return variance")
    # symmetric as cov is: each entry and its mirror divide the same operands
    values = np.clip(cov.values / np.outer(stds, stds), -1.0, 1.0)
    np.fill_diagonal(values, 1.0)
    return CorrMatrix(r.tickers, values)


def corr_to_distance(corr):
    """Correlation distance d(i,j) = sqrt((1 - corr(i,j)) / 2)."""
    values = np.sqrt(np.clip((1.0 - corr.values) / 2.0, 0.0, 1.0))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(corr.tickers, values)


def check_tickers(a, a_kind, b, b_kind, error=StatsError):
    """Raise error unless a and b list the same tickers in the same order."""
    if tuple(a.tickers) != tuple(b.tickers):
        raise error(f"{a_kind} tickers {a.tickers} do not match {b_kind} tickers {b.tickers}")


def portfolio_variance(weights, cov):
    """Daily portfolio variance w' S w."""
    check_tickers(weights, "weight", cov, "covariance")
    w = weights.weights
    return float(w @ cov.values @ w)


def sharpe_ratio(annual_return, annual_volatility, risk_free_rate):
    """Excess return over volatility, elementwise: 0/0 is 0.0, any other x/0
    nan, and so is a ratio beyond float range (a huge risk-free rate)."""
    vol = np.asarray(annual_volatility)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        excess = np.subtract(annual_return, risk_free_rate)
        ratio = excess / vol
    ratio = np.where(np.isfinite(ratio), ratio, np.nan)
    return np.where(vol == 0.0, np.where(excess == 0.0, 0.0, np.nan), ratio)[()]


def best(values, lowest=False):
    """(index, tie) of the first largest of values, or of the first smallest
    when lowest.  An undefined value (nan or None) ranks last, so it wins only
    when all are, at index 0; tie says whether another value ranks equal."""
    keys = np.asarray(values, dtype=float)  # None reads as nan
    keys = np.where(np.isnan(keys), np.inf if lowest else -np.inf, keys)
    i = int(np.argmin(keys) if lowest else np.argmax(keys))
    return i, bool(np.count_nonzero(keys == keys[i]) > 1)


def portfolio_metrics(
    weights, r, risk_free_rate=0.0, annualization_days=DEFAULT_ANNUALIZATION_DAYS
):
    """Annualized return, volatility, and Sharpe ratio of a fixed-weight portfolio."""
    var_daily = portfolio_variance(weights, covariance(r))  # checks the tickers
    mu = expected_returns(r, annualization_days)
    annual_return = float(weights.weights @ mu.mu_annual)
    # daily std first so the annualization factor is an exact sqrt(days) multiple
    annual_volatility = math.sqrt(max(var_daily, 0.0)) * math.sqrt(annualization_days)
    sharpe = sharpe_ratio(annual_return, annual_volatility, risk_free_rate)
    sharpe = None if np.isnan(sharpe) else float(sharpe)
    return PerfMetrics(annual_return, annual_volatility, sharpe, risk_free_rate)


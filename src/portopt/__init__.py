"""Long-only portfolio construction and backtesting toolkit.

Builds sector portfolios with three allocators (Monte-Carlo mean-variance,
hierarchical risk parity, hierarchical equal risk contribution) and evaluates
them on held-out price data.  ``__all__`` is the library API; the rest is
reached through the submodules.
"""

import os

# portopt runs in parallel across processes (the run's fork pool), so BLAS
# helper threads would only compete with the pool's workers, and a wide
# sector's covariance bits would depend on their count.  Set before numpy's
# first import; a value the caller set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from portopt.market_data import (
    DataError,
    daily_returns,
    load_price_table,
    split_train_test,
)
from portopt.riskstats import (
    StatsError,
    corr_to_distance,
    correlation,
    covariance,
    expected_returns,
)
from portopt.hierclust import ClusterError, agglomerate
from portopt.allocators import (
    AllocationError,
    HercParams,
    herc_allocate,
    hrp_allocate,
    mvp_optimize,
)
from portopt.backtest import BacktestError, evaluate, summarize
from portopt.config import ConfigError, load_config
from portopt.pipeline import run_pipeline

from portopt._version import __version__  # noqa: F401

__all__ = [
    "AllocationError",
    "BacktestError",
    "ClusterError",
    "ConfigError",
    "DataError",
    "HercParams",
    "StatsError",
    "agglomerate",
    "corr_to_distance",
    "correlation",
    "covariance",
    "daily_returns",
    "evaluate",
    "expected_returns",
    "herc_allocate",
    "hrp_allocate",
    "load_config",
    "load_price_table",
    "mvp_optimize",
    "run_pipeline",
    "split_train_test",
    "summarize",
]

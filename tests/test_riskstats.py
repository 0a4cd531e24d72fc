import math

import numpy as np
import pytest

from portopt.allocators import WeightVector
from portopt.riskstats import (
    CorrMatrix,
    CovMatrix,
    DistanceMatrix,
    StatsError,
    corr_to_distance,
    correlation,
    covariance,
    expected_returns,
    portfolio_metrics,
    portfolio_variance,
    sharpe_ratio,
)
from reference_impls import make_returns


class TestExpectedReturns:
    def test_annualization_scales_daily_mean_by_252(self):
        r = make_returns([[0.01], [0.03]])
        mu = expected_returns(r)
        assert mu.mu_daily[0] == pytest.approx(0.02, abs=1e-15)
        assert mu.mu_annual[0] == pytest.approx(0.02 * 252, abs=1e-12)

    def test_custom_day_count(self):
        r = make_returns([[0.01], [0.03]])
        assert expected_returns(r, 100).mu_annual[0] == pytest.approx(2.0, abs=1e-12)


class TestCovariance:
    def test_single_asset_hand_value(self):
        # divisor T-1 = 1: var([0.01, -0.01]) = 2e-4
        cov = covariance(make_returns([[0.01], [-0.01]]))
        assert cov.values[0, 0] == pytest.approx(2e-4, abs=1e-18)

    def test_matches_numpy_unbiased_cov(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(0, 0.01, size=(40, 4))
        cov = covariance(make_returns(rows))
        np.testing.assert_allclose(cov.values, np.cov(rows, rowvar=False), atol=1e-15)

    def test_needs_two_rows(self):
        with pytest.raises(StatsError, match="at least 2"):
            covariance(make_returns([[0.01, 0.02]]))


class TestCorrelation:
    def test_perfectly_correlated_pair(self):
        rows = [[0.01, 0.02], [-0.01, -0.02], [0.02, 0.04]]
        corr = correlation(make_returns(rows))
        np.testing.assert_allclose(corr.values, [[1, 1], [1, 1]], atol=1e-12)

    def test_zero_variance_error_names_ticker(self):
        rows = [[0.01, 0.0], [-0.01, 0.0]]
        with pytest.raises(StatsError, match="'T1'"):
            correlation(make_returns(rows))


class TestCorrToDistance:
    def test_endpoint_values(self):
        corr = CorrMatrix(("A", "B", "C"), np.array([
            [1.0, 1.0, 0.0],
            [1.0, 1.0, -1.0],
            [0.0, -1.0, 1.0],
        ]))
        d = corr_to_distance(corr)
        assert d.values[0, 1] == 0.0           # rho = 1
        assert d.values[1, 2] == 1.0           # rho = -1
        assert d.values[0, 2] == pytest.approx(math.sqrt(0.5), abs=1e-15)


class TestPortfolioVariance:
    def test_hand_quadratic_form(self):
        cov = CovMatrix(("A", "B"), np.array([[0.04, 0.01], [0.01, 0.09]]))
        w = WeightVector(("A", "B"), np.array([0.5, 0.5]))
        expect = 0.25 * 0.04 + 0.25 * 0.09 + 2 * 0.25 * 0.01
        assert portfolio_variance(w, cov) == pytest.approx(expect, abs=1e-15)

    def test_ticker_mismatch_is_an_error(self):
        cov = CovMatrix(("A", "B"), np.eye(2) * 0.01)
        w = WeightVector(("A", "C"), np.array([0.5, 0.5]))
        with pytest.raises(StatsError, match="do not match"):
            portfolio_variance(w, cov)


class TestSharpeRatio:
    def test_plain_ratio(self):
        assert sharpe_ratio(0.12, 0.2, 0.0) == pytest.approx(0.6, abs=1e-15)

    def test_risk_free_rate_subtracted(self):
        assert sharpe_ratio(0.12, 0.2, 0.02) == pytest.approx(0.5, abs=1e-15)

    def test_zero_vol_zero_excess_is_zero(self):
        assert sharpe_ratio(0.0, 0.0, 0.0) == 0.0

    def test_zero_vol_nonzero_excess_is_undefined(self):
        assert sharpe_ratio(0.05, 0.0, 0.0) is None


class TestPortfolioMetrics:
    def test_single_asset_hand_oracle(self):
        r = make_returns([[0.01], [-0.01]])
        w = WeightVector(("T0",), np.array([1.0]))
        m = portfolio_metrics(w, r)
        std_daily = math.sqrt(2e-4)
        assert std_daily == pytest.approx(0.01414, abs=5e-6)
        assert m.annual_volatility == pytest.approx(0.2245, abs=5e-5)
        assert m.annual_volatility == std_daily * math.sqrt(252)
        assert m.annual_return == pytest.approx(0.0, abs=1e-15)
        assert m.sharpe == 0.0

    def test_published_sector_triple_is_consistent(self):
        # annualized 35.03% return at 16.07% volatility reports Sharpe ~2.1795
        assert sharpe_ratio(0.3503, 0.1607, 0.0) == pytest.approx(2.1795, abs=0.005)

    def test_constant_returns_have_undefined_sharpe(self):
        r = make_returns([[0.01], [0.01], [0.01]])
        w = WeightVector(("T0",), np.array([1.0]))
        m = portfolio_metrics(w, r)
        assert m.annual_volatility == 0.0
        assert m.sharpe is None

    def test_annualization_days_flows_through(self):
        r = make_returns([[0.01], [-0.01], [0.02]])
        w = WeightVector(("T0",), np.array([1.0]))
        m252 = portfolio_metrics(w, r)
        m1 = portfolio_metrics(w, r, annualization_days=1)
        assert m252.annual_return == pytest.approx(252 * m1.annual_return, abs=1e-12)
        assert m252.annual_volatility == m1.annual_volatility * math.sqrt(252)


class TestMatrixTypes:
    def test_cov_must_be_psd(self):
        with pytest.raises(StatsError, match="positive semidefinite"):
            CovMatrix(("A", "B"), np.array([[1.0, 2.0], [2.0, 1.0]]) * 1e-4)

    def test_corr_diagonal_must_be_one(self):
        with pytest.raises(StatsError, match="diagonal"):
            CorrMatrix(("A",), np.array([[0.9]]))

    def test_distance_bounds(self):
        with pytest.raises(StatsError, match=r"\[0, 1\]"):
            DistanceMatrix(("A", "B"), np.array([[0.0, 1.5], [1.5, 0.0]]))

    def test_asymmetry_rejected(self):
        with pytest.raises(StatsError, match="symmetric"):
            CovMatrix(("A", "B"), np.array([[1e-4, 1e-5], [2e-5, 1e-4]]))


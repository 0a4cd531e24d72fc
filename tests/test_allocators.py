import math

import numpy as np
import pytest

from portopt import allocators
from portopt.allocators import (
    AllocationError,
    HercParams,
    WeightVector,
    cluster_variance,
    herc_allocate,
    hrp_allocate,
    ivp_weights,
    mvp_optimize,
    read_weights_csv,
    write_frontier_csv,
    write_weights_csv,
)
from portopt.config import load_config
from portopt.hierclust import LinkageTree, Merge, gap_optimal_k
from portopt.pipeline import fit_method, prepare_sector
from portopt.riskstats import CovMatrix, ExpectedReturns
from reference_impls import make_returns
from portopt.riskstats import covariance, expected_returns


def _cov(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or tuple(str(i) for i in range(values.shape[0]))
    return CovMatrix(tuple(labels), values)


def _chain_tree_4():
    # ((0,1),(2,3)): leaf order 0,1,2,3
    return LinkageTree(4, (Merge(0, 1, 0.1, 2), Merge(2, 3, 0.2, 2), Merge(4, 5, 0.3, 4)))


PAIR_TREE = LinkageTree(2, (Merge(0, 1, 0.5, 2),))


class TestWeightVector:
    def test_negative_weight_rejected(self):
        with pytest.raises(AllocationError, match="negative"):
            WeightVector(("A", "B"), np.array([1.1, -0.1]))

    def test_sum_must_be_one(self):
        with pytest.raises(AllocationError, match="sum"):
            WeightVector(("A", "B"), np.array([0.6, 0.5]))

    def test_tiny_negative_noise_clipped_to_zero(self):
        w = WeightVector(("A", "B"), np.array([1.0 + 1e-13, -1e-13]))
        assert w.weights[1] == 0.0

    def test_as_dict(self):
        w = WeightVector(("A", "B"), np.array([0.25, 0.75]))
        assert w.as_dict() == {"A": 0.25, "B": 0.75}


class TestIvpWeights:
    def test_hand_fixture(self):
        w = ivp_weights(_cov([[1.0, 0.0], [0.0, 4.0]], ("A", "B")))
        np.testing.assert_allclose(w.weights, [0.8, 0.2], atol=1e-15)

    def test_zero_variance_names_ticker(self):
        with pytest.raises(AllocationError, match="'B'"):
            ivp_weights(_cov([[1.0, 0.0], [0.0, 0.0]], ("A", "B")))


class TestClusterVariance:
    def test_identity_pair(self):
        assert cluster_variance(_cov(np.eye(2)), [0, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_scaled_pair(self):
        assert cluster_variance(_cov(4 * np.eye(2)), [0, 1]) == pytest.approx(2.0, abs=1e-15)

    def test_subset_uses_submatrix(self):
        cov = _cov([[1.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 9.0]])
        # IVP over {1, 2}: w = (9/13, 4/13); var = w1^2*4 + w2^2*9
        expect = (9 / 13) ** 2 * 4 + (4 / 13) ** 2 * 9
        assert cluster_variance(cov, [1, 2]) == pytest.approx(expect, abs=1e-12)

    def test_empty_members_rejected(self):
        with pytest.raises(AllocationError, match="empty"):
            cluster_variance(_cov(np.eye(2)), [])


class TestHrpAllocate:
    def test_two_asset_fixture(self):
        w = hrp_allocate(_cov([[1.0, 0.0], [0.0, 4.0]]), PAIR_TREE)
        np.testing.assert_allclose(w.weights, [0.8, 0.2], atol=1e-15)

    def test_four_asset_two_level_fixture(self):
        w = hrp_allocate(_cov(np.diag([1.0, 1.0, 4.0, 4.0])), _chain_tree_4())
        np.testing.assert_allclose(w.weights, [0.4, 0.4, 0.1, 0.1], atol=1e-15)

    def test_odd_group_puts_extra_leaf_left(self):
        # 3 leaves: first split must be [a, b] vs [c]
        tree = LinkageTree(3, (Merge(0, 1, 0.1, 2), Merge(2, 3, 0.2, 3)))
        w = hrp_allocate(_cov(np.diag([1.0, 1.0, 4.0])), tree)
        # diagonal case collapses to IVP: (4/9, 4/9, 1/9)
        np.testing.assert_allclose(w.weights, [4 / 9, 4 / 9, 1 / 9], atol=1e-12)

    def test_leaf_count_mismatch(self):
        with pytest.raises(AllocationError, match="leaves"):
            hrp_allocate(_cov(np.eye(3) * 0.01), PAIR_TREE)


class TestHercAllocate:
    def test_two_cluster_inverse_mode(self):
        # std-dev risks (1, 3): inverse mode gives the low-risk side 0.75
        cov = _cov(np.diag([1.0, 9.0]))
        w = herc_allocate(cov, PAIR_TREE, HercParams(k=2))
        assert w.weights.tolist() == [0.75, 0.25]

    def test_two_cluster_paper_literal_mode(self):
        cov = _cov(np.diag([1.0, 9.0]))
        w = herc_allocate(cov, PAIR_TREE, HercParams(k=2, cluster_weighting="paper_literal"))
        assert w.weights.tolist() == [0.25, 0.75]

    def test_single_cluster_is_naive_risk_parity(self):
        cov = _cov(np.diag([1.0, 9.0]))
        w = herc_allocate(cov, PAIR_TREE, HercParams(k=1))
        np.testing.assert_allclose(w.weights, [0.75, 0.25], atol=1e-15)

    def test_variance_risk_measure(self):
        # variance risks (1, 9): k=1 parity weights (0.9, 0.1)
        cov = _cov(np.diag([1.0, 9.0]))
        w = herc_allocate(cov, PAIR_TREE, HercParams(k=1, risk_measure="variance"))
        np.testing.assert_allclose(w.weights, [0.9, 0.1], atol=1e-15)

    def test_four_asset_two_cluster_hand_trace(self):
        # stds (1,1,3,3); cluster risks 2 and 6; inverse split 0.75/0.25,
        # equal parity within each cluster
        cov = _cov(np.diag([1.0, 1.0, 9.0, 9.0]))
        w = herc_allocate(cov, _chain_tree_4(), HercParams(k=2))
        np.testing.assert_allclose(w.weights, [0.375, 0.375, 0.125, 0.125], atol=1e-15)

    def test_auto_k_requires_returns(self):
        cov = _cov(np.diag([1.0, 9.0]))
        with pytest.raises(AllocationError, match="return panel"):
            herc_allocate(cov, PAIR_TREE, HercParams(k="auto"))

    def test_k_above_leaf_count_rejected(self):
        cov = _cov(np.diag([1.0, 9.0]))
        with pytest.raises(AllocationError, match="out of range"):
            herc_allocate(cov, PAIR_TREE, HercParams(k=3))

    def test_bad_params_rejected(self):
        with pytest.raises(AllocationError, match="risk measure"):
            HercParams(risk_measure="mad")
        with pytest.raises(AllocationError, match="cluster weighting"):
            HercParams(cluster_weighting="equal")
        with pytest.raises(AllocationError, match="k must be"):
            HercParams(k=0)

    def test_gap_statistic_uses_configured_linkage_rule(
        self, synthetic_fixture, monkeypatch
    ):
        cfg = load_config(synthetic_fixture / "config.yaml")
        cfg.linkage_rule = "single"
        data = prepare_sector(cfg, cfg.sectors["alpha"], with_tree=True)
        rules = []

        def recording_gap(*args, **kwargs):
            rules.append(kwargs.get("linkage_rule"))
            return gap_optimal_k(*args, **kwargs)

        monkeypatch.setattr(allocators, "gap_optimal_k", recording_gap)
        fit_method(cfg, "herc", data)
        assert rules == ["single"]


class TestMvpOptimize:
    def _instance(self, seed=0, n=4, t=120):
        rng = np.random.default_rng(seed)
        rows = rng.normal(0.0005, 0.01, size=(t, n))
        r = make_returns(rows)
        return expected_returns(r), covariance(r)

    def test_deterministic_for_fixed_seed(self):
        mu, cov = self._instance()
        a = mvp_optimize(mu, cov, n_samples=200, seed=42)
        b = mvp_optimize(mu, cov, n_samples=200, seed=42)
        np.testing.assert_array_equal(a.max_sharpe.weights.weights, b.max_sharpe.weights.weights)
        assert [s.annual_volatility for s in a.frontier] == [
            s.annual_volatility for s in b.frontier
        ]

    def test_selected_samples_are_extremal(self):
        mu, cov = self._instance(1)
        res = mvp_optimize(mu, cov, n_samples=500, seed=1)
        sharpes = [s.sharpe for s in res.samples if s.sharpe is not None]
        vols = [s.annual_volatility for s in res.samples]
        assert res.max_sharpe.sharpe == max(sharpes)
        assert res.min_vol.annual_volatility == min(vols)

    def test_min_vol_sample_is_on_the_frontier(self):
        mu, cov = self._instance(2)
        res = mvp_optimize(mu, cov, n_samples=500, seed=2)
        assert any(s is res.min_vol for s in res.frontier)

    def test_frontier_is_monotone_in_return(self):
        mu, cov = self._instance(3)
        res = mvp_optimize(mu, cov, n_samples=500, seed=3)
        by_vol = sorted(res.frontier, key=lambda s: s.annual_volatility)
        for a, b in zip(by_vol, by_vol[1:]):
            if b.annual_volatility > a.annual_volatility:
                assert b.annual_return >= a.annual_return

    def test_sample_count_and_simplex(self):
        mu, cov = self._instance(4)
        res = mvp_optimize(mu, cov, n_samples=64, seed=4)
        assert len(res.samples) == 64
        for s in res.samples:
            assert abs(s.weights.weights.sum() - 1.0) <= 1e-9
            assert s.weights.weights.min() >= 0.0

    def test_ticker_mismatch_rejected(self):
        mu = ExpectedReturns(("A", "B"), np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(AllocationError, match="do not match"):
            mvp_optimize(mu, _cov(np.eye(2) * 1e-4, ("A", "C")))

    def test_n_samples_validated(self):
        mu, cov = self._instance(5)
        with pytest.raises(AllocationError, match="n_samples"):
            mvp_optimize(mu, cov, n_samples=0)


class TestWeightsCsv:
    def test_round_trip(self, tmp_path):
        w = WeightVector(("A", "B"), np.array([0.8, 0.2]))
        path = tmp_path / "w.csv"
        write_weights_csv(w, path)
        loaded = read_weights_csv(path)
        assert loaded.tickers == ("A", "B")
        np.testing.assert_array_equal(loaded.weights, w.weights)

    def test_byte_identical_rewrites(self, tmp_path):
        w = WeightVector(("A", "B"), np.array([1 / 3, 2 / 3]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_weights_csv(w, p1)
        write_weights_csv(w, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("name,value\nA,1\n", encoding="utf-8")
        with pytest.raises(AllocationError, match="header"):
            read_weights_csv(path)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("ticker,weight\nA,1.0\nB,oops\n", encoding="utf-8")
        with pytest.raises(AllocationError, match="line 3"):
            read_weights_csv(path)


def test_write_frontier_csv_schema(tmp_path):
    rng = np.random.default_rng(6)
    rows = rng.normal(0.0005, 0.01, size=(60, 3))
    r = make_returns(rows)
    res = mvp_optimize(expected_returns(r), covariance(r), n_samples=32, seed=6)
    path = tmp_path / "frontier.csv"
    write_frontier_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "return,volatility,sharpe"
    assert len(lines) == 33
    ret, vol, sharpe = lines[1].split(",")
    assert float(vol) > 0
    assert float(sharpe) == pytest.approx(float(ret) / float(vol), abs=1e-9)

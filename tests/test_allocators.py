import math
from types import SimpleNamespace

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
from portopt.hierclust import LinkageTree, Merge, agglomerate, gap_optimal_k
from portopt.pipeline import fit_method, prepare_sector
from portopt.riskstats import CovMatrix, ExpectedReturns
from reference_impls import make_returns
from portopt.riskstats import corr_to_distance, correlation, covariance, expected_returns


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
        np.testing.assert_array_equal(
            a.annual_volatility[a.frontier], b.annual_volatility[b.frontier]
        )

    def test_selected_samples_are_extremal(self):
        mu, cov = self._instance(1)
        res = mvp_optimize(mu, cov, n_samples=500, seed=1)
        assert res.max_sharpe.sharpe == np.nanmax(res.sharpe)
        assert res.min_vol.annual_volatility == res.annual_volatility.min()

    def test_min_vol_sample_is_on_the_frontier(self):
        mu, cov = self._instance(2)
        res = mvp_optimize(mu, cov, n_samples=500, seed=2)
        i = int(np.argmin(res.annual_volatility))
        assert res.min_vol.annual_volatility == res.annual_volatility[i]
        assert i in res.frontier.tolist()

    def test_frontier_is_monotone_in_return(self):
        mu, cov = self._instance(3)
        res = mvp_optimize(mu, cov, n_samples=500, seed=3)
        by_vol = sorted(res.frontier.tolist(), key=lambda i: res.annual_volatility[i])
        for a, b in zip(by_vol, by_vol[1:]):
            if res.annual_volatility[b] > res.annual_volatility[a]:
                assert res.annual_return[b] >= res.annual_return[a]

    def test_sample_count_and_simplex(self):
        mu, cov = self._instance(4)
        res = mvp_optimize(mu, cov, n_samples=64, seed=4)
        assert res.samples.shape == (64, 4)
        assert not res.samples.flags.writeable
        assert np.max(np.abs(res.samples.sum(axis=1) - 1.0)) <= 1e-9
        assert res.samples.min() >= 0.0

    def test_single_ticker_puts_every_sample_on_the_frontier(self):
        mu, cov = self._instance(7, n=1)
        res = mvp_optimize(mu, cov, n_samples=50, seed=7)
        assert res.frontier.tolist() == list(range(50))

    def test_zero_variance_pair_has_undefined_sharpe(self, tmp_path):
        mu = ExpectedReturns(("A", "B"), np.array([1e-4, 2e-4]), np.array([0.0252, 0.0504]))
        res = mvp_optimize(mu, _cov(np.zeros((2, 2)), ("A", "B")), n_samples=40, seed=8)
        assert res.max_sharpe.sharpe is None
        assert np.isnan(res.sharpe).all()
        assert res.frontier.tolist() == list(range(40))
        path = tmp_path / "frontier.csv"
        write_frontier_csv(res, path)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 40
        assert all(row.endswith(",") and row.count(",") == 2 for row in rows)

    def test_ticker_mismatch_rejected(self):
        mu = ExpectedReturns(("A", "B"), np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(AllocationError, match="do not match"):
            mvp_optimize(mu, _cov(np.eye(2) * 1e-4, ("A", "C")))

    def test_n_samples_validated(self):
        mu, cov = self._instance(5)
        with pytest.raises(AllocationError, match="n_samples"):
            mvp_optimize(mu, cov, n_samples=0)


def _hrp_herc(rows, k):
    r = make_returns(rows)
    cov = covariance(r)
    tree = agglomerate(corr_to_distance(correlation(r)), "ward")
    return hrp_allocate(cov, tree).weights, herc_allocate(cov, tree, HercParams(k=k)).weights


class TestInvariants:
    """Seeded random instances.  HRP is deliberately absent from the
    permutation test: merge children are ordered by node id, so its bisection
    order follows the input order of the tickers."""

    def _instance(self, rng):
        n = int(rng.integers(3, 13))
        rows = rng.normal(0.0005, 0.01, size=(250, n)) * rng.uniform(0.5, 2.0, size=n)
        return rows, int(rng.integers(1, n + 1))

    def test_herc_weights_follow_a_ticker_permutation(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            rows, k = self._instance(rng)
            perm = rng.permutation(rows.shape[1])
            _, herc = _hrp_herc(rows, k)
            _, herc_perm = _hrp_herc(rows[:, perm], k)
            np.testing.assert_allclose(herc_perm, herc[perm], rtol=1e-9, atol=0)

    def test_scaling_returns_leaves_weights_unchanged(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            rows, k = self._instance(rng)
            hrp, herc = _hrp_herc(rows, k)
            hrp_half, herc_half = _hrp_herc(0.5 * rows, k)
            np.testing.assert_allclose(hrp_half, hrp, rtol=1e-9, atol=0)
            np.testing.assert_allclose(herc_half, herc, rtol=1e-9, atol=0)


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


def _per_row_frontier_csv(result):
    """The per-row writer that write_frontier_csv's one-% rendering replaced."""
    lines = ["return,volatility,sharpe"]
    for ret, vol, sharpe in zip(
        result.annual_return.tolist(),
        result.annual_volatility.tolist(),
        result.sharpe.tolist(),
    ):
        sharpe = "" if math.isnan(sharpe) else format(sharpe, ".12g")
        lines.append(f"{format(ret, '.12g')},{format(vol, '.12g')},{sharpe}")
    return "\n".join(lines) + "\n"


class TestFrontierCsvBytes:
    EDGES = [-0.0, 0.0, 1e-300, 1e16, 5e-324, -5e-324, math.inf, -math.inf, 1 / 3, -2.5e-7]

    def _columns(self, ret, vol, sharpe):
        # the three arrays write_frontier_csv reads from an MvpResult
        return SimpleNamespace(
            annual_return=np.asarray(ret, dtype=float),
            annual_volatility=np.asarray(vol, dtype=float),
            sharpe=np.asarray(sharpe, dtype=float),
        )

    def _check(self, result, tmp_path):
        path = tmp_path / "frontier.csv"
        write_frontier_csv(result, path)
        assert path.read_bytes() == _per_row_frontier_csv(result).encode("utf-8")

    def test_seeded_samples(self, tmp_path):
        rng = np.random.default_rng(11)
        r = make_returns(rng.normal(0.0005, 0.01, size=(250, 6)))
        self._check(mvp_optimize(expected_returns(r), covariance(r), n_samples=3000, seed=11), tmp_path)

    def test_undefined_sharpe_rows(self, tmp_path):
        sharpe = np.array([0.5, math.nan, 1.25, math.nan])
        self._check(self._columns([0.1, 0.2, math.nan, 0.0], [0.2, 0.0, math.nan, 0.0], sharpe), tmp_path)

    def test_zero_rows(self, tmp_path):
        self._check(self._columns([], [], []), tmp_path)

    def test_edge_values_in_every_column(self, tmp_path):
        edges = np.array(self.EDGES)
        for shift in range(3):
            ret, vol, sharpe = np.roll(edges, shift), np.roll(edges, shift + 1), np.roll(edges, shift + 2)
            self._check(self._columns(ret, vol, sharpe), tmp_path)

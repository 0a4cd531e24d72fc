import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from portopt import allocators
from portopt._pool import fork_pool
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

    @pytest.mark.parametrize("n", [1, 2, 10, 49, 72])
    def test_samples_are_the_normalised_draws_bit_for_bit(self, n):
        mu, cov = self._instance(9, n=n, t=250)
        res = mvp_optimize(mu, cov, n_samples=1000, seed=9)
        draws = np.random.default_rng(9).random((1000, n))
        assert res.samples.tobytes() == (draws / draws.sum(axis=1, keepdims=True)).tobytes()

    def test_peak_memory_is_one_samples_matrix(self):
        n, n_samples = 72, 10_000
        mu, cov = self._instance(10, n=n, t=250)
        mvp_optimize(mu, cov, n_samples=10, seed=0)  # lazy numpy set-up, not measured
        tracemalloc.start()
        try:
            mvp_optimize(mu, cov, n_samples=n_samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n_samples * n * 8

    def test_ticker_mismatch_rejected(self):
        mu = ExpectedReturns(("A", "B"), np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(AllocationError, match="do not match"):
            mvp_optimize(mu, _cov(np.eye(2) * 1e-4, ("A", "C")))

    def test_n_samples_validated(self):
        mu, cov = self._instance(5)
        with pytest.raises(AllocationError, match="n_samples"):
            mvp_optimize(mu, cov, n_samples=0)


def _mvp_instance(seed, n, t=250):
    rng = np.random.default_rng(seed)
    r = make_returns(rng.normal(0.0005, 0.01, size=(t, n)))
    return expected_returns(r), covariance(r)


def _mvp_fields(res):
    """Every value of an MvpResult as comparable bytes and floats."""
    picks = [
        (p.weights.weights.tobytes(), p.annual_return, p.annual_volatility, p.sharpe)
        for p in (res.max_sharpe, res.min_vol)
    ]
    arrays = (res.annual_return, res.annual_volatility, res.sharpe, res.frontier)
    return [a.dtype.str + a.tobytes().hex() for a in arrays] + picks


class TestMvpBlocks:
    """mvp_optimize draws and scores its samples in row blocks; every output
    has the bits of scoring the whole (n_samples, n) matrix at once.

    Blocks are patched down to 4, 8 and 16 rows, so that a few samples span
    several of them.  The block size stays a power of two because BLAS scores
    a matrix-vector product's rows in groups of four plus a remainder, on
    different paths: blocks of 1, 3 or 7 rows change the last bit of up to
    78 % of the returns (n = 72, 10 000 samples)."""

    TIES = {
        # every Sharpe ratio undefined and every volatility 0: sample 0 wins both
        "zero_cov": (
            ExpectedReturns(("A", "B", "C"), np.array([1e-4, 2e-4, 0.0]), np.array([0.0252, 0.0504, 0.0])),
            _cov(np.zeros((3, 3)), ("A", "B", "C")),
        ),
        # every Sharpe ratio 0.0 (0/0 with a zero risk-free rate)
        "zero_cov_zero_mean": (
            ExpectedReturns(("A", "B", "C"), np.zeros(3), np.zeros(3)),
            _cov(np.zeros((3, 3)), ("A", "B", "C")),
        ),
        # one ticker: every sample has the same volatility
        "one_ticker": _mvp_instance(3, 1),
        "random_3": _mvp_instance(4, 3),
        "random_10": _mvp_instance(5, 10),
    }

    @pytest.mark.parametrize("block", [4, 8, 16])
    @pytest.mark.parametrize("case", sorted(TIES))
    def test_block_boundaries(self, monkeypatch, block, case):
        mu, cov = self.TIES[case]
        for n_samples in (1, block - 1, block, block + 1, block + 2, 2 * block + 1):
            want = mvp_optimize(mu, cov, n_samples=n_samples, seed=n_samples)
            with monkeypatch.context() as m:
                m.setattr(allocators, "_MVP_BLOCK_ROWS", block)
                got = mvp_optimize(mu, cov, n_samples=n_samples, seed=n_samples)
                assert got.samples.tobytes() == want.samples.tobytes()
            assert _mvp_fields(got) == _mvp_fields(want)

    @pytest.mark.parametrize("case", sorted(TIES))
    def test_block_boundaries_through_a_pool(self, monkeypatch, case):
        mu, cov = self.TIES[case]
        block = 4
        counts = (1, block, block + 1, 2 * block + 1, 4 * block + 1)
        want = [mvp_optimize(mu, cov, n_samples=c, seed=c) for c in counts]
        monkeypatch.setattr(allocators, "_MVP_BLOCK_ROWS", block)
        with fork_pool(2):
            got = [mvp_optimize(mu, cov, n_samples=c, seed=c) for c in counts]
        for c, g, w in zip(counts, got, want):
            assert _mvp_fields(g) == _mvp_fields(w), c

    @pytest.mark.parametrize("case", ["zero_cov", "zero_cov_zero_mean"])
    def test_ties_across_blocks_go_to_sample_0(self, monkeypatch, case):
        monkeypatch.setattr(allocators, "_MVP_BLOCK_ROWS", 4)
        res = mvp_optimize(*self.TIES[case], n_samples=13, seed=1)
        assert np.isnan(res.sharpe).all() if case == "zero_cov" else (res.sharpe == 0.0).all()
        first = res.samples[0].tobytes()
        assert res.max_sharpe.weights.weights.tobytes() == first
        assert res.min_vol.weights.weights.tobytes() == first

    def test_a_lone_last_row_joins_its_block(self, monkeypatch):
        monkeypatch.setattr(allocators, "_MVP_BLOCK_ROWS", 4)
        for n_samples, sizes in ((1, [1]), (4, [4]), (5, [5]), (6, [4, 2]), (9, [4, 5]), (12, [4, 4, 4])):
            got = [rows for _, rows in allocators._block_bounds(n_samples)]
            assert got == sizes, n_samples

    @pytest.mark.parametrize("n", [1, 2, 10, 49, 72])
    def test_selected_weights_are_the_normalised_draws_bit_for_bit(self, n):
        mu, cov = _mvp_instance(9, n)
        res = mvp_optimize(mu, cov, n_samples=3000, seed=9)  # three blocks
        draws = np.random.default_rng(9).random((3000, n))
        weights = draws / draws.sum(axis=1, keepdims=True)
        top = int(np.argmax(np.where(np.isnan(res.sharpe), -np.inf, res.sharpe)))
        low = int(np.argmin(res.annual_volatility))
        assert res.max_sharpe.weights.weights.tobytes() == weights[top].tobytes()
        assert res.min_vol.weights.weights.tobytes() == weights[low].tobytes()

    def test_samples_is_a_read_only_redraw(self):
        mu, cov = _mvp_instance(6, 5)
        res = mvp_optimize(mu, cov, n_samples=2500, seed=6)
        assert all(np.ndim(getattr(res, f.name)) < 2 for f in dataclasses.fields(res))
        with pytest.raises(AttributeError):
            res.samples = np.zeros((2500, 5))
        first, second = res.samples, res.samples
        assert first.shape == (2500, 5)
        assert not first.flags.writeable
        draws = np.random.default_rng(6).random((2500, 5))
        assert first.tobytes() == (draws / draws.sum(axis=1, keepdims=True)).tobytes()
        assert second is not first and not np.shares_memory(first, second)
        assert second.tobytes() == first.tobytes()

    def test_samples_of_an_unseeded_fit_are_its_draws(self):
        mu, cov = _mvp_instance(7, 4)
        res = mvp_optimize(mu, cov, n_samples=50, seed=None)
        again = mvp_optimize(mu, cov, n_samples=50, seed=res.seed)
        assert again.samples.tobytes() == res.samples.tobytes()
        assert _mvp_fields(again) == _mvp_fields(res)

    def test_generator_seed_rejected(self):
        mu, cov = _mvp_instance(7, 4)
        with pytest.raises(AllocationError, match="seed must be an int"):
            mvp_optimize(mu, cov, n_samples=50, seed=np.random.default_rng(0))

    @pytest.mark.parametrize("n, bound_mib", [(72, 1.25), (500, 6)])
    def test_peak_memory_is_one_block(self, n, bound_mib):
        mu, cov = _mvp_instance(10, n)
        mvp_optimize(mu, cov, n_samples=10, seed=0)  # lazy numpy set-up, not measured
        tracemalloc.start()
        try:
            mvp_optimize(mu, cov, n_samples=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20


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

    def test_bom_and_crlf_read_as_plain(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"ticker,weight\nA,0.25\nB,0.75\n")
        bom.write_bytes(b"\xef\xbb\xbfticker,weight\r\nA,0.25\r\nB,0.75\r\n")
        want, got = read_weights_csv(plain), read_weights_csv(bom)
        assert got.tickers == want.tickers == ("A", "B")
        np.testing.assert_array_equal(got.weights, want.weights)

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

    @pytest.mark.parametrize(
        "body, match",
        [
            (b"ticker,weight\nA,0.5\nB,0.5\xff\n", "cannot read"),
            (b"ticker,weight\nA,0.5\n../x,0.5\n", "line 3: ticker '../x' is not one path"),
            (b"ticker,weight\nA,0.5\n,0.5\n", "line 3: ticker '' is not one path"),
            (b"ticker,weight\nA,0.5\nA,0.5\n", "line 3: repeated ticker 'A'"),
        ],
        ids=["not_utf8", "dotdot", "empty", "repeated"],
    )
    def test_malformed_file_rejected_by_name(self, tmp_path, body, match):
        path = tmp_path / "w.csv"
        path.write_bytes(body)
        with pytest.raises(AllocationError, match=match) as info:
            read_weights_csv(path)
        assert str(info.value).startswith(f"{path}: ")


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

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_block_boundaries(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(allocators, "_FRONTIER_BLOCK_ROWS", block)
        rng = np.random.default_rng(block)
        for rows in (0, 1, block - 1, block, block + 1, 2 * block + 1):
            ret, vol = rng.normal(0.1, 0.2, rows), rng.uniform(0.01, 0.5, rows)
            sharpe = ret / vol
            sharpe[block - 1::block] = math.nan  # the last row of each full block
            sharpe[-1:] = math.nan  # and of the file
            self._check(self._columns(ret, vol, sharpe), tmp_path)

    def test_peak_memory_does_not_grow_with_the_rows(self, tmp_path):
        rng = np.random.default_rng(12)
        ret, vol = rng.normal(0.1, 0.2, 10_000), rng.uniform(0.0, 0.5, 10_000)
        vol[::50] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            result = self._columns(ret, vol, np.where(vol == 0.0, math.nan, ret / vol))
        tracemalloc.start()
        try:
            write_frontier_csv(result, tmp_path / "frontier.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 2**20

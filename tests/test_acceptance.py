"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of failures) and enforces its runtime budget.

REFERENCE_TRAIN / REFERENCE_TEST are frozen copies of the published sector
comparison tables this toolkit is built to reproduce: per sector, annualized
return %, annualized volatility %, and Sharpe ratio for each of the three
allocation methods over the training and held-out periods.
"""

import math
import time

import numpy as np
import pytest

from portopt.allocators import (
    HercParams,
    herc_allocate,
    hrp_allocate,
    mvp_optimize,
)
from portopt.backtest import cumulative_series, summarize
from portopt.config import load_config
from portopt.hierclust import (
    LinkageTree,
    agglomerate,
    gap_optimal_k,
    quasi_diagonalize,
)
from portopt.pipeline import run_pipeline
from portopt.riskstats import (
    CovMatrix,
    DistanceMatrix,
    ExpectedReturns,
    PerfMetrics,
    covariance,
    expected_returns,
    portfolio_metrics,
    portfolio_variance,
    sharpe_ratio,
)
from portopt.allocators import WeightVector
from reference_impls import (
    block_return_panel,
    ivp_weights,
    make_returns,
    naive_linkage,
    random_distance_matrix,
    random_psd_cov,
    random_tree,
)

# (sector, (MVP ret%, vol%, SR), (HRP ...), (HERC ...)) - training period
REFERENCE_TRAIN = [
    ("Auto", (26.32, 25.35, 1.0385), (26.28, 27.18, 0.9670), (29.38, 41.92, 0.7009)),
    ("Banking", (10.81, 28.79, 0.3755), (9.91, 31.92, 0.3104), (6.45, 34.12, 0.1890)),
    ("Financial Services", (6.81, 24.02, 0.2834), (10.48, 25.88, 0.4051), (9.56, 32.25, 0.2956)),
    ("Consumer Durables", (16.80, 20.05, 0.8380), (20.13, 20.63, 0.9757), (13.16, 26.33, 0.4998)),
    ("FMCG", (15.65, 18.33, 0.8539), (15.83, 18.97, 0.8347), (12.47, 20.53, 0.6071)),
    ("IT", (26.83, 24.24, 1.1023), (29.82, 25.42, 1.1730), (29.60, 28.87, 1.0253)),
    ("Media", (21.11, 26.42, 0.7991), (24.85, 27.90, 0.8906), (22.26, 34.02, 0.6543)),
    ("Metal", (52.03, 33.70, 1.5441), (47.14, 35.86, 1.3145), (46.10, 37.29, 1.2363)),
    ("Mid-Small IT & Telecom", (32.93, 23.96, 1.3744), (38.43, 24.83, 1.5475), (41.57, 28.86, 1.4404)),
    ("Oil & Gas", (10.02, 23.25, 0.4310), (15.38, 24.86, 0.6189), (21.75, 26.67, 0.8158)),
    ("Pharma", (25.38, 20.71, 1.2255), (26.23, 21.79, 1.2039), (26.53, 29.33, 0.9044)),
    ("Private Banks", (3.56, 28.42, 0.1253), (0.27, 31.62, 0.0084), (-5.49, 37.23, -0.1474)),
    ("PSU Banks", (7.55, 35.28, 0.2141), (0.13, 37.02, 0.0035), (-0.41, 30.44, -0.1002)),
    ("Realty", (30.21, 29.35, 1.0293), (26.72, 30.26, 0.8831), (37.23, 40.66, 0.9172)),
    ("NIFTY 50", (15.63, 17.16, 0.9106), (19.80, 20.35, 0.9727), (24.10, 20.42, 1.1802)),
]

# same layout - held-out test period
REFERENCE_TEST = [
    ("Auto", (35.03, 16.07, 2.1795), (32.41, 15.39, 2.1061), (19.32, 20.52, 0.9416)),
    ("Banking", (27.98, 15.88, 1.6436), (40.49, 17.73, 2.0356), (44.10, 18.82, 2.1931)),
    ("Financial Services", (19.79, 13.39, 1.4775), (22.19, 13.97, 1.5889), (30.71, 18.72, 1.6407)),
    ("Consumer Durables", (16.52, 21.18, 0.7892), (16.30, 18.92, 0.8615), (10.41, 18.56, 0.5610)),
    ("FMCG", (32.80, 12.75, 2.517), (30.54, 12.13, 2.5170), (19.98, 14.30, 1.3977)),
    ("IT", (5.78, 19.25, 0.3006), (8.54, 20.28, 0.4214), (11.65, 21.00, 0.5546)),
    ("Media", (17.54, 21.66, 0.8100), (13.50, 21.00, 0.6431), (9.13, 22.75, 0.4013)),
    ("Metal", (36.53, 24.02, 1.5210), (43.03, 23.70, 1.8153), (43.64, 23.23, 1.8783)),
    ("Mid-Small IT & Telecom", (36.98, 16.96, 2.1798), (37.81, 17.89, 2.1131), (28.32, 20.33, 1.3931)),
    ("Oil & Gas", (10.09, 13.67, 0.7386), (7.27, 13.76, 0.5286), (-1.81, 16.50, -0.1097)),
    ("Pharma", (14.88, 12.79, 1.1640), (18.20, 13.20, 1.3788), (22.94, 15.89, 1.4437)),
    ("Private Banks", (17.35, 16.94, 1.0245), (28.17, 17.65, 1.5963), (42.85, 20.17, 2.1239)),
    ("PSU Banks", (44.16, 27.34, 1.6153), (58.67, 31.21, 1.8797), (60.45, 31.97, 1.8910)),
    ("Realty", (17.76, 18.29, 0.9708), (18.43, 18.49, 0.9966), (32.06, 25.59, 1.2517)),
    ("NIFTY 50", (20.46, 9.47, 2.1607), (21.84, 10.28, 2.1238), (13.76, 11.55, 1.1914)),
]

METHODS = ("MVP", "HRP", "HERC")

# the test-period FMCG MVP Sharpe cell is a known misprint in the source table
KNOWN_TYPO_CELLS = {("test", "FMCG", "MVP")}


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")


def _elapsed_ok(num, name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} ({name}) took {elapsed:.1f}s >= {budget}s"


def test_criterion_01_sharpe_identity_vs_reference_tables():
    t0 = time.perf_counter()
    failures = []
    for period, table in (("train", REFERENCE_TRAIN), ("test", REFERENCE_TEST)):
        for sector, *triples in table:
            for method, (ret, vol, expect_sr) in zip(METHODS, triples):
                if (period, sector, method) in KNOWN_TYPO_CELLS:
                    continue
                got = sharpe_ratio(ret / 100.0, vol / 100.0, 0.0)
                if abs(got - expect_sr) > 0.01:
                    failures.append(
                        f"{period}/{sector}/{method}: "
                        f"{got:.4f} vs {expect_sr:.4f} (diff {abs(got - expect_sr):.4f})"
                    )
    ok = not failures
    _verdict(1, "sharpe identity vs reference tables", ok,
             f"{len(failures)} cells beyond tolerance" if failures else "89 cells")
    _elapsed_ok(1, "sharpe identity", t0, 1.0)
    assert ok, "cells violating |SR - Ret/Vol| <= 0.01:\n" + "\n".join(failures)


def test_criterion_02_training_winner_counts():
    t0 = time.perf_counter()
    metrics = {}
    for sector, *triples in REFERENCE_TRAIN:
        metrics[sector] = {
            method: PerfMetrics(ret / 100.0, vol / 100.0, sr)
            for method, (ret, vol, sr) in zip(METHODS, triples)
        }
    table = summarize(metrics)
    sharpe_counts = tuple(table.overall[m]["sharpe"] for m in METHODS)
    vol_counts = tuple(table.overall[m]["annual_volatility"] for m in METHODS)
    ok = sharpe_counts == (8, 5, 2) and vol_counts == (14, 0, 1)
    _verdict(2, "training winner counts", ok,
             f"sharpe {sharpe_counts}, volatility {vol_counts}")
    _elapsed_ok(2, "winner counts", t0, 1.0)
    assert sharpe_counts == (8, 5, 2)
    assert vol_counts == (14, 0, 1)


def test_criterion_03_hrp_equals_ivp_on_diagonal_covariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        variances = rng.uniform(0.5, 5.0, size=n) * 1e-4
        cov = CovMatrix(tuple(str(i) for i in range(n)), np.diag(variances))
        tree = random_tree(rng, n)
        diff = np.abs(hrp_allocate(cov, tree).weights - ivp_weights(cov).weights)
        worst = max(worst, float(diff.max()))
    ok = worst <= 1e-12
    _verdict(3, "hrp equals ivp on diagonal covariance", ok, f"max diff {worst:.2e}")
    _elapsed_ok(3, "hrp=ivp", t0, 5.0)
    assert ok


def _tree_from_cov(cov):
    stds = np.sqrt(np.diag(cov.values))
    corr = np.clip(cov.values / np.outer(stds, stds), -1.0, 1.0)
    dist = np.sqrt(np.clip((1.0 - corr) / 2.0, 0.0, 1.0))
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return agglomerate(DistanceMatrix(cov.tickers, dist))


def test_criterion_04_all_allocators_return_simplex_weights():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 16))
        cov = random_psd_cov(rng, n)
        tree = _tree_from_cov(cov)
        mu_daily = rng.normal(0.0, 0.001, size=n)
        mu = ExpectedReturns(cov.tickers, mu_daily, mu_daily * 252)
        k = int(rng.integers(1, n + 1))
        results = [
            ivp_weights(cov),
            hrp_allocate(cov, tree),
            herc_allocate(cov, tree, HercParams(k=k)),
            mvp_optimize(mu, cov, n_samples=80, seed=int(rng.integers(1 << 31))).max_sharpe.weights,
        ]
        for w in results:
            assert abs(w.weights.sum() - 1.0) <= 1e-9
            assert w.weights.min() >= 0.0
            checked += 1
    _verdict(4, "simplex invariants across allocators", True, f"{checked} weight vectors")
    _elapsed_ok(4, "simplex invariants", t0, 30.0)


def test_criterion_05_mvp_dominance_and_pareto_frontier():
    t0 = time.perf_counter()
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        rows = rng.normal(0.0004, 0.012, size=(260, 5))
        r = make_returns(rows)
        res = mvp_optimize(expected_returns(r), covariance(r), n_samples=10000, seed=trial)

        rets, vols = res.annual_return, res.annual_volatility
        sharpes = np.where(np.isnan(res.sharpe), -np.inf, res.sharpe)
        assert res.max_sharpe.sharpe >= sharpes.max()
        assert res.min_vol.annual_volatility <= vols.min()

        # brute-force dominance flags, blockwise to bound memory
        dominated = np.empty(len(rets), dtype=bool)
        for lo in range(0, len(rets), 1000):
            hi = lo + 1000
            dominated[lo:hi] = np.any(
                (rets[None, :] > rets[lo:hi, None]) & (vols[None, :] < vols[lo:hi, None]),
                axis=1,
            )
        frontier_idx = res.frontier.tolist()
        expected_idx = sorted(np.flatnonzero(~dominated).tolist())
        assert frontier_idx == expected_idx
    _verdict(5, "mvp dominance and pareto frontier", True, "20 instances x 10000 samples")
    _elapsed_ok(5, "mvp dominance", t0, 60.0)


def test_criterion_06_clustering_matches_naive_reference():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    instances = [random_distance_matrix(rng, int(rng.integers(2, 6))) for _ in range(100)]
    # hand-traced fixture: d(A,B)=1, d(A,C)=d(B,C)=4, scaled by 1/4
    fixture = DistanceMatrix(
        ("A", "B", "C"), np.array([[0, 0.25, 1], [0.25, 0, 1], [1, 1, 0.0]])
    )
    instances.append(fixture)
    for dist in instances:
        for rule in ("ward", "single"):
            tree = agglomerate(dist, rule)
            for m, (a, b, h, size) in enumerate(naive_linkage(dist.values, rule)):
                assert (tree.left[m], tree.right[m], tree.size[m]) == (a, b, size)
                assert tree.height[m] == pytest.approx(h, abs=1e-9)
    ward_fixture = agglomerate(fixture, "ward")
    assert ward_fixture.height[1] * 4 == pytest.approx(math.sqrt(21), abs=1e-12)
    _verdict(6, "clustering matches naive reference", True, "101 instances, both rules")
    _elapsed_ok(6, "clustering oracle", t0, 10.0)


def test_criterion_07_quasi_diagonalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        assert sorted(quasi_diagonalize(random_tree(rng, n))) == list(range(n))
    balanced = LinkageTree(4, (0, 2, 4), (1, 3, 5), (0.1, 0.2, 0.3), (2, 2, 4))
    caterpillar = LinkageTree(4, (1, 0, 5), (2, 4, 3), (0.1, 0.2, 0.3), (2, 3, 4))
    assert quasi_diagonalize(balanced) == [0, 1, 2, 3]
    assert quasi_diagonalize(caterpillar) == [0, 1, 2, 3]
    _verdict(7, "quasi-diagonalization permutations and fixtures", True,
             "100 random trees + 2 fixtures")
    _elapsed_ok(7, "quasi-diagonalization", t0, 5.0)


def test_criterion_08_gap_statistic_recovers_three_blocks():
    t0 = time.perf_counter()
    hits = sum(
        gap_optimal_k(block_return_panel(seed), b_refs=50, seed=seed) == 3
        for seed in range(100)
    )
    ok = hits >= 95
    _verdict(8, "gap statistic recovers 3 blocks", ok, f"{hits}/100 seeds")
    _elapsed_ok(8, "gap statistic", t0, 120.0)
    assert ok


def test_criterion_09_herc_hand_oracles():
    t0 = time.perf_counter()
    pair_tree = LinkageTree(2, (0,), (1,), (0.5,), (2,))
    cov = CovMatrix(("A", "B"), np.diag([1.0, 9.0]))  # std-dev risks (1, 3)

    inverse = herc_allocate(cov, pair_tree, HercParams(k=2))
    assert inverse.weights.tolist() == [0.75, 0.25]
    literal = herc_allocate(cov, pair_tree, HercParams(k=2, cluster_weighting="paper_literal"))
    assert literal.weights.tolist() == [0.25, 0.75]

    # naive risk parity inside a single root cluster
    parity = herc_allocate(cov, pair_tree, HercParams(k=1))
    np.testing.assert_allclose(parity.weights, [0.75, 0.25], atol=1e-12)

    # two 2-member clusters: split 0.75/0.25, equal parity within each
    cov4 = CovMatrix(tuple("ABCD"), np.diag([1.0, 1.0, 9.0, 9.0]))
    tree4 = LinkageTree(4, (0, 2, 4), (1, 3, 5), (0.1, 0.2, 0.3), (2, 2, 4))
    nested = herc_allocate(cov4, tree4, HercParams(k=2))
    np.testing.assert_allclose(nested.weights, [0.375, 0.375, 0.125, 0.125], atol=1e-12)
    _verdict(9, "herc hand oracles", True, "4 fixtures")
    _elapsed_ok(9, "herc hand oracles", t0, 1.0)


def test_criterion_10_backtest_compounding_and_annualization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(100):
        daily = rng.normal(0.0, 0.01, size=int(rng.integers(2, 300)))
        out = cumulative_series(daily)
        acc, expect = 1.0, np.empty_like(out)
        for i, d in enumerate(daily):
            acc *= 1.0 + d
            expect[i] = acc - 1.0
        assert np.max(np.abs(out - expect)) <= 1e-10

    rows = rng.normal(0.0003, 0.011, size=(120, 1))
    r = make_returns(rows)
    w = WeightVector(r.tickers, np.array([1.0]))
    metrics = portfolio_metrics(w, r)
    daily_std = math.sqrt(portfolio_variance(w, covariance(r)))
    assert metrics.annual_volatility == daily_std * math.sqrt(252)
    _verdict(10, "backtest compounding and annualization", True,
             "100 series; ratio exactly sqrt(252)")
    _elapsed_ok(10, "backtest oracle", t0, 5.0)


def test_criterion_11_end_to_end_determinism(synthetic_fixture, tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for run in ("one", "two"):
        cfg = load_config(synthetic_fixture / "config.yaml")
        cfg.output_dir = tmp_path / run
        manifest = run_pipeline(cfg)
        assert manifest.failures == {}
        files = {
            p.relative_to(cfg.output_dir): p.read_bytes()
            for p in sorted(cfg.output_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"  # manifest embeds paths
        }
        outputs.append(files)
    first, second = outputs
    assert first.keys() == second.keys()
    diffs = [str(name) for name in first if first[name] != second[name]]
    ok = not diffs
    _verdict(11, "end-to-end determinism", ok,
             f"{len(first)} artifacts byte-identical" if ok else f"diffs: {diffs}")
    _elapsed_ok(11, "determinism", t0, 60.0)
    assert ok

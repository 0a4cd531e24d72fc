"""A numeric oracle for the fixture's run tree.

Every number is recomputed from the fixture's ticker CSVs, read with csv,
in plain Python: lists, math.fsum, the naive linkage and gap oracles of
reference_impls, and MVP samples redrawn from default_rng(seed).  portopt
itself is only run, through its command line.  Numbers match at a relative
tolerance of 1e-9 (a weights or summary cell keeps 12 significant digits);
k, the MVP picks, the dates, the winners and each dendrogram's merges,
sizes and leaves match exactly.
"""

import csv
import datetime as dt
import itertools
import json
import math
import operator
import shutil

import numpy as np
import pytest
import yaml

from portopt.cli import main
from reference_impls import block_return_panel, naive_gap_curves, naive_linkage

REL = 1e-9
DAYS = 252  # the config's default annualization
# the fixture's config sets no rate; a nonzero one shows whether it is subtracted
RATE = 0.03
LABELS = {"mvp": "MVP", "hrp": "HRP", "herc": "HERC"}
METRICS = ("annual_return", "annual_volatility", "sharpe")


def close(got, want):
    return math.isclose(got, want, rel_tol=REL)


def mean(xs):
    return math.fsum(xs) / len(xs)


def read_closes(path):
    with open(path, newline="", encoding="utf-8") as f:
        return {dt.date.fromisoformat(row["Date"]): float(row["Close"]) for row in csv.DictReader(f)}


def period_returns(cfg, tickers):
    """{period: (dates, rows)}: the daily returns of each period over the
    dates every ticker has (align: intersect), row t dated at its close."""
    series = [read_closes(cfg["root"] / cfg["data_dir"] / f"{t}.csv") for t in tickers]
    days = sorted(set.intersection(*map(set, series)))
    days = [d for d in days if cfg["train_start"] <= d <= cfg["test_end"]]
    periods = {
        "train": [d for d in days if d <= cfg["train_end"]],
        "test": [d for d in days if d > cfg["train_end"]],
    }
    return {
        period: (days[1:], [[s[b] / s[a] - 1.0 for s in series] for a, b in zip(days, days[1:])])
        for period, days in periods.items()
    }


def covariance(rows):
    """Sample covariance, divisor T - 1."""
    cols = list(zip(*rows))
    means = [mean(c) for c in cols]
    return [
        [math.fsum((x - mi) * (y - mj) for x, y in zip(ci, cj)) / (len(rows) - 1)
         for cj, mj in zip(cols, means)]
        for ci, mi in zip(cols, means)
    ]


def quadratic(w, cov):
    return math.fsum(wi * wj * c for wi, row in zip(w, cov) for wj, c in zip(w, row))


def scores(w, mu_annual, cov):
    """(annual return, annual volatility, Sharpe ratio) of weights w."""
    ret = math.fsum(wi * m for wi, m in zip(w, mu_annual))
    vol = math.sqrt(DAYS * quadratic(w, cov))
    return ret, vol, (ret - RATE) / vol


def distances(cov):
    n = len(cov)
    corr = [[cov[i][j] / math.sqrt(cov[i][i] * cov[j][j]) for j in range(n)] for i in range(n)]
    return [[0.0 if i == j else math.sqrt((1.0 - corr[i][j]) / 2.0) for j in range(n)] for i in range(n)]


def leaves(node, merges):
    n = len(merges) + 1
    if node < n:
        return [node]
    a, b = merges[node - n][:2]
    return leaves(a, merges) + leaves(b, merges)


def gap_k(dist, b_refs, seed):
    """The smallest k with Gap(k) >= Gap(k+1) - s(k+1), k_max = min(10, n-1)."""
    n = len(dist)
    k_max = min(10, n - 1)
    if k_max == 1:
        return 1
    k_hi = min(k_max + 1, n)
    observed, *refs = naive_gap_curves(np.array(dist), k_hi, b_refs, seed, "ward").tolist()

    def gap_and_s(j):
        column = [ref[j] for ref in refs]
        m = mean(column)
        sd = math.sqrt(math.fsum((x - m) ** 2 for x in column) / len(column))
        return m - observed[j], sd * math.sqrt(1.0 + 1.0 / b_refs)

    for k in range(1, k_hi):
        if gap_and_s(k - 1)[0] >= gap_and_s(k)[0] - gap_and_s(k)[1]:
            return k
    return k_max


def hrp_weights(cov, merges):
    """Recursive bisection of the dendrogram's leaf order, left half first."""
    weights = [1.0] * len(cov)

    def ivp_variance(members):
        inv = [1.0 / cov[i][i] for i in members]
        w = [x / math.fsum(inv) for x in inv]
        return quadratic(w, [[cov[i][j] for j in members] for i in members])

    def bisect(group):
        if len(group) < 2:
            return
        half = (len(group) + 1) // 2
        v_left, v_right = ivp_variance(group[:half]), ivp_variance(group[half:])
        for i in group[:half]:
            weights[i] *= v_right / (v_left + v_right)
        for i in group[half:]:
            weights[i] *= v_left / (v_left + v_right)
        bisect(group[:half])
        bisect(group[half:])

    bisect(leaves(2 * len(merges), merges))
    return [w / math.fsum(weights) for w in weights]


def herc_weights(cov, merges, k):
    """Risk (the sum of the members' volatilities) splits weight down the
    top k-1 merges, the riskier side getting less; inverse-volatility parity
    inside each of the k clusters."""
    n = len(cov)
    risk = [math.sqrt(cov[i][i]) for i in range(n)]
    weights = [0.0] * n

    def allocate(node, share):
        if node < 2 * n - k:  # merge n+s is among the top k-1 iff s >= n-k
            members = leaves(node, merges)
            inv = [1.0 / risk[i] for i in members]
            for i, x in zip(members, inv):
                weights[i] = share * x / math.fsum(inv)
            return
        a, b = merges[node - n][:2]
        r_a, r_b = (math.fsum(risk[i] for i in leaves(c, merges)) for c in (a, b))
        allocate(a, share * r_b / (r_a + r_b))
        allocate(b, share * r_a / (r_a + r_b))

    allocate(2 * n - 2, 1.0)
    return weights


def mvp_samples(mu_annual, cov, n_samples, seed):
    """[(weights, (return, volatility, Sharpe))] of each uniform draw / its sum."""
    draws = np.random.default_rng(seed).random((n_samples, len(cov))).tolist()
    samples = []
    for row in draws:
        w = [x / math.fsum(row) for x in row]
        samples.append((w, scores(w, mu_annual, cov)))
    return samples


def clear_pick(values, pick):
    """The index pick(values) gives, once no other value lies within REL of
    its value: only then can an exact match of indices be asked for."""
    i = pick(range(len(values)), key=values.__getitem__)
    assert all(j == i or not close(v, values[i]) for j, v in enumerate(values))
    return i


def read_weights(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "ticker,weight"
    return [float(line.split(",")[1]) for line in lines[1:]]


def assert_weights(path, want):
    got = read_weights(path)
    assert len(got) == len(want) and all(map(close, got, want)), (path, got, want)


def assert_dendrogram(path, tickers, merges):
    """The dendrogram JSON at path against the naive merges: every merge's
    children and size exactly and its height at REL, and every leaf's ticker."""
    doc = json.loads(path.read_text())
    n = len(tickers)
    assert (doc["format"], doc["n_leaves"], doc["root"]["id"]) == ("dendrogram", n, 2 * n - 2)
    seen, stack = [], [doc["root"]]
    while stack:
        node = stack.pop()
        seen.append(node["id"])
        if node["id"] < n:
            assert node == {"id": node["id"], "ticker": tickers[node["id"]]}, (path, node)
            continue
        a, b, height, size = merges[node["id"] - n]
        assert [c["id"] for c in node["children"]] == [a, b] and node["size"] == size, (path, node["id"])
        assert close(node["height"], height), (path, node["id"], node["height"], height)
        stack.extend(node["children"])
    assert sorted(seen) == list(range(2 * n - 1)), path


def sector_oracle(cfg, tickers):
    """One sector's recomputed values: weights {method: list}, reports
    {method: {period: (metrics, dates, wealth)}}, where wealth is 1 + the
    cumulative return on each day, the MVP samples and picks (max-Sharpe,
    min-vol), HERC's k, and the training covariance and merges that the tree
    methods use."""
    returns = period_returns(cfg, tickers)
    train_rows = returns["train"][1]
    cov = covariance(train_rows)
    mu_annual = [mean(c) * DAYS for c in zip(*train_rows)]
    dist = distances(cov)
    merges = naive_linkage(dist, "ward")
    herc = cfg["methods"]["herc"]
    k = gap_k(dist, herc["gap_b_refs"], herc["seed"])
    mvp = cfg["methods"]["mvp"]
    samples = mvp_samples(mu_annual, cov, mvp["n_samples"], mvp["seed"])
    top = clear_pick([s[1][2] for s in samples], max)
    low = clear_pick([s[1][1] for s in samples], min)
    weights = {"mvp": samples[top][0], "hrp": hrp_weights(cov, merges), "herc": herc_weights(cov, merges, k)}

    reports = {}
    for method, w in weights.items():
        reports[method] = {}
        for period, (dates, rows) in returns.items():
            cols = list(zip(*rows))
            got = scores(w, [mean(c) * DAYS for c in cols], covariance(rows))
            daily = (1.0 + math.fsum(wi * x for wi, x in zip(w, row)) for row in rows)
            wealth = list(itertools.accumulate(daily, operator.mul))
            reports[method][period] = (got, [d.isoformat() for d in dates], wealth)
    return {"weights": weights, "reports": reports, "samples": samples, "picks": (top, low),
            "k": k, "cov": cov, "merges": merges}


def winners(rows):
    """{metric: (label, tie)}: the best of the methods in order, first on a tie."""
    out = {}
    for m, name in enumerate(METRICS):
        values = [row[m] for row in rows.values()]
        best = min(values) if name == "annual_volatility" else max(values)
        out[name] = (list(rows)[values.index(best)], values.count(best) > 1)
    return out


@pytest.fixture(scope="module")
def oracle_run(synthetic_fixture, tmp_path_factory):
    """A copy of the fixture with risk_free_rate set, its run tree, and the
    herc weights of `optimize` at a fixed k = 2: the gap statistic picks k = 1
    on both fixture sectors, where HERC never reads its tree."""
    root = tmp_path_factory.mktemp("oracle") / "synthetic"
    shutil.copytree(synthetic_fixture, root)
    config = root / "config.yaml"
    text = config.read_text()
    assert "risk_free_rate" not in text and "annualization_days" not in text and "align" not in text
    config.write_text(text.replace("test_end:", f"risk_free_rate: {RATE}\ntest_end:", 1))
    argv = ["--config", str(config)]
    assert main(["run", *argv, "--out", str(root / "run")]) == 0
    config.write_text(config.read_text().replace("    k: auto\n", "    k: 2\n", 1))
    assert main(["optimize", *argv, "--out", str(root / "k2"), "--method", "herc"]) == 0
    cfg = yaml.safe_load(config.read_text())
    cfg["root"] = root
    return cfg, root


def test_the_fixture_run_tree_matches_an_independent_recomputation(oracle_run):
    cfg, root = oracle_run
    out = root / "run"
    by_period = {"train": {}, "test": {}}
    for sector, tickers in sorted(cfg["sectors"].items()):
        want = sector_oracle(cfg, tickers)
        assert want["k"] == 1  # the gap statistic's pick on both fixture sectors
        for method in LABELS:
            assert_weights(out / sector / f"{method}_weights.csv", want["weights"][method])
        assert_weights(root / "k2" / sector / "herc_weights.csv",
                       herc_weights(want["cov"], want["merges"], 2))
        for method in ("hrp", "herc"):
            assert_dendrogram(out / sector / f"{method}_dendrogram.json", tickers, want["merges"])

        # every sample's scores, and the two picks by index
        lines = (out / sector / "mvp_frontier.csv").read_text().splitlines()
        frontier = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(frontier) == len(want["samples"])
        for got, (_, scored) in zip(frontier, want["samples"]):
            assert all(map(close, got, scored)), (got, scored)
        top, low = want["picks"]
        assert top == max(range(len(frontier)), key=lambda i: frontier[i][2])
        assert low == min(range(len(frontier)), key=lambda i: frontier[i][1])

        for method, periods in want["reports"].items():
            for period, (metrics, dates, wealth) in periods.items():
                report = json.loads((out / sector / f"{method}_{period}_report.json").read_text())
                got = report["metrics"]
                assert all(close(got[name], v) for name, v in zip(METRICS, metrics)), (got, metrics)
                assert got["risk_free_rate"] == RATE
                assert report["dates"] == dates
                # compared as wealth, 1 + the cumulative return, which is far from 0
                series = report["cumulative_series"]
                assert len(series) == len(wealth) and all(close(1.0 + c, v) for c, v in zip(series, wealth))
                by_period[period].setdefault(sector, {})[LABELS[method]] = metrics

    for period, sectors in by_period.items():
        rows = list(csv.reader((out / f"summary_{period}.csv").read_text().splitlines()))
        assert [row[0] for row in rows] == ["sector", *sectors, "Overall"]
        counts = {label: dict.fromkeys(METRICS, 0) for label in LABELS.values()}
        won = json.loads((out / f"summary_{period}_winners.json").read_text())
        for row, (sector, metrics) in zip(rows[1:], sectors.items()):
            cells = [v for label in LABELS.values() for v in metrics[label]]
            assert all(map(close, map(float, row[1:]), cells)), (row, cells)
            for name, (label, tie) in winners(metrics).items():
                assert won["winners"][sector][name] == {"method": label, "tie": tie}
                counts[label][name] += 1
        assert won["overall"] == counts
        assert rows[-1][1:] == [str(counts[label][name]) for label in LABELS.values() for name in METRICS]


def test_herc_weights_where_the_gap_statistic_picks_more_than_one_cluster(tmp_path):
    # the fixture's sectors both pick k = 1, where HERC never reads its tree:
    # here 3 blocks of 3 correlated tickers, compounded to closes.  The gap
    # rule rejects k = 1 by 2 % of s_2, so a rule that reads s larger (ddof=1,
    # 2 s) picks k = 1; '>' for '>=' would differ only on an exact tie
    panel = block_return_panel(seed=11, t=250, rho=0.55)
    tickers = [f"B{i}" for i in range(len(panel.tickers))]
    days = [dt.date(2020, 1, 1) + dt.timedelta(days=d) for d in range(len(panel.dates) + 1)]
    closes = 100.0 * np.cumprod(np.vstack([np.ones(len(tickers)), 1.0 + panel.returns]), axis=0)
    (tmp_path / "data").mkdir()
    for ticker, column in zip(tickers, closes.T):
        rows = "".join(f"{day},{close!r}\n" for day, close in zip(days, column.tolist()))
        (tmp_path / "data" / f"{ticker}.csv").write_text("Date,Close\n" + rows, encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text(
        f"data_dir: data\noutput_dir: out\ntrain_start: {days[0]}\ntrain_end: {days[180]}\n"
        f"test_end: {days[-1]}\nsectors:\n  blocks: [{', '.join(tickers)}]\n"
        "methods:\n  herc: {k: auto, gap_b_refs: 20, seed: 3}\n",
        encoding="utf-8",
    )
    assert main(["optimize", "--config", str(config), "--method", "herc"]) == 0
    cfg = yaml.safe_load(config.read_text())
    cfg["root"] = tmp_path
    cov = covariance(period_returns(cfg, tickers)["train"][1])
    dist = distances(cov)
    k = gap_k(dist, 20, 3)
    assert k >= 2
    want = herc_weights(cov, naive_linkage(dist, "ward"), k)
    assert_weights(tmp_path / "out" / "blocks" / "herc_weights.csv", want)

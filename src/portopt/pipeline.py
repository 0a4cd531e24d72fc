"""End-to-end run: ingest prices, fit each allocator per sector on training
returns, evaluate on both periods, and write weights, plot data, reports, and
cross-sector summary tables plus a JSON manifest of every artifact.

Sectors are processed independently: a failure in one sector is recorded in
the manifest and does not abort the run.  All outputs are written atomically
(temp file + rename) and are byte-identical across reruns for fixed seeds.

Every subcommand that fits a method drives run_sector with a selection of
methods and artifacts, so each artifact has one code path.  Every loop over
sectors goes through iter_sectors, so each ticker CSV is parsed once per
invocation.  Layers are called through the names this module imports, so
wrapping one of those attributes (as bench/tracer.py does) sees every call
the pipeline makes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

from portopt._io import write_json, write_text
from portopt._version import __version__
from portopt.allocators import (
    AllocationError,
    HercParams,
    herc_allocate,
    hrp_allocate,
    mvp_optimize,
    write_frontier_csv,
    write_weights_csv,
)
from portopt.backtest import (
    evaluate,
    summarize,
    summary_to_csv,
    summary_winners_dict,
    write_report_json,
)
from portopt.hierclust import ClusterError, agglomerate, dendrogram_export
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

METHOD_LABELS = {"mvp": "MVP", "hrp": "HRP", "herc": "HERC"}

SECTOR_ERRORS = (AllocationError, ClusterError, DataError, StatsError)

# artifact kinds run_sector can write; run writes all of them
ARTIFACTS = ("weights", "frontier", "dendrogram", "reports")
# methods that allocate along the linkage tree
TREE_METHODS = ("hrp", "herc")

PERIODS = ("train", "test")

MANIFEST_NAME = "manifest.json"


class SectorData(NamedTuple):
    """Per-sector inputs shared by every allocator."""

    train_returns: object
    test_returns: object
    cov: object
    tree: object  # None unless prepare_sector was asked for it


@dataclass
class RunManifest:
    """Record of one pipeline run: config echo, seeds, artifact paths, failures."""

    version: str
    config: dict
    seeds: dict
    outputs: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


def ticker_csv(cfg, ticker):
    return Path(cfg.data_dir) / f"{ticker}.csv"


def iter_sectors(cfg, sectors):
    """Yield (sector, parsed) for each of sectors in order.

    parsed is one {csv path: parsed series} mapping that every yielded
    sector's load shares, so a ticker CSV listed by several sectors is parsed
    once; its entry is dropped after the last of those sectors.
    """
    last = {t: i for i, sector in enumerate(sectors) for t in cfg.sectors[sector]}
    parsed = {}
    for i, sector in enumerate(sectors):
        yield sector, parsed
        for ticker in cfg.sectors[sector]:
            if last[ticker] == i:
                parsed.pop(ticker_csv(cfg, ticker), None)


def sector_prices(cfg, tickers, parsed=None):
    """Load and clean the price panel for tickers over the study window.

    parsed is the shared mapping from iter_sectors, or None to read every CSV.
    """
    sources = {t: ticker_csv(cfg, t) for t in tickers}
    table = load_price_table(
        sources,
        date_column=cfg.date_column,
        close_column=cfg.close_column,
        align=cfg.align,
        require_start=cfg.train_start,
        parsed=parsed,
    )
    return table.restrict(cfg.train_start, cfg.test_end)


def prepare_sector(cfg, tickers, with_tree=False, parsed=None):
    """Load prices, split train/test, and precompute shared statistics.

    The linkage tree is built only when with_tree is true.
    """
    prices = sector_prices(cfg, tickers, parsed)
    train, test = split_train_test(prices, cfg.train_end)
    train_returns = daily_returns(train)
    test_returns = daily_returns(test)
    cov = covariance(train_returns)
    tree = None
    if with_tree:
        tree = agglomerate(corr_to_distance(correlation(train_returns)), cfg.linkage_rule)
    return SectorData(train_returns, test_returns, cov, tree)


def method_seed(cfg, method):
    return int(cfg.methods.get(method, {}).get("seed", 0))


def mvp_sample_count(cfg):
    return int(cfg.methods.get("mvp", {}).get("n_samples", 10000))


def fit_method(cfg, method, data):
    """Fit one allocator on the training data.

    Returns (weights, mvp_result) where mvp_result is None for hrp/herc.
    """
    params = cfg.methods.get(method, {})
    if method == "mvp":
        mu = expected_returns(data.train_returns, cfg.annualization_days)
        result = mvp_optimize(
            mu,
            data.cov,
            n_samples=mvp_sample_count(cfg),
            risk_free_rate=cfg.risk_free_rate,
            seed=method_seed(cfg, "mvp"),
        )
        return result.max_sharpe.weights, result
    if method == "hrp":
        return hrp_allocate(data.cov, data.tree), None
    if method == "herc":
        herc = HercParams(
            k=params.get("k", "auto"),
            risk_measure=params.get("risk_measure", "std_dev"),
            cluster_weighting=params.get("cluster_weighting", "inverse"),
            gap_k_max=params.get("gap_k_max"),
            gap_b_refs=int(params.get("gap_b_refs", 100)),
            gap_seed=method_seed(cfg, "herc"),
            linkage_rule=cfg.linkage_rule,
        )
        return herc_allocate(data.cov, data.tree, herc, data.train_returns), None
    raise AllocationError(f"unknown method {method!r}")


def evaluate_periods(cfg, weights, data, portfolio):
    """Backtest fixed weights on the train and test returns: {period: report}."""
    return {
        period: evaluate(
            weights,
            returns,
            cfg.risk_free_rate,
            portfolio=portfolio,
            period=period,
            annualization_days=cfg.annualization_days,
        )
        for period, returns in zip(PERIODS, (data.train_returns, data.test_returns))
    }


def run_sector(cfg, sector, methods, out_dir, artifacts=ARTIFACTS, parsed=None):
    """Fit methods on one sector and write the selected artifacts under
    out_dir/<sector>/.  parsed is passed on to sector_prices.

    Returns (outputs, metrics): {method: {artifact: path}} and
    {period: {method label: PerfMetrics}}.  Errors propagate; the caller
    decides whether a failed sector aborts.
    """
    with_tree = any(m in TREE_METHODS for m in methods)
    data = prepare_sector(cfg, cfg.sectors[sector], with_tree, parsed)
    sector_dir = Path(out_dir) / sector
    sector_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    metrics = {period: {} for period in PERIODS}
    date_blocks = {}  # each period's dates, rendered once for every method
    for method in methods:
        weights, mvp_result = fit_method(cfg, method, data)
        paths = {}
        if "weights" in artifacts:
            path = sector_dir / f"{method}_weights.csv"
            write_weights_csv(weights, path)
            paths["weights"] = str(path)
        if method == "mvp" and "frontier" in artifacts:
            path = sector_dir / "mvp_frontier.csv"
            write_frontier_csv(mvp_result, path)
            paths["frontier"] = str(path)
        if method in TREE_METHODS and "dendrogram" in artifacts:
            path = sector_dir / f"{method}_dendrogram.json"
            write_json(path, dendrogram_export(data.tree, data.train_returns.tickers))
            paths["dendrogram"] = str(path)
        if "reports" in artifacts:
            label = METHOD_LABELS[method]
            reports = evaluate_periods(cfg, weights, data, f"{sector}/{label}")
            for period, report in reports.items():
                path = sector_dir / f"{method}_{period}_report.json"
                write_report_json(report, path, date_blocks)
                paths[f"{period}_report"] = str(path)
                metrics[period][label] = report.metrics
        outputs[method] = paths
    return outputs, metrics


def write_summaries(metrics_by_period, methods, out_root):
    """Write summary_<period>.csv and summary_<period>_winners.json for each
    period of {period: {sector: {label: PerfMetrics}}}; return their paths."""
    order = tuple(METHOD_LABELS[m] for m in methods)
    paths = {}
    for period, metrics in metrics_by_period.items():
        table = summarize(metrics, order)
        csv_path = Path(out_root) / f"summary_{period}.csv"
        write_text(csv_path, summary_to_csv(table))
        winners_path = Path(out_root) / f"summary_{period}_winners.json"
        write_json(winners_path, summary_winners_dict(table))
        paths[period] = {"table": str(csv_path), "winners": str(winners_path)}
    return paths


def run_pipeline(cfg):
    """Run the full study described by cfg and return the RunManifest."""
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    methods = list(cfg.methods)

    manifest = RunManifest(
        version=__version__,
        config=cfg.echo(),
        seeds={m: method_seed(cfg, m) for m in methods},
    )
    metrics_by_period = {period: {} for period in PERIODS}
    for sector, parsed in iter_sectors(cfg, sorted(cfg.sectors)):
        try:
            outputs, metrics = run_sector(cfg, sector, methods, out_root, parsed=parsed)
        except SECTOR_ERRORS as exc:
            manifest.failures[sector] = str(exc)
            continue
        manifest.outputs[sector] = outputs
        for period in PERIODS:
            metrics_by_period[period][sector] = metrics[period]

    if manifest.outputs:
        manifest.summaries = write_summaries(metrics_by_period, methods, out_root)

    write_json(out_root / MANIFEST_NAME, asdict(manifest))
    return manifest

"""End-to-end run: ingest prices, fit each allocator per sector on training
returns, evaluate on both periods, and write weights, plot data, reports, and
cross-sector summary tables plus a JSON manifest of every artifact.

Sectors are processed independently: a failure in one sector is recorded in
the manifest and does not abort the run.  run_pipeline can therefore fit them
in a pool of forked worker processes, or, for a lone sector, score its MVP
blocks and gap batches there; the artifacts and the manifest's order are the
same as a single-process run's.  All outputs are written atomically
(temp file + rename) and are byte-identical across reruns for fixed seeds.

Every subcommand that fits a method drives run_sector with a selection of
methods and artifacts, so each artifact has one code path.  Every subcommand
parses the ticker CSVs its sectors list once, up front, through
parse_sectors.  Layers are called through the names this module imports, so
wrapping one of those attributes (as bench/tracer.py does) sees every call a
single-process run makes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

from portopt._io import render_json, write_json, write_text
from portopt._pool import fork_pool, pool_map
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
    parse_csvs,
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


def parse_sectors(cfg, sectors):
    """Parse every ticker CSV the sectors list, once each: the parse_csvs
    mapping to pass to sector_prices.  A CSV that fails is read once too, and
    each sector that lists it raises its error."""
    paths = (ticker_csv(cfg, t) for sector in sectors for t in cfg.sectors[sector])
    return parse_csvs(paths, date_column=cfg.date_column, close_column=cfg.close_column)


def sector_prices(cfg, tickers, parsed=None):
    """Load and clean the price panel for tickers over the study window.

    parsed is the mapping from parse_sectors, or None to read every CSV.
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


def fit_method(cfg, method, data):
    """Fit one allocator on the training data.

    Returns (weights, mvp_result) where mvp_result is None for hrp/herc.
    """
    # the config's keys but the seed, checked by RunConfig.validate; the
    # allocator owns the defaults
    params = {k: v for k, v in cfg.methods.get(method, {}).items() if k != "seed"}
    seed = method_seed(cfg, method)
    if method == "mvp":
        mu = expected_returns(data.train_returns, cfg.annualization_days)
        result = mvp_optimize(mu, data.cov, **params, risk_free_rate=cfg.risk_free_rate, seed=seed)
        return result.max_sharpe.weights, result
    if method == "hrp":
        return hrp_allocate(data.cov, data.tree), None
    if method == "herc":
        herc = HercParams(**params, gap_seed=seed, linkage_rule=cfg.linkage_rule)
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
    dendrogram = None  # the tree's JSON, rendered once for hrp and herc
    if with_tree and "dendrogram" in artifacts:
        dendrogram = render_json(dendrogram_export(data.tree, data.train_returns.tickers))
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
            write_text(path, dendrogram)
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


# the running run_pipeline's parse_sectors mapping: its pool's workers fork
# after the parse and read their copy of it, instead of receiving it with
# every task
_parsed = None


def _fit_sector(cfg, methods, out_root, sector):
    """run_sector's (outputs, metrics), or the message of a sector error."""
    try:
        return run_sector(cfg, sector, methods, out_root, parsed=_parsed)
    except SECTOR_ERRORS as exc:
        return str(exc)


def run_pipeline(cfg, workers=1):
    """Run the full study described by cfg and return the RunManifest.

    With workers > 1, the run opens a pool of forked processes: several
    sectors are fitted in up to `workers` of them, while a lone sector is
    fitted here and its MVP sample blocks and gap reference batches go to
    `workers` of them (portopt._pool).  Every artifact has the same bytes as
    with one process.
    """
    global _parsed
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    methods = list(cfg.methods)
    sectors = sorted(cfg.sectors)
    _parsed = parse_sectors(cfg, sectors)
    try:
        with fork_pool(workers if len(sectors) == 1 else min(workers, len(sectors))):
            results = pool_map(partial(_fit_sector, cfg, methods, out_root), sectors)
    finally:
        _parsed = None

    manifest = RunManifest(
        version=__version__,
        config=cfg.echo(),
        seeds={m: method_seed(cfg, m) for m in methods},
    )
    metrics_by_period = {period: {} for period in PERIODS}
    for sector, result in zip(sectors, results):
        if isinstance(result, str):
            manifest.failures[sector] = result
            continue
        manifest.outputs[sector], metrics = result
        for period in PERIODS:
            metrics_by_period[period][sector] = metrics[period]

    if manifest.outputs:
        manifest.summaries = write_summaries(metrics_by_period, methods, out_root)

    write_json(out_root / MANIFEST_NAME, asdict(manifest))
    return manifest

"""End-to-end run: ingest prices, fit each allocator per sector on training
returns, evaluate on both periods, and write weights, plot data, reports, and
cross-sector summary tables plus a JSON manifest of every artifact.

Every per-sector subcommand runs one task per sector through map_sectors,
which owns the up-front parse of the ticker CSVs, the pool of forked workers
and the capture of sector errors, so a failed sector never stops the others.
The task is run_sector, which fits the config's methods and writes a selection
of artifacts (run, optimize, frontier), so each artifact has one code path, or
ingest_sector or dendrogram_sector.  Artifacts are written atomically and are
byte-identical to a single-process run's and across reruns for fixed seeds.
Layers are called through the names this module imports, so wrapping one of
them (as bench/tracer.py does) sees every call a single-process run makes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

from portopt._io import write_json, write_text
from portopt._pool import WorkerDied, fork_pool, pool_map
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
    write_wide_csv,
)
from portopt.riskstats import (
    StatsError,
    corr_to_distance,
    correlation,
    covariance,
    expected_returns,
)

METHOD_LABELS = {"mvp": "MVP", "hrp": "HRP", "herc": "HERC"}

# OSError: an output path the sector cannot write, such as a file named like its directory;
# WorkerDied: a pool worker died, which fails every sector of its map
SECTOR_ERRORS = (AllocationError, ClusterError, DataError, OSError, StatsError, WorkerDied)

# artifact kinds run_sector can write; run writes all of them
ARTIFACTS = ("weights", "frontier", "dendrogram", "reports")
# methods that allocate along the linkage tree
TREE_METHODS = ("hrp", "herc")

PERIODS = ("train", "test")

MANIFEST_NAME = "manifest.json"
# {period: (table, winners)}: the summaries written beside the sector directories
SUMMARY_NAMES = {p: (f"summary_{p}.csv", f"summary_{p}_winners.json") for p in PERIODS}
# every file run writes at the output root, so no sector may take these names
ROOT_FILES = (MANIFEST_NAME, *(name for names in SUMMARY_NAMES.values() for name in names))


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


def sector_prices(cfg, tickers, parsed=None):
    """Load and clean the price panel for tickers over the study window;
    parsed is a parse_csvs mapping, or None to read every CSV."""
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


def fit_method(cfg, method, data):
    """Fit one allocator on the training data.

    Returns (weights, mvp_result) where mvp_result is None for hrp/herc.
    """
    # the config's keys but the seed, checked by RunConfig.validate; the
    # allocator owns the defaults
    params = {k: v for k, v in cfg.methods.get(method, {}).items() if k != "seed"}
    seed = cfg.seeds().get(method, 0)
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


def report_path(directory, stem, period):
    """<directory>/<stem>_<period>_report.json, where a period's report goes."""
    return Path(directory) / f"{stem}_{period}_report.json"


def evaluate_periods(cfg, weights, data, portfolio, directory, stem):
    """Backtest fixed weights on the train and test returns, then write each
    period's report to report_path(directory, stem, period); return
    {period: (path, report)}."""
    reports = {
        period: evaluate(weights, r, cfg.risk_free_rate, portfolio, period, cfg.annualization_days)
        for period, r in zip(PERIODS, (data.train_returns, data.test_returns))
    }
    paths = {period: report_path(directory, stem, period) for period in PERIODS}
    for period, report in reports.items():
        write_report_json(report, paths[period])
    return {period: (paths[period], reports[period]) for period in PERIODS}


def run_sector(cfg, sector, parsed=None, *, artifacts=ARTIFACTS):
    """Fit cfg's methods on one sector and write the selected artifacts under
    <output_dir>/<sector>/.  parsed is passed on to sector_prices.

    Returns (outputs, metrics): {method: {artifact: path}} and
    {period: {method label: PerfMetrics}}.  Errors propagate.
    """
    with_tree = any(m in TREE_METHODS for m in cfg.methods)
    data = prepare_sector(cfg, cfg.sectors[sector], with_tree, parsed)
    sector_dir = Path(cfg.output_dir) / sector
    sector_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    metrics = {period: {} for period in PERIODS}
    dendrogram = None  # the tree's JSON, rendered once for hrp and herc
    if with_tree and "dendrogram" in artifacts:
        dendrogram = dendrogram_export(data.tree, data.train_returns.tickers)
    for method in cfg.methods:
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
            reports = evaluate_periods(cfg, weights, data, f"{sector}/{label}", sector_dir, method)
            for period, (path, report) in reports.items():
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
        csv_path, winners_path = (Path(out_root) / name for name in SUMMARY_NAMES[period])
        write_text(csv_path, summary_to_csv(table))
        write_json(winners_path, summary_winners_dict(table))
        paths[period] = {"table": str(csv_path), "winners": str(winners_path)}
    return paths


def ingest_sector(cfg, sector, parsed=None):
    """Write <output_dir>/<sector>_prices.csv; return (dates, tickers, path)."""
    table = sector_prices(cfg, cfg.sectors[sector], parsed)
    path = Path(cfg.output_dir) / f"{sector}_prices.csv"
    write_wide_csv(table, path, date_column=cfg.date_column)
    return table.n_dates, len(table.tickers), path


def dendrogram_sector(cfg, sector, parsed=None):
    """Write <output_dir>/<sector>/dendrogram.json, the linkage tree; return its path."""
    data = prepare_sector(cfg, cfg.sectors[sector], with_tree=True, parsed=parsed)
    path = Path(cfg.output_dir) / sector / "dendrogram.json"
    path.parent.mkdir(exist_ok=True)
    write_text(path, dendrogram_export(data.tree, data.train_returns.tickers))
    return path


# the running map_sectors' parse: its pool's workers fork after the parse and
# read their copy of it, instead of receiving it with every task
_parsed = None


def _sector_task(task, cfg, sector):
    """task(cfg, sector, parsed), or the sector error it raised."""
    try:
        return task(cfg, sector, _parsed)
    except SECTOR_ERRORS as exc:
        return exc


def map_sectors(cfg, sectors, task, workers=1):
    """[task(cfg, sector, parsed), or the sector error it raised, per sector in
    order], after making the output root and parsing every CSV they list once.
    With workers > 1, several sectors run in a pool of up to `workers` forked
    processes, while a lone sector runs here and its MVP sample blocks and gap
    batches go to the pool (portopt._pool); the bytes are those of one process.
    A worker that dies fails every sector with WorkerDied; nothing is retried."""
    global _parsed
    cfg.make_output_dir()
    paths = (ticker_csv(cfg, t) for sector in sectors for t in cfg.sectors[sector])
    _parsed = parse_csvs(paths, date_column=cfg.date_column, close_column=cfg.close_column)
    try:
        with fork_pool(workers if len(sectors) == 1 else min(workers, len(sectors))):
            return pool_map(partial(_sector_task, task, cfg), sectors)
    except WorkerDied as exc:
        return [exc] * len(sectors)
    finally:
        _parsed = None


def run_pipeline(cfg, workers=1):
    """Run the full study described by cfg through map_sectors with
    `workers`, and return the RunManifest, which records failed sectors."""
    sectors = sorted(cfg.sectors)
    results = map_sectors(cfg, sectors, run_sector, workers)

    manifest = RunManifest(
        version=__version__,
        config=cfg.echo(),
        seeds=cfg.seeds(),
    )
    metrics_by_period = {period: {} for period in PERIODS}
    for sector, result in zip(sectors, results):
        if isinstance(result, Exception):
            manifest.failures[sector] = str(result)
            continue
        manifest.outputs[sector], metrics = result
        for period in PERIODS:
            metrics_by_period[period][sector] = metrics[period]

    if manifest.outputs:
        manifest.summaries = write_summaries(metrics_by_period, cfg.methods, cfg.output_dir)

    write_json(Path(cfg.output_dir) / MANIFEST_NAME, asdict(manifest))
    return manifest

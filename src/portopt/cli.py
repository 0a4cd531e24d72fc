"""Command-line entry point.

Subcommands:
    run         full pipeline: ingest -> allocate -> backtest -> summary
    ingest      validate and clean price data, export wide CSVs per sector
    optimize    compute weight files only
    backtest    evaluate an existing weights file on train and test periods
    frontier    Monte-Carlo mean-variance samples only
    dendrogram  linkage-tree JSON export only
    report      assemble summary tables from existing report JSONs

Every subcommand honors --config (default from $PORTOPT_CONFIG), --seed, and
--out.  Exit codes: 0 success, 1 validation error, 2 data error, 3 partial
sector failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from portopt._io import is_path_component, write_json
from portopt._version import __version__
from portopt.allocators import MVP_SAMPLES, read_weights_csv
from portopt.backtest import BacktestError, write_report_json
from portopt.config import KNOWN_METHODS, ConfigError, load_config
from portopt.hierclust import dendrogram_export
from portopt.market_data import DataError, write_wide_csv
from portopt.pipeline import (
    MANIFEST_NAME,
    METHOD_LABELS,
    PERIODS,
    SECTOR_ERRORS,
    evaluate_periods,
    parse_sectors,
    prepare_sector,
    run_pipeline,
    run_sector,
    sector_prices,
    write_summaries,
)
from portopt.riskstats import PerfMetrics

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="portopt",
        description="Long-only sector portfolio construction and backtesting.",
    )
    parser.add_argument("--version", action="version", version=f"portopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--config",
            default=os.environ.get("PORTOPT_CONFIG"),
            help="path to the YAML run configuration "
            "(default: $PORTOPT_CONFIG)",
        )
        p.add_argument("--seed", type=int, help="override every method seed")
        p.add_argument("--out", help="override the configured output directory")

    common(sub.add_parser("run", help="run the full pipeline"))
    common(sub.add_parser("ingest", help="validate/clean data, export wide CSVs"))

    p = sub.add_parser("optimize", help="compute portfolio weights only")
    common(p)
    p.add_argument("--method", required=True, choices=KNOWN_METHODS)
    p.add_argument("--sector", help="restrict to one sector")

    p = sub.add_parser("backtest", help="evaluate a weights file on both periods")
    common(p)
    p.add_argument("--weights", required=True, help="weights CSV (ticker,weight)")
    p.add_argument("--label", default="portfolio", help="portfolio label in reports")

    p = sub.add_parser("frontier", help="export MVP Monte-Carlo samples")
    common(p)
    p.add_argument("--sector", help="restrict to one sector")

    p = sub.add_parser("dendrogram", help="export linkage trees as JSON")
    common(p)
    p.add_argument("--sector", help="restrict to one sector")

    p = sub.add_parser("report", help="assemble summary tables from report JSONs")
    common(p)
    p.add_argument(
        "--reports-dir",
        help="directory holding <sector>/<method>_<period>_report.json "
        "(default: the configured output directory)",
    )
    return parser


def _load_config(args):
    if not args.config:
        raise ConfigError("no configuration given (use --config or $PORTOPT_CONFIG)")
    cfg = load_config(args.config)
    if args.out:
        cfg.output_dir = Path(args.out)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed: expected an int >= 0, got {args.seed}")
        for params in cfg.methods.values():
            params["seed"] = args.seed
    return cfg


def _sectors(cfg, args):
    requested = getattr(args, "sector", None)
    if requested is None:
        return sorted(cfg.sectors)
    if requested not in cfg.sectors:
        raise ConfigError(f"unknown sector {requested!r}")
    return [requested]


def _cpus():
    """CPUs this process may run on; 1 outside Linux, as run's pool forks."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _cmd_run(cfg, args):
    manifest = run_pipeline(cfg, workers=_cpus())
    for sector, message in sorted(manifest.failures.items()):
        print(f"sector {sector!r} failed: {message}", file=sys.stderr)
    print(f"manifest: {Path(cfg.output_dir) / MANIFEST_NAME}")
    return EXIT_PARTIAL if manifest.failures else EXIT_OK


def _cmd_ingest(cfg, args):
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    sectors = _sectors(cfg, args)
    parsed = parse_sectors(cfg, sectors)
    for sector in sectors:
        table = sector_prices(cfg, cfg.sectors[sector], parsed)
        path = out / f"{sector}_prices.csv"
        write_wide_csv(table, path, date_column=cfg.date_column)
        print(f"{sector}: {table.n_dates} dates x {len(table.tickers)} tickers -> {path}")
    return EXIT_OK


def _enable(cfg, args, method):
    """Fit a method the config does not list, with default parameters."""
    if method not in cfg.methods:
        cfg.methods[method] = {} if args.seed is None else {"seed": args.seed}
        cfg.validate()


def _cmd_optimize(cfg, args):
    _enable(cfg, args, args.method)
    sectors = _sectors(cfg, args)
    parsed = parse_sectors(cfg, sectors)
    for sector in sectors:
        outputs, _ = run_sector(
            cfg, sector, [args.method], cfg.output_dir, ["weights"], parsed
        )
        print(f"{sector}/{args.method}: {outputs[args.method]['weights']}")
    return EXIT_OK


def _cmd_backtest(cfg, args):
    # the label names the report files, so it must stay one path component
    label = args.label
    if not is_path_component(label):
        raise ConfigError(f"--label: expected a file name part without '/', got {label!r}")
    weights = read_weights_csv(args.weights)
    data = prepare_sector(cfg, weights.tickers)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for period, report in evaluate_periods(cfg, weights, data, label).items():
        path = out / f"{label}_{period}_report.json"
        write_report_json(report, path)
        sharpe = "undefined" if report.metrics.sharpe is None else f"{report.metrics.sharpe:.4f}"
        print(
            f"{period}: return {report.metrics.annual_return:.4%} "
            f"vol {report.metrics.annual_volatility:.4%} sharpe {sharpe} -> {path}"
        )
    return EXIT_OK


def _cmd_frontier(cfg, args):
    _enable(cfg, args, "mvp")
    sectors = _sectors(cfg, args)
    parsed = parse_sectors(cfg, sectors)
    n_samples = cfg.methods["mvp"].get("n_samples", MVP_SAMPLES)
    for sector in sectors:
        outputs, _ = run_sector(cfg, sector, ["mvp"], cfg.output_dir, ["frontier"], parsed)
        print(f"{sector}: {n_samples} samples -> {outputs['mvp']['frontier']}")
    return EXIT_OK


def _cmd_dendrogram(cfg, args):
    sectors = _sectors(cfg, args)
    cfg.check_clusterable(sectors, "dendrogram")
    out = Path(cfg.output_dir)
    parsed = parse_sectors(cfg, sectors)
    for sector in sectors:
        data = prepare_sector(cfg, cfg.sectors[sector], with_tree=True, parsed=parsed)
        sector_dir = out / sector
        sector_dir.mkdir(parents=True, exist_ok=True)
        path = sector_dir / "dendrogram.json"
        write_json(path, dendrogram_export(data.tree, data.train_returns.tickers))
        print(f"{sector}: {path}")
    return EXIT_OK


def _read_metrics(path):
    """The PerfMetrics of one report JSON; a missing file or one that is not
    a report is a DataError naming it."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError:
        raise DataError(f"missing report file: {path}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or nesting depth
        raise DataError(f"{path}: not a report JSON: {exc}") from None
    m = payload.get("metrics") if isinstance(payload, dict) else None
    if not isinstance(m, dict):
        raise DataError(f"{path}: no 'metrics' object")
    fields = []
    for key in ("annual_return", "annual_volatility", "sharpe", "risk_free_rate"):
        if key not in m and key != "risk_free_rate":
            raise DataError(f"{path}: metrics has no {key!r}")
        value = m.get(key, 0.0)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number or key == "sharpe" and value is None):  # undefined Sharpe: null
            raise DataError(f"{path}: metrics {key!r} is not a number: {value!r}")
        fields.append(value)
    return PerfMetrics(*fields)


def _cmd_report(cfg, args):
    reports_dir = Path(args.reports_dir) if args.reports_dir else Path(cfg.output_dir)
    methods = list(cfg.methods)
    # every report is read before any summary is written, so a bad one
    # leaves no partial output
    metrics = {
        period: {
            sector: {
                METHOD_LABELS[method]: _read_metrics(
                    reports_dir / sector / f"{method}_{period}_report.json"
                )
                for method in methods
            }
            for sector in sorted(cfg.sectors)
        }
        for period in PERIODS
    }
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = write_summaries(metrics, methods, out)
    for period in PERIODS:
        print(f"{period}: {paths[period]['table']}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "ingest": _cmd_ingest,
    "optimize": _cmd_optimize,
    "backtest": _cmd_backtest,
    "frontier": _cmd_frontier,
    "dendrogram": _cmd_dendrogram,
    "report": _cmd_report,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (*SECTOR_ERRORS, BacktestError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

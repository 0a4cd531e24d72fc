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
--out.  Exit codes: 0 success, 1 validation error, 2 data error (a failed
write to stdout too), 3 partial sector failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial
from pathlib import Path

from portopt._io import TMP_SUFFIX, is_os_path, is_path_component
from portopt._version import __version__
from portopt.allocators import MVP_SAMPLES, read_weights_csv
from portopt.backtest import BacktestError, read_report_metrics
from portopt.config import KNOWN_METHODS, ConfigError, check_name_bytes, load_config
from portopt.pipeline import (
    MANIFEST_NAME,
    METHOD_LABELS,
    PERIODS,
    SECTOR_ERRORS,
    dendrogram_sector,
    evaluate_periods,
    ingest_sector,
    map_sectors,
    prepare_sector,
    report_path,
    run_pipeline,
    run_sector,
    write_summaries,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


def _say(*args, **kwargs):
    """print to stdout.  A failed write exits 2 naming stdout, not as main's
    data error naming a path, and points fd 1 at os.devnull so that the
    interpreter's own flush at exit has nothing left to fail."""
    try:
        print(*args, **kwargs)
    except OSError as exc:
        print(f"cannot write to stdout: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_DATA)


class _Parser(argparse.ArgumentParser):
    """argparse's, but a usage error is a configuration error: exit 1, not 2,
    and --help or --version text that stdout cannot take exits 2 (_say)."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _say(message, end="", flush=True)
        else:
            super()._print_message(message, file)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="portopt",
        description="Long-only sector portfolio construction and backtesting.",
    )
    parser.add_argument("--version", action="version", version=f"portopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, methods=lambda a: ()):
        """Add subcommand name, run as handler(cfg, args), with the common options;
        methods(args) names the methods it fits (None: every one the file enables)."""
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--config",
            default=os.environ.get("PORTOPT_CONFIG"),
            help="path to the YAML run configuration "
            "(default: $PORTOPT_CONFIG)",
        )
        p.add_argument("--seed", type=int, help="override every method seed")
        p.add_argument("--out", help="override the configured output directory")
        p.set_defaults(handler=handler, sector=None, methods=methods)
        return p

    command("run", _cmd_run, "run the full pipeline", methods=lambda a: None)
    command("ingest", _cmd_ingest, "validate/clean data, export wide CSVs")

    p = command("optimize", _cmd_optimize, "compute portfolio weights only", methods=lambda a: (a.method,))
    p.add_argument("--method", required=True, choices=KNOWN_METHODS)
    p.add_argument("--sector", help="restrict to one sector")

    p = command("backtest", _cmd_backtest, "evaluate a weights file on both periods")
    p.add_argument("--weights", required=True, help="weights CSV (ticker,weight)")
    p.add_argument("--label", default="portfolio", help="portfolio label in reports")

    p = command("frontier", _cmd_frontier, "export MVP Monte-Carlo samples", methods=lambda a: ("mvp",))
    p.add_argument("--sector", help="restrict to one sector")

    p = command("dendrogram", _cmd_dendrogram, "export linkage trees as JSON")
    p.add_argument("--sector", help="restrict to one sector")

    p = command("report", _cmd_report, "assemble summary tables from report JSONs")
    p.add_argument(
        "--reports-dir",
        help="directory holding <sector>/<method>_<period>_report.json "
        "(default: the configured output directory)",
    )
    return parser


def _load_config(args):
    """The file's config, validated for the --sector sector and the methods the command
    fits (their defaults unless listed); with --out, and --seed for each method with a seed."""
    if not args.config:
        raise ConfigError("no configuration given (use --config or $PORTOPT_CONFIG)")
    for option in ("config", "weights"):
        value = getattr(args, option, None)
        if value is not None and not is_os_path(value):
            raise ConfigError(f"--{option}: expected a file path, got {value!r}")
    cfg = load_config(args.config, args.sector, args.methods(args))
    cfg.output_dir = _directory(args.out, "--out", cfg.output_dir)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed: expected an int >= 0, got {args.seed}")
        for method in cfg.seeds():
            cfg.methods[method]["seed"] = args.seed
    return cfg


def _directory(value, option, default):
    """A directory option's Path, default when it is not given; '' (an unset
    shell variable, most likely) or a path open() cannot take is a configuration error."""
    if value is not None and (not value or not is_os_path(value)):
        raise ConfigError(f"{option}: expected a directory path, got {value!r}")
    return Path(default if value is None else value)


def _cpus():
    """CPUs this process may run on; 1 outside Linux, as the pool forks."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _sector_results(cfg, task):
    """(sector, result) of map_sectors with _cpus() workers, in sector order;
    the first failed sector's error is raised after every sector has run."""
    sectors = sorted(cfg.sectors)
    for sector, result in zip(sectors, map_sectors(cfg, sectors, task, workers=_cpus())):
        if isinstance(result, Exception):
            raise result
        yield sector, result


def _cmd_run(cfg, args):
    manifest = run_pipeline(cfg, workers=_cpus())
    for sector, message in sorted(manifest.failures.items()):
        print(f"sector {sector!r} failed: {message}", file=sys.stderr)
    _say(f"manifest: {Path(cfg.output_dir) / MANIFEST_NAME}")
    return EXIT_PARTIAL if manifest.failures else EXIT_OK


def _cmd_ingest(cfg, args):
    for sector, (dates, tickers, path) in _sector_results(cfg, ingest_sector):
        _say(f"{sector}: {dates} dates x {tickers} tickers -> {path}")
    return EXIT_OK


def _cmd_optimize(cfg, args):
    task = partial(run_sector, artifacts=["weights"])
    for sector, (outputs, _) in _sector_results(cfg, task):
        _say(f"{sector}/{args.method}: {outputs[args.method]['weights']}")
    return EXIT_OK


def _cmd_backtest(cfg, args):
    # the label names the report files, so it must stay one path component
    label = args.label
    if not (is_path_component(label) and is_os_path(label)):
        raise ConfigError(f"--label: expected a file name part without '/', got {label!r}")
    check_name_bytes(label, "--label", report_path("", "", max(PERIODS, key=len)).name + TMP_SUFFIX)
    weights = read_weights_csv(args.weights)
    data = prepare_sector(cfg, weights.tickers)
    reports = evaluate_periods(cfg, weights, data, label, cfg.make_output_dir(), label)
    for period, (path, report) in reports.items():
        sharpe = "undefined" if report.metrics.sharpe is None else f"{report.metrics.sharpe:.4f}"
        _say(
            f"{period}: return {report.metrics.annual_return:.4%} "
            f"vol {report.metrics.annual_volatility:.4%} sharpe {sharpe} -> {path}"
        )
    return EXIT_OK


def _cmd_frontier(cfg, args):
    n_samples = cfg.methods["mvp"].get("n_samples", MVP_SAMPLES)
    task = partial(run_sector, artifacts=["frontier"])
    for sector, (outputs, _) in _sector_results(cfg, task):
        _say(f"{sector}: {n_samples} samples -> {outputs['mvp']['frontier']}")
    return EXIT_OK


def _cmd_dendrogram(cfg, args):
    cfg.check_clusterable("dendrogram")
    for sector, path in _sector_results(cfg, dendrogram_sector):
        _say(f"{sector}: {path}")
    return EXIT_OK


def _cmd_report(cfg, args):
    reports_dir = _directory(args.reports_dir, "--reports-dir", cfg.output_dir)
    methods = list(cfg.methods)
    # every report is read before any summary is written, so a bad one
    # leaves no partial output
    metrics = {
        period: {
            sector: {
                METHOD_LABELS[method]: read_report_metrics(
                    report_path(reports_dir / sector, method, period)
                )
                for method in methods
            }
            for sector in sorted(cfg.sectors)
        }
        for period in PERIODS
    }
    paths = write_summaries(metrics, methods, cfg.make_output_dir())
    for period in PERIODS:
        _say(f"{period}: {paths[period]['table']}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (*SECTOR_ERRORS, BacktestError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry():
    """main() as a process, for the portopt script and python -m portopt.cli:
    stdout is flushed while a failed write can still exit 2, then gc.freeze()
    spares interpreter teardown a walk over every object the run left."""
    code = main()
    _say(end="", flush=True)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())

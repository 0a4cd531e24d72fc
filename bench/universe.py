"""Seeded input universes for the benchmark workloads.

Each workload is a directory holding one ``<ticker>.csv`` (Date,Close) per
ticker under ``data/`` plus a ``config.yaml`` next to it; the program under
test receives nothing else.  Prices are geometric random walks driven by a
market factor, a block (sector) factor and idiosyncratic noise, so the
clustering layers see real block structure.  Deterministic: the same
workload, seed and size write the same bytes.

Workloads (see ``run.py`` for why each was chosen):

    nse_study    every basket of configs/nse_sectors.yaml, config copied
                 verbatim (MVP 10 000 samples, HERC gap statistic b=100)
    wide_sector  one sector of 72 tickers in 8 correlated blocks
    long_panel   40 overlapping 12-ticker sectors from a 120-ticker pool,
                 5 years with ~2 % of days missing, align: ffill

Usage: python3 bench/universe.py <workload> <seed> <out_dir> [--tiny]
"""

import argparse
import datetime as dt
from pathlib import Path

import numpy as np
import yaml

REPO = Path(__file__).resolve().parent.parent
NSE_CONFIG = REPO / "configs" / "nse_sectors.yaml"


def weekdays(start, end):
    day, out = start, []
    while day <= end:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def factor_returns(rng, t, home_blocks, n_blocks):
    """Daily simple returns (t x n): market + block factor + noise per ticker."""
    n = len(home_blocks)
    market = rng.standard_normal(t) * 0.010
    blocks = rng.standard_normal((t, n_blocks)) * 0.008
    beta_m = rng.uniform(0.6, 1.2, n)
    beta_b = rng.uniform(0.5, 1.1, n)
    vol = rng.uniform(0.008, 0.020, n)
    drift = rng.uniform(-0.0002, 0.0008, n)
    noise = rng.standard_normal((t, n)) * vol
    daily = drift + market[:, None] * beta_m + blocks[:, home_blocks] * beta_b + noise
    return np.clip(daily, -0.5, 0.5)


def write_prices(data_dir, tickers, dates, daily, rng, keep=None):
    """Write one Date,Close CSV per ticker; keep[:, j] masks dropped rows."""
    data_dir.mkdir(parents=True)
    start = rng.uniform(50.0, 3000.0, len(tickers))
    prices = start * np.exp(np.cumsum(np.log1p(daily), axis=0))
    iso = [d.isoformat() for d in dates]
    for j, ticker in enumerate(tickers):
        rows = range(len(dates)) if keep is None else np.flatnonzero(keep[:, j])
        lines = ["Date,Close"]
        lines += [f"{iso[i]},{prices[i, j]:.4f}" for i in rows]
        (data_dir / f"{ticker}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")


STUDY_METHODS = {
    "mvp": {"n_samples": 10000, "seed": 0},
    "hrp": {},
    "herc": {"k": "auto", "risk_measure": "std_dev", "cluster_weighting": "inverse",
             "gap_b_refs": 100, "seed": 0},
}
TINY_METHODS = {"mvp": {"n_samples": 300, "seed": 0}, "hrp": {},
                "herc": {"k": "auto", "gap_b_refs": 4, "seed": 0}}
STUDY_WINDOW = {"train_start": "2019-07-01", "train_end": "2022-06-30",
                "test_end": "2023-06-30"}
STUDY_DATES = (dt.date(2019, 6, 3), dt.date(2023, 6, 30))


def nse_study(rng, out, tiny):
    text = NSE_CONFIG.read_text(encoding="utf-8")
    raw = yaml.safe_load(text)
    sectors = raw["sectors"]
    if tiny:
        sectors = {name: sectors[name] for name in list(sectors)[:3]}
        raw.update(sectors=sectors, methods=TINY_METHODS)
        write_config(out / "config.yaml", raw)
    else:
        # the study config itself, byte for byte: data_dir and output_dir
        # are relative, so they resolve inside the workload directory
        (out / "config.yaml").write_text(text, encoding="utf-8")
    # each ticker's block factor is the first basket that lists it
    home = {}
    for b, tickers in enumerate(sectors.values()):
        for t in tickers:
            home.setdefault(t, b)
    tickers = list(home)
    dates = weekdays(*STUDY_DATES)
    daily = factor_returns(rng, len(dates), [home[t] for t in tickers], len(sectors))
    write_prices(out / "data", tickers, dates, daily, rng)


def wide_sector(rng, out, tiny):
    n_blocks, per_block = (3, 4) if tiny else (8, 9)
    tickers = [f"W{i:03d}" for i in range(n_blocks * per_block)]
    dates = weekdays(*STUDY_DATES)
    daily = factor_returns(rng, len(dates), [i // per_block for i in range(len(tickers))],
                           n_blocks)
    write_prices(out / "data", tickers, dates, daily, rng)
    methods = TINY_METHODS if tiny else STUDY_METHODS
    write_config(out / "config.yaml", {
        "data_dir": "data", "output_dir": "out", **STUDY_WINDOW,
        "methods": methods, "linkage_rule": "ward", "align": "intersect",
        "sectors": {"Wide": tickers}})


def long_panel(rng, out, tiny):
    pool, n_sectors, size, years = (24, 4, 6, 3) if tiny else (120, 40, 12, 5)
    tickers = [f"L{i:03d}" for i in range(pool)]
    n_blocks = pool // 12
    dates = weekdays(dt.date(2023 - years, 6, 3), dt.date(2023, 6, 30))
    daily = factor_returns(rng, len(dates), [i % n_blocks for i in range(pool)], n_blocks)
    # ~2 % of days missing per ticker; the first and last rows stay so every
    # ticker covers the union calendar that ffill alignment requires
    keep = rng.random((len(dates), pool)) >= 0.02
    keep[0, :] = keep[-1, :] = True
    write_prices(out / "data", tickers, dates, daily, rng, keep)
    sectors = {f"P{s:02d}": sorted(rng.choice(tickers, size, replace=False).tolist())
               for s in range(n_sectors)}
    write_config(out / "config.yaml", {
        "data_dir": "data", "output_dir": "out",
        "train_start": f"{2023 - years}-07-01", "train_end": "2021-06-30",
        "test_end": "2023-06-30",
        "methods": {"hrp": {}, "herc": {"k": 3, "seed": 0}},
        "linkage_rule": "ward", "align": "ffill", "sectors": sectors})


BUILDERS = {"nse_study": nse_study, "wide_sector": wide_sector, "long_panel": long_panel}
WORKLOADS = tuple(BUILDERS)


def generate(workload, seed, out_dir, tiny=False):
    """Write the workload's CSVs and config into a fresh out_dir; return the config path."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    out = Path(out_dir)
    out.mkdir(parents=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    BUILDERS[workload](rng, out, tiny)
    return out / "config.yaml"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args()
    print(generate(args.workload, args.seed, args.out_dir, args.tiny))


if __name__ == "__main__":
    main()

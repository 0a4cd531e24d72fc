import shutil
from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).parent.parent / "fixtures" / "synthetic"


@pytest.fixture(scope="session")
def synthetic_fixture():
    """Path to the shipped two-sector synthetic price fixture."""
    assert (FIXTURE_DIR / "config.yaml").is_file()
    assert (FIXTURE_DIR / "data" / "AAA.csv").is_file()
    return FIXTURE_DIR


@pytest.fixture
def pair_data_dir(tmp_path):
    """Two-asset data set with return variance ratio 4:1 and zero correlation.

    Asset A cycles +1%/-1%; asset B cycles +2%,+2%,-2%,-2% (orthogonal phase),
    so the training covariance is diagonal with var(B) = 4 var(A) and IVP/HRP
    weights are (0.8, 0.2).
    """
    import datetime as dt

    a_steps = [0.01, -0.01, 0.01, -0.01] * 3
    b_steps = [0.02, 0.02, -0.02, -0.02] * 3
    data = tmp_path / "data"
    data.mkdir()
    for name, steps in (("PA", a_steps), ("PB", b_steps)):
        price, prices = 100.0, [100.0]
        for s in steps:
            price *= 1.0 + s
            prices.append(price)
        lines = ["Date,Close"]
        for i, p in enumerate(prices):
            day = dt.date(2021, 1, 1) + dt.timedelta(days=i)
            lines.append(f"{day.isoformat()},{p!r}")
        (data / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = tmp_path / "config.yaml"
    config.write_text(
        "\n".join(
            [
                "data_dir: data",
                "output_dir: out",
                "train_start: 2021-01-01",
                "train_end: 2021-01-09",  # 9 train prices -> 8 returns (2 cycles)
                "test_end: 2021-01-13",
                "sectors:",
                "  pair: [PA, PB]",
                "methods:",
                "  mvp: {n_samples: 300, seed: 1}",
                "  hrp: {}",
                "  herc: {k: 2}",
                "",
            ]
        ),
        encoding="utf-8",
    )
    return tmp_path


@pytest.fixture
def fixture_copy(synthetic_fixture, tmp_path):
    """Writable copy of the synthetic fixture for tests that mutate it."""
    dest = tmp_path / "synthetic"
    shutil.copytree(synthetic_fixture, dest)
    return dest


def _write_sector(root, closes, sector, methods):
    """Write closes (366 daily rows, one column per ticker T000, T001, ...)
    as ticker CSVs under root/data and a one-sector config.yaml beside them
    that lists `methods` (YAML text); return the config's path."""
    import datetime as dt

    (root / "data").mkdir(parents=True)
    dates = [(dt.date(2020, 1, 1) + dt.timedelta(days=d)).isoformat() for d in range(len(closes))]
    tickers = [f"T{i:03d}" for i in range(closes.shape[1])]
    for j, ticker in enumerate(tickers):
        rows = "".join(f"{d},{c:.6f}\n" for d, c in zip(dates, closes[:, j]))
        (root / "data" / f"{ticker}.csv").write_text("Date,Close\n" + rows, encoding="utf-8")
    config = root / "config.yaml"
    config.write_text(
        "data_dir: data\noutput_dir: out\n"
        "train_start: 2020-01-01\ntrain_end: 2020-09-30\ntest_end: 2020-12-31\n"
        f"sectors:\n  {sector}: [{', '.join(tickers)}]\n{methods}",
        encoding="utf-8",
    )
    return config


@pytest.fixture
def one_sector(tmp_path):
    """Factory for a seeded one-sector study: n tickers in 4 correlated
    blocks, 366 daily closes each, under tmp_path/<name>.  Returns the path
    of its config.yaml (MVP, HRP, and HERC with the gap statistic)."""
    import numpy as np

    def make(n, gap_b_refs, n_samples=10000, name="one_sector"):
        rng = np.random.default_rng(n)
        days = 366
        factors = rng.standard_normal((days, 4))[:, np.arange(n) % 4]
        returns = 0.01 * (0.8 * factors + 0.6 * rng.standard_normal((days, n)))
        closes = 100.0 * np.cumprod(1.0 + returns, axis=0)
        methods = (
            f"methods:\n  mvp: {{n_samples: {n_samples}, seed: 5}}\n  hrp: {{}}\n"
            f"  herc: {{k: auto, gap_b_refs: {gap_b_refs}, seed: 2}}\n"
        )
        return _write_sector(tmp_path / name, closes, "wide", methods)

    return make


@pytest.fixture
def chain_sector(tmp_path):
    """Factory for a seeded one-factor sector named chain: n tickers whose own
    noise grows with the ticker number, 366 daily closes each, so that single
    linkage joins them one at a time into a tree n - 1 merges deep.  Returns
    the path of its config.yaml (HRP only, single linkage)."""
    import numpy as np

    def make(n):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((366, n)) * np.linspace(0.05, 2.0, n)
        closes = 100.0 * np.cumprod(1.0 + 0.01 * (rng.standard_normal((366, 1)) + noise), axis=0)
        methods = "methods: [hrp]\nlinkage_rule: single\n"
        return _write_sector(tmp_path / "chain", closes, "chain", methods)

    return make

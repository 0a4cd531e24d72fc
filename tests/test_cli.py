import json
from pathlib import Path

import numpy as np
import pytest

from portopt import market_data
from portopt.allocators import read_weights_csv
from portopt.cli import main
from portopt.config import load_config
from portopt.pipeline import iter_sectors, run_pipeline, sector_prices


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PORTOPT_CONFIG", raising=False)


def _cfg(path):
    return ["--config", str(path / "config.yaml")]


class TestRun:
    def test_full_run_succeeds(self, synthetic_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", *_cfg(synthetic_fixture), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == {}
        assert set(manifest["outputs"]) == {"alpha", "beta"}
        for sector in ("alpha", "beta"):
            assert (out / sector / "mvp_weights.csv").is_file()
            assert (out / sector / "mvp_frontier.csv").is_file()
            assert (out / sector / "hrp_dendrogram.json").is_file()
            assert (out / sector / "herc_test_report.json").is_file()
        assert (out / "summary_train.csv").is_file()
        assert (out / "summary_test_winners.json").is_file()
        assert "manifest" in capsys.readouterr().out

    def test_partial_failure_exits_3(self, fixture_copy, tmp_path, capsys):
        config = fixture_copy / "config.yaml"
        config.write_text(
            config.read_text().replace(
                "beta: [BBA, BBB, BBC]", "beta: [BBA, BBB, MISSING]"
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["run", *_cfg(fixture_copy), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "beta" in manifest["failures"]
        assert "alpha" in manifest["outputs"]
        # the healthy sector still reaches the summary
        assert (out / "summary_train.csv").is_file()
        assert "beta" in capsys.readouterr().err

    def test_seed_override_lands_in_manifest(self, synthetic_fixture, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *_cfg(synthetic_fixture), "--out", str(out), "--seed", "99"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"mvp": 99, "hrp": 99, "herc": 99}


class TestSharedPipeline:
    def test_subcommands_match_run_artifacts(self, synthetic_fixture, tmp_path):
        def sub(*argv, out):
            assert main([*argv, *_cfg(synthetic_fixture), "--out", str(tmp_path / out)]) == 0
            return tmp_path / out

        run = sub("run", out="run")
        optimize = sub("optimize", "--method", "herc", out="optimize")
        frontier = sub("frontier", out="frontier")
        dendrogram = sub("dendrogram", out="dendrogram")
        for sector in ("alpha", "beta"):
            ran = run / sector
            for got, want in (
                (optimize / sector / "herc_weights.csv", ran / "herc_weights.csv"),
                (frontier / sector / "mvp_frontier.csv", ran / "mvp_frontier.csv"),
                (dendrogram / sector / "dendrogram.json", ran / "hrp_dendrogram.json"),
            ):
                assert got.read_bytes() == want.read_bytes(), got

            backtest = sub("backtest", "--weights", str(ran / "hrp_weights.csv"),
                           out=f"backtest_{sector}")
            # the weights CSV keeps 12 significant digits, so the backtest
            # matches run's reports to that precision, not bit for bit
            for period in ("train", "test"):
                got = json.loads((backtest / f"portfolio_{period}_report.json").read_text())
                want = json.loads((ran / f"hrp_{period}_report.json").read_text())
                assert got["metrics"] == pytest.approx(want["metrics"], rel=1e-10)
                assert got["dates"] == want["dates"]
                np.testing.assert_allclose(
                    got["cumulative_series"], want["cumulative_series"], rtol=1e-10
                )
        assert not list(tmp_path.rglob("*.tmp"))


def _add_shared_sector(fixture_copy):
    """Add a third sector that shares AAA and AAB with alpha and BBA with beta."""
    config = fixture_copy / "config.yaml"
    config.write_text(
        config.read_text().replace(
            "beta: [BBA, BBB, BBC]", "beta: [BBA, BBB, BBC]\n  mixed: [AAA, BBA, AAB]"
        ),
        encoding="utf-8",
    )


class TestParseOnce:
    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        original = market_data._read_close_series

        def counting(path, *args):
            calls.append(str(path))
            return original(path, *args)

        monkeypatch.setattr(market_data, "_read_close_series", counting)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["ingest"],
            ["dendrogram"],
            ["optimize", "--method", "hrp"],
            ["frontier"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_ticker_csv_is_read_once(self, fixture_copy, tmp_path, reads, argv):
        _add_shared_sector(fixture_copy)
        code = main([argv[0], *_cfg(fixture_copy), "--out", str(tmp_path / "out"), *argv[1:]])
        assert code == 0
        data = fixture_copy / "data"
        tickers = ("AAA", "AAB", "AAC", "BBA", "BBB", "BBC")
        assert sorted(reads) == sorted(str(data / f"{t}.csv") for t in tickers)

    def test_run_pipeline_reads_each_csv_once(self, fixture_copy, tmp_path, reads):
        _add_shared_sector(fixture_copy)
        cfg = load_config(fixture_copy / "config.yaml")
        cfg.output_dir = tmp_path / "out"
        manifest = run_pipeline(cfg)
        assert set(manifest.outputs) == {"alpha", "beta", "mixed"}
        assert len(reads) == len(set(reads)) == 6

    def test_iter_sectors_drops_a_ticker_after_its_last_sector(self, fixture_copy):
        _add_shared_sector(fixture_copy)
        cfg = load_config(fixture_copy / "config.yaml")
        held = []
        for sector, parsed in iter_sectors(cfg, ["alpha", "mixed", "beta"]):
            sector_prices(cfg, cfg.sectors[sector], parsed)
            held.append(sorted(Path(p).stem for p in parsed))
        assert held == [["AAA", "AAB", "AAC"], ["AAA", "AAB", "BBA"], ["BBA", "BBB", "BBC"]]
        assert parsed == {}

    def test_broken_csv_fails_every_sector_that_lists_it(self, fixture_copy, tmp_path, reads):
        _add_shared_sector(fixture_copy)
        path = fixture_copy / "data" / "BBA.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].split(",")[0] + ",oops"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", *_cfg(fixture_copy), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        message = f"{path}: line 3, column 'Close': unparsable price 'oops'"
        assert manifest["failures"] == {"beta": message, "mixed": message}
        assert set(manifest["outputs"]) == {"alpha"}
        assert reads.count(str(path)) == 2


class TestExitCodes:
    def test_no_config_exits_1(self, capsys):
        assert main(["run"]) == 1
        assert "configuration" in capsys.readouterr().err

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("data_dir: d\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1

    def test_negative_seed_exits_1(self, synthetic_fixture, tmp_path, capsys):
        code = main(["run", *_cfg(synthetic_fixture), "--out", str(tmp_path), "--seed", "-1"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_unknown_sector_exits_1(self, synthetic_fixture, tmp_path, capsys):
        code = main(
            [
                "optimize",
                *_cfg(synthetic_fixture),
                "--out",
                str(tmp_path),
                "--method",
                "hrp",
                "--sector",
                "gamma",
            ]
        )
        assert code == 1
        assert "gamma" in capsys.readouterr().err

    def test_enabled_tree_method_needs_two_tickers(self, fixture_copy, tmp_path, capsys):
        config = fixture_copy / "config.yaml"
        text = config.read_text().replace("alpha: [AAA, AAB, AAC]", "alpha: [AAA]")
        config.write_text(text.split("  hrp: {}")[0], encoding="utf-8")
        assert main(["frontier", *_cfg(fixture_copy), "--out", str(tmp_path)]) == 0
        code = main(
            ["optimize", *_cfg(fixture_copy), "--out", str(tmp_path), "--method", "hrp"]
        )
        assert code == 1
        assert "sectors.alpha" in capsys.readouterr().err

    def test_missing_data_exits_2(self, fixture_copy, tmp_path, capsys):
        config = fixture_copy / "config.yaml"
        config.write_text(
            config.read_text().replace("data_dir: data", "data_dir: nowhere"),
            encoding="utf-8",
        )
        code = main(
            ["optimize", *_cfg(fixture_copy), "--out", str(tmp_path), "--method", "hrp"]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestOptimize:
    def test_hrp_weights_on_pair_fixture(self, pair_data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["optimize", *_cfg(pair_data_dir), "--out", str(out), "--method", "hrp"]
        )
        assert code == 0
        w = read_weights_csv(out / "pair" / "hrp_weights.csv")
        assert w.tickers == ("PA", "PB")
        np.testing.assert_allclose(w.weights, [0.8, 0.2], atol=1e-9)


class TestBacktest:
    def test_roundtrip_from_weights_file(self, pair_data_dir, tmp_path):
        out = tmp_path / "out"
        assert (
            main(["optimize", *_cfg(pair_data_dir), "--out", str(out), "--method", "hrp"])
            == 0
        )
        code = main(
            [
                "backtest",
                *_cfg(pair_data_dir),
                "--out",
                str(out),
                "--weights",
                str(out / "pair" / "hrp_weights.csv"),
                "--label",
                "demo",
            ]
        )
        assert code == 0
        for period in ("train", "test"):
            payload = json.loads((out / f"demo_{period}_report.json").read_text())
            assert payload["period"] == period
            assert "annual_volatility" in payload["metrics"]


class TestOtherSubcommands:
    def test_ingest_writes_wide_csvs(self, synthetic_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", *_cfg(synthetic_fixture), "--out", str(out)]) == 0
        header = (out / "alpha_prices.csv").read_text().splitlines()[0]
        assert header == "Date,AAA,AAB,AAC"

    def test_frontier_writes_samples(self, synthetic_fixture, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["frontier", *_cfg(synthetic_fixture), "--out", str(out), "--sector", "alpha"]
        )
        assert code == 0
        lines = (out / "alpha" / "mvp_frontier.csv").read_text().splitlines()
        assert lines[0] == "return,volatility,sharpe"
        assert len(lines) == 2001  # configured n_samples

    def test_dendrogram_export(self, synthetic_fixture, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["dendrogram", *_cfg(synthetic_fixture), "--out", str(out), "--sector", "beta"]
        )
        assert code == 0
        payload = json.loads((out / "beta" / "dendrogram.json").read_text())
        assert payload["format"] == "dendrogram"
        assert payload["n_leaves"] == 3

    def test_report_rebuilds_summaries(self, synthetic_fixture, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *_cfg(synthetic_fixture), "--out", str(out)]) == 0
        rebuilt = tmp_path / "rebuilt"
        code = main(
            [
                "report",
                *_cfg(synthetic_fixture),
                "--out",
                str(rebuilt),
                "--reports-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (rebuilt / "summary_train.csv").read_bytes() == (
            out / "summary_train.csv"
        ).read_bytes()

    def test_report_missing_inputs_exits_2(self, synthetic_fixture, tmp_path, capsys):
        code = main(
            [
                "report",
                *_cfg(synthetic_fixture),
                "--out",
                str(tmp_path / "x"),
                "--reports-dir",
                str(tmp_path / "empty"),
            ]
        )
        assert code == 2
        assert "missing report" in capsys.readouterr().err

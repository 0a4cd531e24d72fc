import json

import numpy as np
import pytest

from portopt.allocators import read_weights_csv
from portopt.cli import main


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

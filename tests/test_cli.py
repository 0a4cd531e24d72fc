import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from portopt import market_data, pipeline
from portopt.allocators import read_weights_csv
from portopt.cli import main
from portopt.config import load_config
from portopt.pipeline import parse_sectors, run_pipeline, sector_prices


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PORTOPT_CONFIG", raising=False)


SRC = Path(__file__).parent.parent / "src"


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

    def test_one_dendrogram_render_per_sector(self, synthetic_fixture, tmp_path, monkeypatch):
        exports = []
        original = pipeline.dendrogram_export

        def counting(tree, labels):
            exports.append(labels)
            return original(tree, labels)

        monkeypatch.setattr(pipeline, "dendrogram_export", counting)
        cfg = load_config(synthetic_fixture / "config.yaml")
        cfg.output_dir = tmp_path / "out"
        run_pipeline(cfg)
        assert exports == [("AAA", "AAB", "AAC"), ("BBA", "BBB", "BBC")]
        for sector in ("alpha", "beta"):
            hrp, herc = (tmp_path / "out" / sector / f"{m}_dendrogram.json" for m in ("hrp", "herc"))
            assert hrp.read_bytes() == herc.read_bytes()
            assert json.loads(hrp.read_text())["format"] == "dendrogram"


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

    def test_parse_sectors_parses_each_listed_csv_once(self, fixture_copy, reads):
        _add_shared_sector(fixture_copy)
        cfg = load_config(fixture_copy / "config.yaml")
        parsed = parse_sectors(cfg, ["alpha", "mixed"])
        assert sorted(Path(p).stem for p in parsed) == ["AAA", "AAB", "AAC", "BBA"]
        assert len(reads) == len(set(reads)) == 4
        table = sector_prices(cfg, cfg.sectors["mixed"], parsed)
        assert len(reads) == 4
        fresh = sector_prices(cfg, cfg.sectors["mixed"])
        assert table.dates == fresh.dates
        np.testing.assert_array_equal(table.closes, fresh.closes)

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
        # a single-process run: the up-front parse records the broken CSV's
        # error, so the two sectors that list it raise it without a read
        reads.clear()
        cfg = load_config(fixture_copy / "config.yaml")
        cfg.output_dir = tmp_path / "serial"
        assert run_pipeline(cfg).failures == manifest["failures"]
        assert reads.count(str(path)) == 1


def _tree(root):
    """{relative path: bytes} of every file under root, manifest.json with
    root's path replaced so that two output roots compare equal."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = data.replace(str(root).encode(), b"<out>")
            files[str(path.relative_to(root))] = data
    return files


class TestParallelRun:
    @pytest.mark.parametrize("edit", ["none", "shared_sector", "missing_ticker"])
    def test_pool_matches_one_process(self, fixture_copy, tmp_path, edit):
        config = fixture_copy / "config.yaml"
        if edit == "shared_sector":
            _add_shared_sector(fixture_copy)
        elif edit == "missing_ticker":
            text = config.read_text().replace("beta: [BBA, BBB, BBC]", "beta: [BBA, MISSING, BBC]")
            config.write_text(text, encoding="utf-8")
        trees, manifests = [], []
        # 3 workers: one per sector of the largest case, more than a 2-CPU host has
        for workers in (1, 3):
            cfg = load_config(config)
            cfg.output_dir = tmp_path / f"workers{workers}"
            manifests.append(run_pipeline(cfg, workers=workers))
            trees.append(_tree(cfg.output_dir))
        serial, pooled = manifests
        assert trees[0] == trees[1]
        assert list(pooled.outputs) == list(serial.outputs)
        assert list(pooled.failures.items()) == list(serial.failures.items())
        assert bool(serial.failures) == (edit == "missing_ticker")

    def test_one_sector_run_maps_mvp_blocks_and_gap_batches_over_the_pool(
        self, one_sector, tmp_path, monkeypatch
    ):
        from concurrent.futures import ProcessPoolExecutor

        mapped = []  # (task function, task count) of each map over the pool
        pool_map = ProcessPoolExecutor.map

        def recording(self, fn, *iterables, **kwargs):
            iterables = [list(items) for items in iterables]
            mapped.append((fn.func.__name__, len(iterables[0])))
            return pool_map(self, fn, *iterables, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "map", recording)
        # 10 000 samples are 10 MVP blocks; 51 point sets at n = 40 are 3 gap batches
        config = one_sector(40, gap_b_refs=50)
        trees = []
        for workers in (1, 2):
            cfg = load_config(config)
            cfg.output_dir = tmp_path / f"workers{workers}"
            assert list(run_pipeline(cfg, workers=workers).outputs) == ["wide"]
            trees.append(_tree(cfg.output_dir))
        assert trees[0] == trees[1]
        assert mapped == [("_score_block", 10), ("_batch_curves", 3)]

    def test_failing_lone_sector_fails_alike_in_the_pool(self, fixture_copy, tmp_path):
        data = fixture_copy / "data"
        flat = [line.split(",")[0] + ",100.0" for line in (data / "AAA.csv").read_text().splitlines()[1:]]
        (data / "ZZZ.csv").write_text("Date,Close\n" + "\n".join(flat) + "\n", encoding="utf-8")
        config = fixture_copy / "config.yaml"
        text = config.read_text().replace("  beta: [BBA, BBB, BBC]\n", "")
        config.write_text(text.replace("[AAA, AAB, AAC]", "[AAA, ZZZ, AAC]"), encoding="utf-8")
        failures = []
        for workers in (1, 2):
            cfg = load_config(config)
            cfg.output_dir = tmp_path / f"workers{workers}"
            failures.append(run_pipeline(cfg, workers=workers).failures)
        assert failures[0] == failures[1]
        assert "ZZZ" in failures[0]["alpha"]

    def test_pool_owner_leaves_numpy_random_to_the_workers(self, one_sector, tmp_path):
        config = one_sector(40, gap_b_refs=50)
        script = (
            "import sys\n"
            "from portopt.config import load_config\n"
            "from portopt.pipeline import run_pipeline\n"
            "cfg = load_config(sys.argv[1])\n"
            "cfg.output_dir = sys.argv[2]\n"
            "assert not run_pipeline(cfg, workers=2).failures\n"
            "print('numpy.random' in sys.modules)\n"
        )
        out = _python(["-c", script, str(config), str(tmp_path / "out")])
        assert out.stdout == "False\n"

    def test_run_passes_the_cpu_count(self, synthetic_fixture, tmp_path, monkeypatch):
        from portopt import cli

        seen = []

        def recording(cfg, workers=1):
            seen.append(workers)
            return run_pipeline(cfg)

        monkeypatch.setattr(cli, "run_pipeline", recording)
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
            assert main(["run", *_cfg(synthetic_fixture), "--out", str(tmp_path / "out")]) == 0
        assert seen == ([1, 4] if sys.platform == "linux" else [1, 1])


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(args, **kwargs):
    """Run python with args in a fresh interpreter that finds this checkout's
    portopt, with no BLAS thread setting of its own; fail on a non-zero exit."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300, **kwargs
    )
    assert out.returncode == 0, out.stderr
    return out


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_import_pins_blas_to_one_thread():
    script = (
        "import os, portopt, numpy as np\n"
        "a = np.ones((300, 300))\n"
        "a @ a\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    assert _python(["-c", script]).stdout == "1\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_wide_sector_tree_does_not_depend_on_the_cpu_count(one_sector, tmp_path):
    # at n >= 100 a multi-threaded BLAS gives covariance bits that depend on
    # the thread count; one CPU also means no pool
    config = one_sector(150, gap_b_refs=20, n_samples=3000)
    trees = []
    for name, pin in (("default", None), ("cpu0", lambda: os.sched_setaffinity(0, {0}))):
        out = tmp_path / name
        _python(["-m", "portopt.cli", "run", "--config", str(config), "--out", str(out)], preexec_fn=pin)
        trees.append(_tree(out))
    assert trees[0] == trees[1]


class TestExitCodes:
    def test_no_config_exits_1(self, capsys):
        assert main(["run"]) == 1
        assert "configuration" in capsys.readouterr().err

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("data_dir: d\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "old, new, named",
        [
            (b"# Synthetic", b"# \xa0Synthetic", b"config.yaml"),
            (b"train_end: 2021-06-30", b"train_end: 2021-06-30 00:00:00", b"train_end"),
            (b"train_end:", b"risk_free_rat: 0.05\ntrain_end:", b"risk_free_rat: unknown key"),
            (b"train_end:", b"close_column: null\ntrain_end:", b"close_column: expected a string"),
        ],
        ids=["not_utf8", "timestamp_date", "unknown_key", "null_close_column"],
    )
    def test_malformed_config_exits_1(self, fixture_copy, tmp_path, capsys, old, new, named):
        config = fixture_copy / "config.yaml"
        config.write_bytes(config.read_bytes().replace(old, new, 1))
        assert main(["run", *_cfg(fixture_copy), "--out", str(tmp_path / "out")]) == 1
        assert named.decode() in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body",
        [b"ticker,weight\nAAA,0.5\xff\nAAB,0.5\n", b"ticker,weight\nAAA,0.5\n../x,0.5\n",
         b"ticker,weight\nAAA,0.5\nAAA,0.5\n"],
        ids=["not_utf8", "dotdot", "repeated"],
    )
    def test_malformed_weights_file_exits_2(self, synthetic_fixture, tmp_path, capsys, body):
        weights = tmp_path / "w.csv"
        weights.write_bytes(body)
        out = tmp_path / "out"
        argv = ["backtest", *_cfg(synthetic_fixture), "--out", str(out), "--weights", str(weights)]
        assert main(argv) == 2
        assert f"data error: {weights}: " in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("only_alpha", [False, True])
    def test_dendrogram_needs_two_tickers(self, fixture_copy, tmp_path, capsys, only_alpha):
        config = fixture_copy / "config.yaml"
        text = config.read_text().replace("alpha: [AAA, AAB, AAC]", "alpha: [AAA]")
        config.write_text(text.split("  hrp: {}")[0], encoding="utf-8")
        out = tmp_path / "out"
        argv = ["dendrogram", *_cfg(fixture_copy), "--out", str(out)]
        code = main(argv + ["--sector", "alpha"] if only_alpha else argv)
        assert code == 1
        assert "sectors.alpha: dendrogram clustering needs at least 2 tickers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["a/b", "../x", ""])
    def test_backtest_label_must_be_one_path_component(self, pair_data_dir, tmp_path, capsys, label):
        fitted = tmp_path / "fitted"
        assert main(["optimize", *_cfg(pair_data_dir), "--out", str(fitted), "--method", "hrp"]) == 0
        out = tmp_path / "sub" / "out"
        code = main(
            [
                "backtest",
                *_cfg(pair_data_dir),
                "--out",
                str(out),
                "--weights",
                str(fitted / "pair" / "hrp_weights.csv"),
                "--label",
                label,
            ]
        )
        assert code == 1
        assert "--label" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize(
        "alpha",
        [
            "../escaped: [AAA, AAB, AAC]",
            "a/b: [AAA, AAB, AAC]",
            "'..': [AAA, AAB, AAC]",
            "'': [AAA, AAB, AAC]",
            "alpha: [AAA, ../data/AAB, AAC]",
            "alpha: [AAA, '.', AAC]",
        ],
        ids=["dotdot_name", "slash_name", "dotdot_only_name", "empty_name",
             "slash_ticker", "dot_ticker"],
    )
    def test_sector_names_and_tickers_must_be_one_path_component(
        self, fixture_copy, tmp_path, capsys, alpha
    ):
        config = fixture_copy / "config.yaml"
        text = config.read_text().replace("alpha: [AAA, AAB, AAC]", alpha)
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "sub" / "out"
        assert main(["run", *_cfg(fixture_copy), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: sectors." in err and "one path component" in err
        assert not (tmp_path / "sub").exists()

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


    @pytest.mark.parametrize("command, code", [("run", 3), ("ingest", 2)])
    def test_non_utf8_csv_fails_with_a_message(self, fixture_copy, tmp_path, capsys, command, code):
        path = fixture_copy / "data" / "BBB.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"\n", b"\xe9\n")  # a Latin-1 e-acute
        path.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        assert main([command, *_cfg(fixture_copy), "--out", str(out)]) == code
        message = f"{path}: line 3: not UTF-8 text (byte 0xe9)"
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if command == "run":
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["failures"] == {"beta": message}
            assert set(manifest["outputs"]) == {"alpha"}

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

    def test_bom_and_crlf_weights_give_the_same_reports(self, synthetic_fixture, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"ticker,weight\nAAA,0.5\nAAB,0.5\n")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
        for weights in (plain, bom):
            argv = ["backtest", *_cfg(synthetic_fixture), "--weights", str(weights)]
            assert main([*argv, "--out", str(tmp_path / weights.stem), "--label", "demo"]) == 0
        for period in ("train", "test"):
            name = f"demo_{period}_report.json"
            assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


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


@pytest.fixture(scope="module")
def fixture_reports(synthetic_fixture, tmp_path_factory):
    """The report JSONs of one run over the synthetic fixture."""
    out = tmp_path_factory.mktemp("reports")
    assert main(["run", *_cfg(synthetic_fixture), "--out", str(out)]) == 0
    return out


class TestReportInputs:
    """A bad report file exits 2 naming it, before any summary is written."""

    BAD = {
        "invalid_utf8": b'{"metrics": {"annual_return": "\xff"}}',
        "truncated": b"{",
        "nested_too_deep": b"[" * 100_000,
        "not_an_object": b"[1, 2]",
        "no_metrics": b'{"period": "test"}',
        "metrics_not_an_object": b'{"metrics": [0.1, 0.2, 0.5]}',
        "missing_field": b'{"metrics": {"annual_return": 0.1, "sharpe": 0.5}}',
        "string_field": b'{"metrics": {"annual_return": "0.1", "annual_volatility": 0.2, "sharpe": 0.5}}',
        "bool_field": b'{"metrics": {"annual_return": 0.1, "annual_volatility": true, "sharpe": 0.5}}',
        "null_return": b'{"metrics": {"annual_return": null, "annual_volatility": 0.2, "sharpe": 0.5}}',
        "string_risk_free_rate": (
            b'{"metrics": {"annual_return": 0.1, "annual_volatility": 0.2, "sharpe": 0.5,'
            b' "risk_free_rate": "0"}}'
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_test_report_exits_2_and_writes_nothing(
        self, synthetic_fixture, fixture_reports, tmp_path, capsys, case
    ):
        reports = tmp_path / "reports"
        shutil.copytree(fixture_reports, reports)
        bad = reports / "beta" / "herc_test_report.json"  # read last
        bad.write_bytes(self.BAD[case])
        out = tmp_path / "summary"
        code = main(
            ["report", *_cfg(synthetic_fixture), "--out", str(out), "--reports-dir", str(reports)]
        )
        assert code == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_null_sharpe_and_absent_risk_free_rate_are_read(
        self, synthetic_fixture, fixture_reports, tmp_path
    ):
        reports = tmp_path / "reports"
        shutil.copytree(fixture_reports, reports)
        (reports / "beta" / "herc_test_report.json").write_text(
            '{"metrics": {"annual_return": 0.1, "annual_volatility": 0, "sharpe": null}}'
        )
        out = tmp_path / "summary"
        code = main(
            ["report", *_cfg(synthetic_fixture), "--out", str(out), "--reports-dir", str(reports)]
        )
        assert code == 0
        assert (out / "summary_test.csv").is_file()

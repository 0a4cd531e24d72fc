import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from portopt import allocators, cli, market_data, pipeline
from portopt.allocators import read_weights_csv
from portopt.cli import main
from portopt.config import load_config
from portopt.pipeline import map_sectors, run_pipeline, sector_prices


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
        assert manifest["seeds"] == {"mvp": 99, "herc": 99}

    def test_seed_leaves_an_added_hrp_unseeded(self, fixture_copy, fixture_reports, tmp_path):
        config = fixture_copy / "config.yaml"
        text = config.read_text()
        assert "  hrp: {}\n" in text
        config.write_text(text.replace("  hrp: {}\n", ""), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["optimize", *_cfg(fixture_copy), "--out", str(out), "--method", "hrp"]
        assert main([*argv, "--seed", "3"]) == 0
        for sector in ("alpha", "beta"):  # hrp draws no random numbers
            got = (out / sector / "hrp_weights.csv").read_bytes()
            assert got == (fixture_reports / sector / "hrp_weights.csv").read_bytes()

    def test_seed_reaches_an_added_mvp(self, fixture_copy, tmp_path):
        config = fixture_copy / "config.yaml"
        text = config.read_text()
        mvp = "  mvp:\n    n_samples: 2000\n    seed: 7\n"
        assert mvp in text and "  hrp: {}\n" in text
        runs = {"added": ("", ["--seed", "3"]), "listed": ("  mvp: {seed: 3}\n", [])}
        for name, (block, seed) in runs.items():
            config.write_text(text.replace(mvp, block), encoding="utf-8")
            assert main(["frontier", *_cfg(fixture_copy), "--out", str(tmp_path / name), *seed]) == 0
        for sector in ("alpha", "beta"):
            added, listed = (tmp_path / name / sector / "mvp_frontier.csv" for name in runs)
            assert added.read_bytes() == listed.read_bytes()


def test_a_single_linkage_chain_sector_writes_its_manifest(chain_sector, tmp_path):
    config = chain_sector(520)
    cfg = load_config(config)
    assert run_pipeline(cfg).failures == {}
    assert (cfg.output_dir / "manifest.json").is_file()
    text = (cfg.output_dir / "chain" / "hrp_dendrogram.json").read_text()
    # the root's keys sit 4 spaces in and each level's 4 more: 519 merges deep
    assert max(len(line) - len(line.lstrip(" ")) for line in text.splitlines()) == 4 * 520
    tree = tmp_path / "tree"
    assert main(["dendrogram", "--config", str(config), "--out", str(tree), "--sector", "chain"]) == 0
    assert (tree / "chain" / "dendrogram.json").read_text() == text


class TestSharedPipeline:
    def test_subcommands_match_run_artifacts(self, synthetic_fixture, tmp_path):
        def sub(*argv, out):
            assert main([*argv, *_cfg(synthetic_fixture), "--out", str(tmp_path / out)]) == 0
            return tmp_path / out

        run = sub("run", out="run")
        optimize = {m: sub("optimize", "--method", m, out=f"optimize_{m}") for m in ("hrp", "herc")}
        frontier = sub("frontier", out="frontier")
        dendrogram = sub("dendrogram", out="dendrogram")
        for sector in ("alpha", "beta"):
            ran = run / sector
            for got, want in (
                *((optimize[m] / sector / f"{m}_weights.csv", ran / f"{m}_weights.csv") for m in optimize),
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
        # every JSON artifact, the manifest too, is json.dumps(indent=2, sort_keys=True)'s text
        texts = {p: p.read_text(encoding="utf-8") for p in tmp_path.rglob("*.json")}
        assert run / "manifest.json" in texts and len(texts) == 25
        for path, text in texts.items():
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path

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


def _rewrite_rows(path, edit):
    """Rewrite each line of the CSV at path after its header through edit."""
    head, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(head + "".join(map(edit, rows)), encoding="utf-8")


def _artifacts(root):
    """_tree(root) without manifest.json, whose config echo names the input paths."""
    return {name: data for name, data in _tree(root).items() if name != "manifest.json"}


class TestEquivalentInputs:
    """Inputs that differ from the fixture only in form give its artifacts."""

    @pytest.mark.parametrize("edit", ["bom_crlf", "quoted_dates"])
    def test_a_reformatted_copy_gives_the_same_artifacts(
        self, synthetic_fixture, fixture_copy, fixture_reports, tmp_path, edit
    ):
        if edit == "bom_crlf":  # the config and every CSV
            for path in [fixture_copy / "config.yaml", *(fixture_copy / "data").glob("*.csv")]:
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
        else:  # quoted fields send AAB through the row-by-row parse, not the one-pass one
            _rewrite_rows(fixture_copy / "data" / "AAB.csv", lambda row: '"' + row.replace(",", '",', 1))
        out = tmp_path / "run"
        assert main(["run", *_cfg(fixture_copy), "--out", str(out)]) == 0
        assert _artifacts(out) == _artifacts(fixture_reports)
        ingested = []
        for name, root in (("plain", synthetic_fixture), (edit, fixture_copy)):
            assert main(["ingest", *_cfg(root), "--out", str(tmp_path / name)]) == 0
            ingested.append(_tree(tmp_path / name))
        assert ingested[0] == ingested[1]

    def test_staggered_listings_give_the_same_artifacts_under_ffill(self, fixture_copy, tmp_path):
        # AAB now lists on 2020-01-15, before train_start: ffill's calendar is intersect's
        aab = fixture_copy / "data" / "AAB.csv"
        head, *rows = aab.read_text(encoding="utf-8").splitlines(keepends=True)
        assert rows[10].startswith("2020-01-15,")
        aab.write_text(head + "".join(rows[10:]), encoding="utf-8")
        config = fixture_copy / "config.yaml"
        text = config.read_text().replace("train_start: 2020-01-01", "train_start: 2020-03-02")
        trees = []
        for align in ("intersect", "ffill"):
            config.write_text(text + f"align: {align}\n", encoding="utf-8")
            assert main(["run", *_cfg(fixture_copy), "--out", str(tmp_path / align)]) == 0
            trees.append(_artifacts(tmp_path / align))
        assert trees[0] == trees[1]


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

    def test_map_sectors_parses_each_listed_csv_once(self, fixture_copy, reads):
        _add_shared_sector(fixture_copy)
        cfg = load_config(fixture_copy / "config.yaml")

        def task(cfg, sector, parsed):
            return sorted(Path(p).stem for p in parsed), sector_prices(cfg, cfg.sectors[sector], parsed)

        (stems, _), (_, table) = map_sectors(cfg, ["alpha", "mixed"], task)
        assert stems == ["AAA", "AAB", "AAC", "BBA"]
        assert len(reads) == len(set(reads)) == 4
        fresh = sector_prices(cfg, cfg.sectors["mixed"])
        assert table.dates.tolist() == fresh.dates.tolist()
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


def _set_cpus(monkeypatch, cpus):
    """Make the CLI see cpus as the CPUs it may run on."""
    from portopt import cli

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _cli_runs(config, argv, tmp_path, monkeypatch, capsys, cpu_sets=({0}, {0, 1, 2})):
    """[(exit code, tree, stdout, stderr)] of `portopt <argv>` under each set of
    CPUs, each into its own output root; the root's path reads <out>."""
    runs = []
    for cpus in cpu_sets:
        _set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{len(cpus)}"
        code = main([argv[0], "--config", str(config), "--out", str(out), *argv[1:]])
        std = capsys.readouterr()
        runs.append((code, _tree(out), std.out.replace(str(out), "<out>"), std.err))
    return runs


@pytest.fixture
def pool_maps(monkeypatch):
    """(task function, task count) of each map over a process pool."""
    from concurrent.futures import ProcessPoolExecutor

    mapped = []
    pool_map = ProcessPoolExecutor.map

    def recording(self, fn, *iterables, **kwargs):
        iterables = [list(items) for items in iterables]
        mapped.append((fn.func.__name__, len(iterables[0])))
        return pool_map(self, fn, *iterables, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", recording)
    return mapped


SUBCOMMANDS = [["ingest"], ["optimize", "--method", "herc"], ["frontier"], ["dendrogram"]]


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
        self, one_sector, tmp_path, pool_maps
    ):
        mapped = pool_maps
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

    @pytest.mark.parametrize(
        "argv, lone",
        [pytest.param(argv, lone, id=argv[0] + "-lone_sector" * lone)
         for lone in (False, True) for argv in SUBCOMMANDS],
    )
    def test_subcommand_pool_matches_one_process(
        self, fixture_copy, tmp_path, monkeypatch, capsys, argv, lone
    ):
        config = fixture_copy / "config.yaml"
        if lone:  # the pool scores a lone sector's MVP blocks and gap batches instead
            config.write_text(config.read_text().replace("  beta: [BBA, BBB, BBC]\n", ""))
        one, pooled = _cli_runs(config, argv, tmp_path, monkeypatch, capsys)
        assert one == pooled
        assert one[0] == 0 and one[1]

    @pytest.mark.skipif(sys.platform != "linux", reason="the CLI pools only on Linux")
    def test_lone_sector_optimize_maps_gap_batches_over_the_pool(
        self, one_sector, tmp_path, monkeypatch, capsys, pool_maps
    ):
        # 51 point sets at n = 40 are 3 gap batches
        config = one_sector(40, gap_b_refs=50)
        argv = ["optimize", "--method", "herc"]
        one, pooled = _cli_runs(config, argv, tmp_path, monkeypatch, capsys, ({0}, {0, 1}))
        assert one == pooled
        assert list(one[1]) == ["wide/herc_weights.csv"]
        assert pool_maps == [("_batch_curves", 3)]

    def test_failed_sector_fails_alike_in_the_pool(self, fixture_copy, tmp_path, monkeypatch, capsys):
        _add_shared_sector(fixture_copy)
        config = fixture_copy / "config.yaml"
        text = config.read_text().replace("beta: [BBA, BBB, BBC]", "beta: [BBA, MISSING, BBC]")
        config.write_text(text, encoding="utf-8")
        argv = ["optimize", "--method", "hrp"]
        one, pooled = _cli_runs(config, argv, tmp_path, monkeypatch, capsys)
        assert one == pooled
        code, tree, out, err = one
        assert code == 2
        assert err.startswith("data error: ") and "MISSING" in err
        assert out == "alpha/hrp: <out>/alpha/hrp_weights.csv\n"
        # every sector runs, so the healthy sector after the failed one is written too
        assert sorted(tree) == ["alpha/hrp_weights.csv", "mixed/hrp_weights.csv"]

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

        def recording(real):
            def call(*args, workers=1):
                seen.append(workers)
                return real(*args)

            return call

        # run passes the count to run_pipeline, the other subcommands to map_sectors
        monkeypatch.setattr(cli, "run_pipeline", recording(run_pipeline))
        monkeypatch.setattr(cli, "map_sectors", recording(map_sectors))
        for cpus in ({0}, {0, 1, 2, 3}):
            _set_cpus(monkeypatch, cpus)
            for argv in (["run"], *SUBCOMMANDS):
                out = tmp_path / "out"
                assert main([argv[0], *_cfg(synthetic_fixture), "--out", str(out), *argv[1:]]) == 0
        calls = 1 + len(SUBCOMMANDS)
        assert seen == ([1] * calls + [4] * calls if sys.platform == "linux" else [1] * 2 * calls)


_TEST_PID = os.getpid()
_RUN_SECTOR, _SCORE_BLOCK = pipeline.run_sector, allocators._score_block


def _die_in_a_worker():
    """SIGKILL this process if it is a pool worker; never the test process."""
    if os.getpid() != _TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)


def _run_sector_killing_beta(cfg, sector, parsed=None, **kwargs):
    if sector == "beta":
        _die_in_a_worker()
    return _RUN_SECTOR(cfg, sector, parsed, **kwargs)


def _score_block_killing(*args):
    _die_in_a_worker()
    return _SCORE_BLOCK(*args)


@pytest.mark.skipif(sys.platform != "linux", reason="the CLI pools only on Linux")
class TestDeadWorker:
    """A pool worker killed by a signal fails its map's sectors, not the run."""

    def _run(self, config, argv, tmp_path, monkeypatch, capsys):
        _set_cpus(monkeypatch, {0, 1})
        out = tmp_path / "out"
        code = main([argv[0], "--config", str(config), "--out", str(out), *argv[1:]])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, out, err

    def test_a_sector_worker_that_dies_fails_the_map(
        self, synthetic_fixture, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(pipeline, "run_sector", _run_sector_killing_beta)
        config = synthetic_fixture / "config.yaml"
        code, out, err = self._run(config, ["run"], tmp_path, monkeypatch, capsys)
        assert code == 3
        assert "sector 'beta' failed: a worker process died" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {} and sorted(manifest["failures"]) == ["alpha", "beta"]
        assert all("worker process died" in m for m in manifest["failures"].values())

    def test_a_block_worker_that_dies_fails_the_lone_sector(
        self, fixture_copy, tmp_path, monkeypatch, capsys
    ):
        config = fixture_copy / "config.yaml"
        config.write_text(config.read_text().replace("  beta: [BBA, BBB, BBC]\n", ""), encoding="utf-8")
        # the fixture's 2 000 MVP samples are two blocks, scored in the pool
        monkeypatch.setattr(allocators, "_score_block", _score_block_killing)
        code, out, err = self._run(config, ["run"], tmp_path, monkeypatch, capsys)
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["failures"]) == ["alpha"]
        assert "worker process died" in manifest["failures"]["alpha"]

    def test_other_subcommands_exit_2(self, synthetic_fixture, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(allocators, "_score_block", _score_block_killing)
        config = synthetic_fixture / "config.yaml"
        code, _, err = self._run(config, ["frontier"], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert err.startswith("data error: a worker process died")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    """This environment for a fresh interpreter that finds this checkout's
    portopt, with no BLAS thread setting of its own."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(args, **kwargs):
    """Run python with args in a fresh interpreter (_child_env); fail on a
    non-zero exit."""
    out = subprocess.run(
        [sys.executable, *args], env=_child_env(), capture_output=True, text=True, timeout=300,
        **kwargs,
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


def test_the_cli_imports_no_pool_modules():
    # the pool's modules load only when a run opens its pool
    script = "import sys, portopt.cli; print(sorted({'multiprocessing', 'concurrent'} & set(sys.modules)))"
    assert _python(["-c", script]).stdout == "[]\n"


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


def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return os.fdopen(write, "wb")


_FAILING_STDOUTS = [
    pytest.param(
        lambda: open("/dev/full", "wb"),
        marks=pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full"),
        id="dev_full",
    ),
    pytest.param(_closed_pipe, id="closed_pipe"),
]


def _assert_stdout_failure(child):
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("cannot write to stdout: [Errno ")
    assert "Exception ignored" not in child.stderr and "Traceback" not in child.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", _FAILING_STDOUTS)
def test_a_failed_write_to_stdout_exits_2_naming_stdout(synthetic_fixture, tmp_path, sink, unbuffered):
    # a file or a pipe block-buffers stdout, so its write fails at the last
    # flush; unbuffered, it fails at the run's one line inside main
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = tmp_path / "out"
    with sink() as stdout:
        child = subprocess.run(
            [sys.executable, "-m", "portopt.cli", "run", *_cfg(synthetic_fixture), "--out", str(out)],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    _assert_stdout_failure(child)
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
@pytest.mark.parametrize("sink", _FAILING_STDOUTS)
def test_help_and_version_into_a_failed_stdout_exit_2(sink, argv):
    with sink() as stdout:
        child = subprocess.run(
            [sys.executable, "-m", "portopt.cli", *argv],
            env=_child_env(), stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    _assert_stdout_failure(child)


# edits of the fixture config, by name, each breaking one rule ("mvp": hrp and herc cut)
_EDITS = {
    "lone_alpha": lambda t: t.replace("[AAA, AAB, AAC]", "[AAA]"),
    "lone_alpha_mvp": lambda t: _EDITS["lone_alpha"](t).split("  hrp: {}")[0],
    "lone_both_mvp": lambda t: _EDITS["lone_alpha_mvp"](t).replace("[BBA, BBB, BBC]", "[BBA]"),
    "alpha2_k3": lambda t: t.replace("[AAA, AAB, AAC]", "[AAA, AAB]").replace("k: auto", "k: 3"),
    "alpha2_gap_k_max3": lambda t: t.replace("[AAA, AAB, AAC]", "[AAA, AAB]").replace(
        "k: auto", "k: auto\n    gap_k_max: 3"
    ),
    "k_abc": lambda t: t.replace("k: auto", "k: abc"),
    "linkage_nope": lambda t: t + "linkage_rule: nope\n",
}


# edits that break a rule of a method that ingest, backtest, report and dendrogram do not fit
_NO_FIT_EDITS = ("alpha2_k3", "alpha2_gap_k_max3", "lone_alpha", "k_abc")


def _cut(config, sector=None, method=None):
    """The text of config cut down to sector and to method (with its listed
    parameters, or none), each when given."""
    raw = yaml.safe_load(config.read_text())
    if sector is not None:
        raw["sectors"] = {sector: raw["sectors"][sector]}
    if method is not None:
        raw["methods"] = {method: raw["methods"].get(method) or {}}
    return yaml.safe_dump(raw)


class TestExitCodes:
    def test_no_config_exits_1(self, capsys):
        assert main(["run"]) == 1
        assert "configuration" in capsys.readouterr().err

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("data_dir: d\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "command, old, new, named",
        [
            (["run"], b"# Synthetic", b"# \xa0Synthetic", b"config.yaml"),
            (["run"], b"train_end: 2021-06-30", b"train_end: 2021-06-30 00:00:00", b"train_end"),
            (["run"], b"train_end:", b"risk_free_rat: 0.05\ntrain_end:", b"risk_free_rat: unknown key"),
            (["run"], b"train_end:", b"close_column: null\ntrain_end:", b"close_column: expected a string"),
            (["run"], b"train_end:", b"close_column: Date\ntrain_end:", b"close_column: 'Date' is also"),
            (["run"], b"test_end:", b"annualization_days: 1000\ntest_end:", b"annualization_days: "),
            (["run"], b"alpha: [AAA, AAB,", b'alpha: [AAA, "A,B",', b"sectors.alpha: 'A,B'"),
            (["run"], b"train_start: 2020-01-01", b"train_start: 20200101", b"train_start: unparsable"),
            (["run"], b"  beta: ", b"  manifest.json: ", b"sectors.manifest.json: "),
            (["run"], b"test_end:", b"train_end: 2020-01-10\ntest_end:", b"duplicate key 'train_end'"),
            (
                ["run"],
                b"train_start: 2020-01-01",
                b"train_start: 2020-02-30",
                b"config.yaml: invalid YAML: '2020-02-30' is not a valid timestamp",
            ),
            (
                ["run"],
                b"test_end:",
                b"risk_free_rate: !!float abc\ntest_end:",
                b"config.yaml: invalid YAML: 'abc' is not a valid float",
            ),
            (
                ["run"],
                b"test_end:",
                b"close_column: " + b"[" * 2000 + b"]" * 2000 + b"\ntest_end:",
                b"config.yaml: close_column: value nested too deeply",
            ),
            (["ingest"], b"test_end:", b'date_column: "Da,te"\ntest_end:', b"date_column: 'Da,te'"),
            (["ingest"], b"alpha: [AAA, AAB,", b"alpha: [AAA, Date,", b"sectors.alpha: 'Date'"),
            (["optimize", "--method", "hrp"], b"  hrp: {}", b"  hrp: 0", b"methods.hrp: expected"),
            # a YAML "\0" escape puts a NUL, which open() refuses, in a name that becomes a path
            (["run"], b"  beta: ", b'  "be\\0ta": ', b"'be\\x00ta' is not one path component"),
            (["ingest"], b"  beta: ", b'  "be\\0ta": ', b"'be\\x00ta' is not one path component"),
            (["run"], b"alpha: [AAA, AAB,", b'alpha: [AAA, "A\\0B",', b"sectors.alpha: 'A\\x00B' is not"),
            (["run"], b"data_dir: data", b'data_dir: "da\\0ta"', b"data_dir: expected a path string without"),
            (["run"], b"output_dir: out", b'output_dir: "o\\0ut"', b"output_dir: expected a path string without"),
        ],
        ids=["not_utf8", "timestamp_date", "unknown_key", "null_close_column",
             "close_column_is_date_column", "days", "comma", "compact", "root_file", "duplicate",
             "feb30", "bad_float", "deep", "date_comma", "date_ticker", "hrp_zero",
             "nul_sector", "nul_sector_ingest", "nul_ticker", "nul_data_dir", "nul_output_dir"],
    )
    def test_malformed_config_exits_1(self, fixture_copy, tmp_path, capsys, command, old, new, named):
        config = fixture_copy / "config.yaml"
        config.write_bytes(config.read_bytes().replace(old, new, 1))
        assert config.read_bytes().count(new) == 1
        out = str(tmp_path / "out")
        assert main([command[0], *_cfg(fixture_copy), "--out", out, *command[1:]]) == 1
        assert named.decode() in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body",
        [b"ticker,weight\nAAA,0.5\xff\nAAB,0.5\n", b"ticker,weight\nAAA,0.5\n../x,0.5\n",
         b"ticker,weight\nAAA,0.5\nAAA,0.5\n", b"ticker,weight\nAAA,0.5\nA\0B,0.5\n"],
        ids=["not_utf8", "dotdot", "repeated", "nul_ticker"],
    )
    def test_malformed_weights_file_exits_2(self, synthetic_fixture, tmp_path, capsys, body):
        weights = tmp_path / "w.csv"
        weights.write_bytes(body)
        out = tmp_path / "out"
        argv = ["backtest", *_cfg(synthetic_fixture), "--out", str(out), "--weights", str(weights)]
        assert main(argv) == 2
        assert f"data error: {weights}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("  beta:", '  "be\\0ta":', "sectors.'be\\x00ta': 'be\\x00ta' is not one path component"),
            ("  beta:", '  "al\\npha":', "sectors.'al\\npha': 'al\\npha' is not one path component"),
            ("  beta: [BBA, BBB, BBC]", '  "be\\tta": [BBA]', "sectors.'be\\tta': hrp/herc clustering needs"),
            ("data_dir:", '"ex\\ntra": 1\ndata_dir:', "'ex\\ntra': unknown key"),
            ("  mvp:", '  "h\\0rp": {}\n  mvp:', "methods.'h\\x00rp': unknown key"),
            ("  hrp: {}", '  hrp: {"a\\nb": 1}', "methods.hrp.'a\\nb': unknown key"),
        ],
        ids=["nul_sector", "newline_sector", "tab_sector", "newline_key", "nul_method", "newline_parameter"],
    )
    def test_a_config_message_names_an_unprintable_key_by_its_repr(
        self, fixture_copy, tmp_path, capsys, old, new, named
    ):
        config = fixture_copy / "config.yaml"
        config.write_text(config.read_text().replace(old, new, 1), encoding="utf-8")
        assert main(["run", *_cfg(fixture_copy), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {named}")
        assert err.count("\n") == 1 and "\0" not in err and "\t" not in err

    @pytest.mark.parametrize(
        "command, old, new, named",
        [
            (["run"], "  beta:", '  "\\udc80":', "sectors.'\\udc80': '\\udc80' holds a lone surrogate"),
            (["run"], "AAB, AAC]", 'AAB, "\\ud800"]', "sectors.alpha: '\\ud800' holds a lone surrogate"),
            (["optimize", "--method", "hrp"], "AAB, AAC]", 'AAB, "\\udc80"]', "sectors.alpha: '\\udc80' holds"),
            (["ingest"], "AAB, AAC]", 'AAB, "\\udc80"]', "sectors.alpha: '\\udc80' holds a lone surrogate"),
            (["dendrogram"], "  beta:", '  "\\ud800":', "sectors.'\\ud800': '\\ud800' holds a lone surrogate"),
            (["ingest"], "test_end:", 'date_column: "\\ud800"\ntest_end:', "date_column: '\\ud800' holds"),
            (["run"], "test_end:", 'close_column: "\\udc80"\ntest_end:', "close_column: '\\udc80' holds"),
        ],
        ids=["sector_summary", "ticker_path", "ticker_weights", "ticker_wide", "sector_dendrogram",
             "date_column", "close_column"],
    )
    def test_a_lone_surrogate_exits_1_before_anything_is_written(
        self, fixture_copy, tmp_path, capsys, monkeypatch, command, old, new, named
    ):
        # only PyYAML's pure-Python loader reads the escape; libyaml rejects it
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        data = fixture_copy / "data"
        shutil.copy(data / "AAC.csv", data / "\udc80.csv")  # a "\udc80" ticker's CSV: fsencode gives b"\x80"
        config = fixture_copy / "config.yaml"
        config.write_text(config.read_text().replace(old, new, 1), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command[0], *_cfg(fixture_copy), "--out", str(out), *command[1:]]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {named}")
        assert not out.exists()

    def test_a_nul_in_output_dir_exits_1_without_out(self, fixture_copy, capsys):
        config = fixture_copy / "config.yaml"
        config.write_text(config.read_text().replace("output_dir: out", 'output_dir: "o\\0ut"'))
        before = sorted(fixture_copy.iterdir())
        assert main(["run", *_cfg(fixture_copy)]) == 1
        assert "output_dir: expected a path string without NUL" in capsys.readouterr().err
        assert sorted(fixture_copy.iterdir()) == before

    def test_negative_seed_exits_1(self, synthetic_fixture, tmp_path, capsys):
        code = main(["run", *_cfg(synthetic_fixture), "--out", str(tmp_path), "--seed", "-1"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv, named",
        [(["run", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
         (["optimize"], "the following arguments are required: --method")],
        ids=["seed_not_an_int", "optimize_without_method"],
    )
    def test_usage_error_exits_1(self, synthetic_fixture, tmp_path, capsys, argv, named):
        # argparse's own exit code, 2, is the data-error code
        with pytest.raises(SystemExit) as stop:
            main([*argv, *_cfg(synthetic_fixture), "--out", str(tmp_path / "out")])
        assert stop.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: portopt {argv[0]}") and f"error: {named}\n" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--out", "--reports-dir"])
    def test_an_empty_directory_option_exits_1(self, fixture_copy, tmp_path, capsys, option):
        # '' is what an unset shell variable gives, not "use the configured directory"
        out = tmp_path / "out"
        if option == "--out":
            argv = ["optimize", *_cfg(fixture_copy), "--method", "hrp", "--out", ""]
        else:
            argv = ["report", *_cfg(fixture_copy), "--out", str(out), "--reports-dir", ""]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: {option}: expected a directory path, got ''\n"
        assert not (fixture_copy / "out").exists() and not out.exists()

    @pytest.mark.parametrize("value", ["x\0y", "x\ud800y"], ids=["nul", "lone_surrogate"])
    @pytest.mark.parametrize(
        "command, option",
        [("run", "--config"), ("backtest", "--weights"), ("run", "--out"), ("ingest", "--out"),
         ("report", "--reports-dir"), ("backtest", "--label")],
        ids=["config", "weights", "run_out", "ingest_out", "reports_dir", "label"],
    )
    def test_a_path_option_open_cannot_take_exits_1(
        self, synthetic_fixture, tmp_path, capsys, command, option, value
    ):
        # in-process: no argv can hold a NUL, nor a "\ud800" outside os.fsdecode's escapes
        weights = tmp_path / "w.csv"
        weights.write_text("ticker,weight\nAAA,0.5\nAAB,0.5\n", encoding="utf-8")
        given = ["--weights", str(weights)] if command == "backtest" else []
        argv = [command, *_cfg(synthetic_fixture), "--out", str(tmp_path / "out"), *given, option, value]
        assert main(argv) == 1  # the last of a repeated option wins
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {option}: expected a ")
        assert err.endswith(f", got {value!r}\n") and err.count("\n") == 1
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]

    def test_an_out_holding_a_non_utf8_byte_exits_0(self, synthetic_fixture, tmp_path):
        # argv's byte 0xff reaches main as "\udcff", which os.fsencode gives back;
        # stdout escapes it as the C locale's does
        out = os.fsencode(tmp_path / "o") + b"\xffk"
        argv = [sys.executable, "-m", "portopt.cli", "run", *_cfg(synthetic_fixture), "--out", out]
        env = {**_child_env(), "PYTHONIOENCODING": "utf-8:surrogateescape"}
        child = subprocess.run(argv, env=env, capture_output=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert child.stdout == b"manifest: " + out + b"/manifest.json\n"
        assert os.path.isfile(out + b"/summary_test.csv")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
    def test_help_and_version_exit_0(self, capsys, monkeypatch, argv):
        outs = []
        for own_writer in (True, False):  # _Parser's, then argparse's
            if not own_writer:
                monkeypatch.setattr(
                    cli._Parser, "_print_message", argparse.ArgumentParser._print_message
                )
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1]

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

    @pytest.mark.parametrize(
        "edit, argv, code, named",
        [
            ("lone_alpha_mvp", ["optimize", "--method", "hrp", "--sector", "beta"], 0, "beta/hrp_weights.csv"),
            ("lone_alpha_mvp", ["optimize", "--method", "herc", "--sector", "beta"], 0, "beta/herc_weights.csv"),
            ("lone_alpha_mvp", ["optimize", "--method", "hrp"], 1, "sectors.alpha: hrp clustering needs"),
            ("lone_alpha_mvp", ["frontier"], 0, "alpha/mvp_frontier.csv"),
            ("lone_alpha_mvp", ["frontier", "--sector", "alpha"], 0, "alpha/mvp_frontier.csv"),
            ("lone_both_mvp", ["run"], 0, "manifest.json"),
            ("lone_alpha_mvp", ["dendrogram", "--sector", "alpha"], 1, "sectors.alpha: dendrogram clustering"),
            *(
                (f"alpha2_{key}3", argv, code, named.format(key=key))
                for key in ("k", "gap_k_max")
                for argv, code, named in [
                    (["optimize", "--method", "herc", "--sector", "beta"], 0, "beta/herc_weights.csv"),
                    (["optimize", "--method", "mvp", "--sector", "beta"], 0, "beta/mvp_weights.csv"),
                    (["frontier"], 0, "alpha/mvp_frontier.csv"),
                    (["optimize", "--method", "herc"], 1, "methods.herc.{key}: expected an int in 1..2, got 3"),
                    (["run"], 1, "methods.herc.{key}: expected an int in 1..2, got 3"),
                ]
            ),
            # a non-int k under a herc that the command does not fit
            ("k_abc", ["optimize", "--method", "mvp"], 0, "alpha/mvp_weights.csv"),
            ("k_abc", ["run"], 1, "methods.herc.k: expected an int in 1..3, got 'abc'"),
            # an unknown sector never hides an error in the file
            ("linkage_nope", ["optimize", "--method", "mvp", "--sector", "gamma"], 1, "linkage_rule: "),
            # ingest, backtest and report fit no method, so no method's rule
            # applies; dendrogram applies its own tree rule alone
            *(
                (edit, argv, code, named)
                for edit in _NO_FIT_EDITS
                for argv, code, named in [
                    (["ingest"], 0, "alpha_prices.csv"),
                    (["backtest", "--weights", "{weights}"], 0, "portfolio_train_report.json"),
                    (["report", "--reports-dir", "{reports}"], 0, "summary_test.csv"),
                    (["dendrogram", "--sector", "beta"], 0, "beta/dendrogram.json"),
                    *(
                        (["dendrogram", *sector], 1, "sectors.alpha: dendrogram clustering needs at least 2")
                        if edit == "lone_alpha"
                        else (["dendrogram", *sector], 0, "alpha/dendrogram.json")
                        for sector in ([], ["--sector", "alpha"])
                    ),
                ]
            ),
            ("lone_alpha", ["run"], 1, "sectors.alpha: hrp/herc clustering needs at least 2 tickers, got 1"),
            ("lone_alpha", ["optimize", "--method", "herc"], 1, "sectors.alpha: herc clustering needs at least 2"),
            ("k_abc", ["optimize", "--method", "herc"], 1, "methods.herc.k: expected an int in 1..3, got 'abc'"),
        ],
        ids=["hrp_beta", "herc_beta", "hrp_all", "frontier_all", "frontier_alpha", "run_all_lone",
             "dendrogram_alpha",
             *(f"{case}-{key}3" for key in ("k", "gap_k_max")
               for case in ("herc_beta", "mvp_beta", "frontier_all", "herc_all", "run")),
             "k_abc-mvp_all", "k_abc-run", "linkage_nope-unknown_sector",
             *(f"{edit}-{case}" for edit in _NO_FIT_EDITS
               for case in ("ingest", "backtest", "report", "dendrogram_beta", "dendrogram_all", "dendrogram_alpha")),
             "lone_alpha-run", "lone_alpha-herc_all", "k_abc-herc_all"],
    )
    def test_a_command_checks_only_the_sectors_and_method_it_runs(
        self, fixture_copy, tmp_path, capsys, request, edit, argv, code, named
    ):
        # the fixture config under an edit of _EDITS; named is the file the
        # command writes, or the start of its message.  backtest reads two
        # of beta's tickers, report the reports of a run of the fixture
        config = fixture_copy / "config.yaml"
        config.write_text(_EDITS[edit](config.read_text()), encoding="utf-8")
        weights = tmp_path / "w.csv"
        weights.write_text("ticker,weight\nBBA,0.5\nBBB,0.5\n", encoding="utf-8")
        reports = request.getfixturevalue("fixture_reports") if "{reports}" in argv else None
        argv = [arg.format(weights=weights, reports=reports) for arg in argv]
        out = tmp_path / "out"
        assert main([argv[0], *_cfg(fixture_copy), "--out", str(out), *argv[1:]]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"configuration error: {named}") and not out.exists()
        else:
            assert err == "" and (out / named).is_file()
        if not code and "--sector" in argv:  # the bytes of a config holding only that sector
            assert sorted(p.name for p in out.iterdir()) == [argv[-1]]
            cut = fixture_copy / "cut.yaml"
            cut.write_text(_cut(config, argv[-1]), encoding="utf-8")
            alone = tmp_path / "alone"
            assert main([argv[0], "--config", str(cut), "--out", str(alone), *argv[1:]]) == 0
            assert _tree(out) == _tree(alone)

    @pytest.mark.parametrize("edit", ["lone_alpha", "lone_alpha_mvp", "alpha2_k3", "alpha2_gap_k_max3"])
    def test_a_narrowed_command_fails_as_the_file_cut_to_what_it_runs(
        self, fixture_copy, tmp_path, monkeypatch, capsys, edit
    ):
        # each edit breaks only a rule that reads the sectors that run
        _set_cpus(monkeypatch, {0})
        config, cut = fixture_copy / "config.yaml", fixture_copy / "cut.yaml"
        config.write_text(_EDITS[edit](config.read_text()), encoding="utf-8")
        # (command line, the method it fits)
        fits = [(["optimize", "--method", m], m) for m in ("mvp", "hrp", "herc")] + [(["frontier"], "mvp")]
        runs = [(argv + s, m) for argv, m in fits for s in ([], ["--sector", "alpha"], ["--sector", "beta"])]
        runs += [(["dendrogram", "--sector", s], None) for s in ("alpha", "beta")]
        for i, (argv, method) in enumerate(runs):
            sector = argv[-1] if "--sector" in argv else None
            cut.write_text(_cut(config, sector, method), encoding="utf-8")
            seen = []
            for path in (config, cut):
                out = tmp_path / f"{i}-{path.stem}"
                code = main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]])
                err = capsys.readouterr().err.replace(str(out), "<out>")
                seen.append((code, err.partition("\n")[0], _tree(out)))
            assert seen[0] == seen[1], (edit, argv)

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

    # NAME_MAX is 255 bytes: ingest's <name>_prices.csv.tmp leaves a sector name
    # 240, backtest's <label>_train_report.json.tmp leaves a label 233
    @pytest.mark.parametrize(
        "name", ["s" * 240, "s" * 241, "é" * 120, "é" * 120 + "s"], ids=["240", "241", "240_utf8", "241_utf8"]
    )
    def test_a_sector_name_too_long_for_its_files_exits_1(self, fixture_copy, tmp_path, capsys, name):
        config = fixture_copy / "config.yaml"
        config.write_text(config.read_text().replace("alpha:", f"{name}:"), encoding="utf-8")
        out = tmp_path / "out"
        if len(os.fsencode(name)) == 240:
            assert main(["ingest", *_cfg(fixture_copy), "--out", str(out)]) == 0
            assert (out / f"{name}_prices.csv").is_file()
            return
        for argv in (["run"], ["ingest"], ["optimize", "--method", "hrp"], ["dendrogram"]):
            assert main([argv[0], *_cfg(fixture_copy), "--out", str(out), *argv[1:]]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: sectors.{name}: ")
            assert err.endswith(" is 241 bytes; at most 240 fit before '_prices.csv.tmp'\n")
            assert not out.exists()

    @pytest.mark.parametrize(
        "label", ["l" * 233, "l" * 234, "é" * 116 + "l", "é" * 117], ids=["233", "234", "233_utf8", "234_utf8"]
    )
    def test_a_label_too_long_for_its_reports_exits_1(self, pair_data_dir, tmp_path, capsys, label):
        fitted = tmp_path / "fitted"
        assert main(["optimize", *_cfg(pair_data_dir), "--out", str(fitted), "--method", "hrp"]) == 0
        out = tmp_path / "out"
        weights = fitted / "pair" / "hrp_weights.csv"
        argv = ["backtest", *_cfg(pair_data_dir), "--out", str(out), "--weights", str(weights)]
        if len(os.fsencode(label)) == 233:
            assert main([*argv, "--label", label]) == 0
            assert (out / f"{label}_train_report.json").is_file()
            return
        assert main([*argv, "--label", label]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --label: ")
        assert err.endswith(" is 234 bytes; at most 233 fit before '_train_report.json.tmp'\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha, named",
        [
            ("../escaped: [AAA, AAB, AAC]", "one path component"),
            ("a/b: [AAA, AAB, AAC]", "one path component"),
            ("'..': [AAA, AAB, AAC]", "one path component"),
            ("'': [AAA, AAB, AAC]", "one path component"),
            ("alpha: [AAA, ../data/AAB, AAC]", "one path component"),
            ("alpha: [AAA, '.', AAC]", "one path component"),
            # a '"' would be written unquoted into the CSVs, which csv reads as a quote
            ("'\"Q\" sector': [AAA, AAB, AAC]", "sectors.\"Q\" sector: '\"Q\" sector' is not one path"),
            ("alpha: [AAA, 'A\"B', AAC]", "sectors.alpha: 'A\"B' is not one path component"),
            # run writes these beside the sector directories
            ("manifest.json: [AAA, AAB, AAC]", "sectors.manifest.json: "),
            ("summary_test.csv: [AAA, AAB, AAC]", "sectors.summary_test.csv: "),
            ("summary_train_winners.json: [AAA, AAB, AAC]", "sectors.summary_train_winners.json: "),
            ("manifest.json.tmp: [AAA, AAB, AAC]", "sectors.manifest.json.tmp: "),
            # ingest heads each wide CSV with date_column, then the tickers
            ("alpha: [AAA, Date, AAC]", "sectors.alpha: 'Date' is also date_column"),
        ],
        ids=["dotdot_name", "slash_name", "dotdot_only_name", "empty_name",
             "slash_ticker", "dot_ticker", "quote_name", "quote_ticker", "manifest_name", "summary_name",
             "winners_name", "manifest_tmp_name", "date_column_ticker"],
    )
    def test_sector_names_and_tickers_must_be_one_path_component(
        self, fixture_copy, tmp_path, capsys, alpha, named
    ):
        config = fixture_copy / "config.yaml"
        text = config.read_text().replace("alpha: [AAA, AAB, AAC]", alpha)
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "sub" / "out"
        assert main(["run", *_cfg(fixture_copy), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: sectors." in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["ingest"],
            ["optimize", "--method", "hrp"],
            ["backtest", "--weights", "{reports}/alpha/hrp_weights.csv"],
            ["frontier"],
            ["dendrogram"],
            ["report", "--reports-dir", "{reports}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_uncreatable_output_dir_exits_1(
        self, synthetic_fixture, fixture_reports, tmp_path, capsys, argv
    ):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out"
        rest = [arg.format(reports=fixture_reports) for arg in argv[1:]]
        assert main([argv[0], *_cfg(synthetic_fixture), "--out", str(out), *rest]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: output_dir: cannot create {out}: ")
        assert err.count("\n") == 1

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

    def test_compact_csv_dates_fail_the_sector(self, fixture_copy, tmp_path, capsys):
        # date.fromisoformat reads 20200101 on python >= 3.11, not on 3.10
        path = fixture_copy / "data" / "AAB.csv"
        _rewrite_rows(path, lambda row: row.replace("-", "", 2))
        out = tmp_path / "out"
        assert main(["run", *_cfg(fixture_copy), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"sector 'alpha' failed: {path}: line 2, column 'Date': unparsable date '20200101'" in err
        assert "Traceback" not in err
        assert list(json.loads((out / "manifest.json").read_text())["failures"]) == ["alpha"]


def _blocked_out(tmp_path, name):
    """An output root whose entry name is taken: by a directory when name
    ends in '/', else by an empty file."""
    out = tmp_path / "out"
    out.mkdir()
    blocker = out / name.rstrip("/")
    blocker.mkdir() if name.endswith("/") else blocker.write_text("", encoding="utf-8")
    return out, blocker


class TestBlockedOutputPath:
    """A path a sector cannot write fails that sector, by name, and the others complete."""

    def test_run_pipeline_fails_the_sector(self, synthetic_fixture, fixture_reports, tmp_path):
        out, blocker = _blocked_out(tmp_path, "alpha")
        cfg = load_config(synthetic_fixture / "config.yaml")
        cfg.output_dir = out
        failures = run_pipeline(cfg).failures
        assert list(failures) == ["alpha"] and str(blocker) in failures["alpha"]
        assert _tree(out / "beta") == _tree(fixture_reports / "beta")
        assert not list(out.rglob("*.tmp"))

    def test_pooled_run_exits_3(self, synthetic_fixture, fixture_reports, tmp_path, monkeypatch, capsys):
        out, blocker = _blocked_out(tmp_path, "alpha")
        _set_cpus(monkeypatch, {0, 1, 2})
        assert main(["run", *_cfg(synthetic_fixture), "--out", str(out)]) == 3
        assert f"sector 'alpha' failed: [Errno 17] File exists: '{blocker}'" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["failures"]) == ["alpha"] and str(blocker) in manifest["failures"]["alpha"]
        assert _tree(out / "beta") == _tree(fixture_reports / "beta")
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize(
        "argv, blocked, written",
        [
            (["optimize", "--method", "hrp"], "beta", ["alpha/hrp_weights.csv"]),
            (["ingest"], "alpha_prices.csv/", ["beta_prices.csv"]),
            (["backtest", "--weights", "{reports}/alpha/hrp_weights.csv"], "portfolio_train_report.json/", []),
            (["report", "--reports-dir", "{reports}"], "summary_train.csv/", []),
        ],
        ids=["optimize", "ingest", "backtest", "report"],
    )
    def test_subcommand_exits_2(
        self, synthetic_fixture, fixture_reports, tmp_path, capsys, argv, blocked, written
    ):
        out, blocker = _blocked_out(tmp_path, blocked)
        rest = [arg.format(reports=fixture_reports) for arg in argv[1:]]
        assert main([argv[0], *_cfg(synthetic_fixture), "--out", str(out), *rest]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(blocker) in err
        # the other sector's file, and no temp file
        files = [p for p in out.rglob("*") if p.is_file() and p != blocker]
        assert sorted(p.relative_to(out).as_posix() for p in files) == written


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

    @pytest.mark.parametrize("boundary", ["\\x0b", "\\x1c", "\\x85", "\\u2028"], ids=["x0b", "x1c", "x85", "u2028"])
    def test_a_ticker_holding_a_unicode_line_boundary_round_trips(self, fixture_copy, tmp_path, boundary):
        ticker = "A" + boundary.encode().decode("unicode_escape") + "C"
        (fixture_copy / "data" / "AAC.csv").rename(fixture_copy / "data" / f"{ticker}.csv")
        config = fixture_copy / "config.yaml"
        config.write_text(config.read_text().replace("AAC]", f'"A{boundary}C"]', 1), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["optimize", *_cfg(fixture_copy), "--out", str(out), "--method", "hrp"]) == 0
        weights = out / "alpha" / "hrp_weights.csv"
        assert read_weights_csv(weights).tickers == ("AAA", "AAB", ticker)
        argv = ["backtest", *_cfg(fixture_copy), "--out", str(out), "--weights", str(weights)]
        assert main(argv) == 0
        assert (out / "portfolio_test_report.json").is_file()

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
        for period in ("train", "test"):
            for name in (f"summary_{period}.csv", f"summary_{period}_winners.json"):
                assert (rebuilt / name).read_bytes() == (out / name).read_bytes(), name

    def test_a_huge_risk_free_rate_leaves_sharpe_undefined_and_report_reads_it(
        self, fixture_copy, tmp_path
    ):
        config = fixture_copy / "config.yaml"
        config.write_text(config.read_text().replace("test_end:", "risk_free_rate: 1.0e+308\ntest_end:", 1))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow warning fails the run
            assert main(["run", *_cfg(fixture_copy), "--out", str(out)]) == 0
        reports = sorted(out.glob("*/*_report.json"))
        assert len(reports) == 12
        for path in reports:  # an overflowed ratio is written as null, not -Infinity
            assert json.loads(path.read_text())["metrics"]["sharpe"] is None
        for period in ("train", "test"):
            rows = [line.split(",") for line in (out / f"summary_{period}.csv").read_text().splitlines()]
            sharpe = [i for i, name in enumerate(rows[0]) if name.endswith("_sharpe")]
            assert {row[i] for row in rows[1:-1] for i in sharpe} == {""}
        rebuilt = tmp_path / "rebuilt"
        argv = ["report", *_cfg(fixture_copy), "--out", str(rebuilt), "--reports-dir", str(out)]
        assert main(argv) == 0
        for name in ("summary_train.csv", "summary_test_winners.json"):
            assert (rebuilt / name).read_bytes() == (out / name).read_bytes()

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
        # json.loads reads NaN and Infinity, and a 400-digit int that no float holds
        "nan_return": b'{"metrics": {"annual_return": NaN, "annual_volatility": 0.2, "sharpe": 0.5}}',
        "infinite_sharpe": b'{"metrics": {"annual_return": 0.1, "annual_volatility": 0.2, "sharpe": Infinity}}',
        "minus_infinite_volatility": (
            b'{"metrics": {"annual_return": 0.1, "annual_volatility": -Infinity, "sharpe": 0.5}}'
        ),
        "huge_int_return": (
            b'{"metrics": {"annual_return": 1' + b"0" * 400 + b', "annual_volatility": 0.2, "sharpe": 0.5}}'
        ),
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

    def test_directory_at_a_report_path_exits_2_naming_the_cause(
        self, synthetic_fixture, fixture_reports, tmp_path, capsys
    ):
        reports = tmp_path / "reports"
        shutil.copytree(fixture_reports, reports)
        bad = reports / "beta" / "herc_test_report.json"
        bad.unlink()
        bad.mkdir()
        out = tmp_path / "summary"
        code = main(
            ["report", *_cfg(synthetic_fixture), "--out", str(out), "--reports-dir", str(reports)]
        )
        assert code == 2
        assert f"{bad}: cannot read report file: Is a directory" in capsys.readouterr().err
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

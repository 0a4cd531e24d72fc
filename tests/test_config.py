import datetime as dt

import pytest
import yaml

from portopt.config import ConfigError, load_config

MINIMAL = """\
data_dir: data
output_dir: out
train_start: 2020-01-01
train_end: 2021-06-30
test_end: 2021-12-31
sectors:
  alpha: [AAA, AAB]
"""


def _write(tmp_path, text):
    path = tmp_path / "config.yaml"
    # a lone surrogate in text writes as that raw byte: a non-UTF-8 file
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, MINIMAL))
        assert cfg.train_start == dt.date(2020, 1, 1)
        assert set(cfg.methods) == {"mvp", "hrp", "herc"}
        assert cfg.annualization_days == 252
        assert cfg.risk_free_rate == 0.0
        assert cfg.linkage_rule == "ward"
        assert cfg.align == "intersect"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        cfg = load_config(_write(tmp_path, MINIMAL))
        assert cfg.data_dir == tmp_path / "data"
        assert cfg.output_dir == tmp_path / "out"

    def test_absolute_paths_are_kept(self, tmp_path):
        data = tmp_path / "elsewhere" / "data"
        cfg = load_config(_write(tmp_path, MINIMAL.replace("data_dir: data", f"data_dir: {data}")))
        assert cfg.data_dir == data

    def test_methods_list_form(self, tmp_path):
        cfg = load_config(_write(tmp_path, MINIMAL + "methods: [hrp, herc]\n"))
        assert cfg.methods == {"hrp": {}, "herc": {}}

    def test_method_params_pass_through(self, tmp_path):
        text = MINIMAL + (
            "methods:\n  mvp: {n_samples: 500, seed: 3}\n"
            "  herc: {k: 2, risk_measure: variance, gap_b_refs: 1, gap_k_max: 2, seed: 0}\n"
        )
        cfg = load_config(_write(tmp_path, text))
        assert cfg.methods["mvp"] == {"n_samples": 500, "seed": 3}
        assert cfg.methods["herc"]["k"] == 2
        assert cfg.methods["herc"]["gap_k_max"] == 2  # the sector's ticker count

    def test_missing_key_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="test_end"):
            load_config(_write(tmp_path, MINIMAL.replace("test_end: 2021-12-31\n", "")))

    def test_bad_date_is_named(self, tmp_path):
        bad = MINIMAL.replace("2021-06-30", "yesterday")
        with pytest.raises(ConfigError, match="train_end"):
            load_config(_write(tmp_path, bad))

    def test_date_ordering_enforced(self, tmp_path):
        bad = MINIMAL.replace("test_end: 2021-12-31", "test_end: 2020-06-30")
        with pytest.raises(ConfigError, match="train_start < train_end < test_end"):
            load_config(_write(tmp_path, bad))

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="methods.cvar"):
            load_config(_write(tmp_path, MINIMAL + "methods: [cvar]\n"))

    def test_unknown_method_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="methods.hrp"):
            load_config(_write(tmp_path, MINIMAL + "methods:\n  hrp: {shrink: 0.1}\n"))

    def test_bad_herc_k_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="methods.herc.k"):
            load_config(_write(tmp_path, MINIMAL + "methods:\n  herc: {k: -2}\n"))

    @pytest.mark.parametrize(
        "method, params, key",
        [
            ("herc", "{gap_b_refs: 0}", "methods.herc.gap_b_refs"),
            ("herc", "{gap_b_refs: true}", "methods.herc.gap_b_refs"),
            ("herc", "{gap_b_refs: 2.5}", "methods.herc.gap_b_refs"),
            ("herc", "{gap_k_max: 0}", "methods.herc.gap_k_max"),
            ("herc", "{gap_k_max: 3}", "methods.herc.gap_k_max"),  # sector has 2
            ("herc", "{gap_k_max: 99}", "methods.herc.gap_k_max"),
            ("herc", "{gap_k_max: true}", "methods.herc.gap_k_max"),
            ("herc", "{seed: -2}", "methods.herc.seed"),
            ("herc", "{seed: false}", "methods.herc.seed"),
            ("herc", "{k: true}", "methods.herc.k"),
            ("mvp", "{seed: -1}", "methods.mvp.seed"),
            ("mvp", "{seed: '3'}", "methods.mvp.seed"),
            ("mvp", "{n_samples: true}", "methods.mvp.n_samples"),
            ("mvp", "{n_samples: 0}", "methods.mvp.n_samples"),
        ],
    )
    def test_bad_method_param_rejected_by_name(self, tmp_path, method, params, key):
        text = MINIMAL + f"methods:\n  {method}: {params}\n"
        with pytest.raises(ConfigError, match=key):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("test_end", "annualization_days: abc\ntest_end", "annualization_days"),
            ("test_end", "annualization_days: true\ntest_end", "annualization_days"),
            ("test_end", "annualization_days: 2.7\ntest_end", "annualization_days"),
            ("test_end", "annualization_days: 0\ntest_end", "annualization_days"),
            ("test_end", "risk_free_rate: abc\ntest_end", "risk_free_rate"),
            ("test_end", "risk_free_rate: .nan\ntest_end", "risk_free_rate"),
            ("test_end", "risk_free_rate: .inf\ntest_end", "risk_free_rate"),
            ("test_end", "risk_free_rate: true\ntest_end", "risk_free_rate"),
            ("test_end", "methods:\n  hrp: 5\ntest_end", "methods.hrp"),
            ("test_end", "methods:\n  mvp: [n_samples]\ntest_end", "methods.mvp"),
            ("data_dir: data", "data_dir: null", "data_dir"),
            ("data_dir: data", "data_dir: 5", "data_dir"),
            ("output_dir: out", "output_dir: [out]", "output_dir"),
            ("test_end", "methods:\n  herc: {k: 3}\ntest_end", "methods.herc.k"),  # sector has 2
            ("test_end", "methods:\n  herc: {k: 99}\ntest_end", "methods.herc.k"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, AAB, AAA]", "sectors.alpha"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, 0700]", r"^sectors\.alpha: 448 is not a str"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, null]", r"^sectors\.alpha: None is not a str"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, AAB]\n  true: [AAC, AAD]", r"^sectors\.True: "),
            ("alpha: [AAA, AAB]", "alpha: [AAA, AAB]\n  solo: [AAC]", "sectors.solo"),
            (
                "alpha: [AAA, AAB]",
                "alpha: [AAA, AAB]\n  solo: [AAC]\nmethods: [mvp, hrp]",
                "sectors.solo",
            ),
            ("train_start: 2020-01-01", "train_start: 2020-01-01 00:00:00", "train_start"),
            ("test_end: 2021-12-31", "test_end: 2021-12-31T09:30:00Z", "test_end"),
            ("sectors:", "# caf\udce9\nsectors:", "config.yaml"),
            ("test_end", "risk_free_rat: 0.05\ntest_end", "^risk_free_rat: unknown key"),
            ("test_end", "1: x\ntest_end", "^1: unknown key"),
            ("test_end", "methods: [{mvp: 1}]\ntest_end", "^methods.{'mvp': 1}: unknown key"),
            # a repeated key is named with its line, not silently overridden
            ("test_end", "train_end: 2020-01-10\ntest_end", r"duplicate key 'train_end'\n.*line 5,"),
            (
                "alpha: [AAA, AAB]",
                "alpha: [AAA, AAB]\n  alpha: [AAC, AAD]",
                r"duplicate key 'alpha'\n.*line 8,",
            ),
            ("test_end", "methods:\n  herc: {k: 2, k: 3}\ntest_end", r"duplicate key 'k'\n.*line 6,"),
        ],
    )
    def test_bad_value_rejected_by_name(self, tmp_path, old, new, key):
        text = MINIMAL.replace(old, new, 1)
        assert text != MINIMAL
        with pytest.raises(ConfigError, match=key):
            load_config(_write(tmp_path, text))

    def test_empty_sector_rejected(self, tmp_path):
        bad = MINIMAL.replace("alpha: [AAA, AAB]", "alpha: []")
        with pytest.raises(ConfigError, match="sectors.alpha"):
            load_config(_write(tmp_path, bad))

    def test_mvp_only_accepts_one_ticker_sector(self, tmp_path):
        text = MINIMAL.replace("alpha: [AAA, AAB]", "alpha: [AAA, AAB]\n  solo: [AAC]")
        cfg = load_config(_write(tmp_path, text + "methods: [mvp]\n"))
        assert cfg.sectors["solo"] == ["AAC"]

    def test_needs_a_multi_ticker_sector(self, tmp_path):
        bad = MINIMAL.replace("alpha: [AAA, AAB]", "alpha: [AAA]")
        with pytest.raises(ConfigError, match=">= 2 tickers"):
            load_config(_write(tmp_path, bad))

    def test_bad_linkage_rule_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="linkage_rule"):
            load_config(_write(tmp_path, MINIMAL + "linkage_rule: centroid\n"))

    @pytest.mark.parametrize("value", ["null", "1", "[Close]", "{a: b}", "2020-01-01"])
    @pytest.mark.parametrize("key", ["close_column", "date_column", "linkage_rule", "align"])
    def test_non_string_setting_rejected_by_name(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: expected a string"):
            load_config(_write(tmp_path, MINIMAL + f"{key}: {value}\n"))

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    def test_both_yaml_loaders_read_the_same_config(self, tmp_path, monkeypatch, loader):
        if loader == "python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        text = MINIMAL + "methods:\n  mvp: {n_samples: 500, seed: 3}\n  herc: {k: 2}\nalign: ffill\n"
        bom_crlf = tmp_path / "bom_crlf.yaml"
        bom_crlf.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        cfg = load_config(_write(tmp_path, text))
        assert load_config(bom_crlf).echo() == cfg.echo()
        assert cfg.methods == {"mvp": {"n_samples": 500, "seed": 3}, "herc": {"k": 2}}
        assert (cfg.align, cfg.train_end) == ("ffill", dt.date(2021, 6, 30))
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(_write(tmp_path, "sectors: [unclosed\n"))
        with pytest.raises(ConfigError, match=r"duplicate key 'align'\n.*line 12,"):
            load_config(_write(tmp_path, text + "align: intersect\n"))
        # a key given after a << merge overrides the merged one: not a repeat
        merged = MINIMAL + "methods:\n  mvp: {<<: {n_samples: 500, seed: 1}, seed: 3}\n"
        assert load_config(_write(tmp_path, merged)).methods == {"mvp": {"n_samples": 500, "seed": 3}}

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(_write(tmp_path, "sectors: [unclosed\n"))

    def test_non_mapping_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(_write(tmp_path, "- a\n- b\n"))

    def test_echo_is_json_ready(self, tmp_path):
        import json

        cfg = load_config(_write(tmp_path, MINIMAL))
        payload = json.loads(json.dumps(cfg.echo()))
        assert payload["train_start"] == "2020-01-01"
        assert payload["sectors"] == {"alpha": ["AAA", "AAB"]}
